"""Workload definitions: job lists, expected exit codes, oracles, inputs.

A job is one `slemma` command line.  Each workload is a fixed list of
jobs run as whole passes, so every run sees the same mix of job types and
the percentiles land on the same job groups from run to run.  The
workload seed drives the generated n = 3 inputs and the `--seed` each job
receives; seeds change from pass to pass so that seed-dependent work
(convexity-probe pairs, Halton scrambles) averages out inside one run.

Only the standard library is used here: the orchestrator imports this
module without NumPy.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

PROBLEMS = "problems"

# Nominal seconds per warm pass at the seed commit on a 2-core x86-64
# box; together with --seconds they fix the number of timed passes, so
# two commits are always measured on the same number of samples.
NOMINAL_PASS_S = {"certify": 0.40, "geometry": 1.8, "lift": 2.9, "stabilize": 1.5}

# At least this many timed passes, so that the tail (the 11th-largest
# sample) falls inside the heavy job group rather than on its edge.
MIN_PASSES = {"certify": 3, "geometry": 5, "lift": 4, "stabilize": 5}

WORKLOADS = tuple(NOMINAL_PASS_S)

N3_PAIRS = 3


def _problem(name: str) -> str:
    return f"{PROBLEMS}/{name}.json"


def _job(argv, expect=0, oracles=(), recheck=None) -> dict:
    """One job: its argv (without --seed/--out-dir), the exit code it has
    at the seed commit, the oracle names applied to its artifacts and the
    kind of external re-check its certificate gets."""
    cmd, problem = argv[0], argv[1]
    tag = "_".join([cmd, Path(problem).stem] + [a.lstrip("-") for a in argv[2:]])
    return {"id": tag, "argv": list(argv), "expect": expect,
            "oracles": list(oracles), "recheck": recheck}


def certify_jobs() -> list[dict]:
    jobs = []
    for pb in ("switch_sextic", "switch_fractional"):
        p = _problem(pb)
        jobs += [
            _job(["zeros", p]),
            _job(["copositive", p]),
            _job(["shs-check", p]),
            _job(["shs-xi", p],
                 oracles=["xi_sextic"] if pb == "switch_sextic" else [],
                 recheck="strict"),
            _job(["lfhd", p]),
            _job(["combo-synth", p], oracles=["synth_weights"], recheck="combo"),
            _job(["combo-scan", p],
                 oracles=["scan_sextic" if pb == "switch_sextic" else "scan_fractional"]),
        ]
    jobs.append(_job(["hs-xi", _problem("switch_sextic")], oracles=["xi_sextic"],
                     recheck="nonstrict"))
    for pb in ("sector_quartic_pi", "sector_sextic_full", "cubic_shared_zero"):
        reason = ["honest_reason"] if pb == "cubic_shared_zero" else []
        jobs.append(_job(["shs-xi", _problem(pb)], expect=1, oracles=reason))
        jobs.append(_job(["hs-xi", _problem(pb)], expect=1, oracles=reason))
    return jobs


def geometry_jobs() -> list[dict]:
    phi = {
        "sector_quartic_pi": "phi_pi",
        "sector_quartic_wide": "phi_quartic_wide",
        "sector_sextic_full": "phi_full",
        "sector_sextic_wide": "phi_sextic_wide",
        "cubic_shared_zero": "cubic_geometry",
        "switch_sextic": "phi_below_pi",
    }
    jobs = [_job(["image", _problem(pb)], oracles=[o]) for pb, o in phi.items()]
    jobs.append(_job(["curve", _problem("switch_sextic")], oracles=["curve_closed"]))
    return jobs


def lift_jobs(gen_files: list[str]) -> list[dict]:
    jobs = [_job(["nhs-xi", _problem("affine_sextic_shift")], recheck="nhs")]
    for path in gen_files:
        jobs += [
            _job(["hs-xi", path], recheck="nonstrict"),
            _job(["copositive", path]),
            _job(["zeros", path]),
        ]
    return jobs


def stabilize_jobs() -> list[dict]:
    return [
        _job(["simulate", _problem("switch_sextic")], oracles=["v_decreasing"]),
        _job(["simulate", _problem("switch_fractional"), "--format", "csv"],
             oracles=["v_decreasing"]),
        _job(["simulate", _problem("switch_three_linear")], oracles=["v_decreasing"]),
        _job(["combo-scan", _problem("switch_three_linear"), "--grid-step", "0.005"],
             expect=1, oracles=["scan_empty"]),
    ]


# Jobs timed as cold subprocesses, by index into the workload's job list,
# the same ones in every run.  Their median (of four) falls on jobs whose
# work does not depend on the seed, so that it measures start-up rather
# than which convexity-probe pairs a seed happened to draw.
COLD = {
    "certify": (3, 6, 14, 20),
    "geometry": (0, 1, 5, 6),
    "lift": (0, 1, 2, 3),
    "stabilize": (0, 1, 2, 3),
}


def jobs_for(workload: str, gen_files: list[str]) -> list[dict]:
    if workload == "certify":
        return certify_jobs()
    if workload == "geometry":
        return geometry_jobs()
    if workload == "lift":
        return lift_jobs(gen_files)
    if workload == "stabilize":
        return stabilize_jobs()
    raise ValueError(f"unknown workload {workload!r}")


def job_seed(workload_seed: int, pass_no: int, job_index: int) -> int:
    """The --seed a job receives in a given pass (string seeding of
    random.Random is stable across interpreters)."""
    rng = random.Random(f"{workload_seed}:{pass_no}:{job_index}")
    return rng.randrange(1, 2 ** 31)


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES[workload], math.ceil(seconds / NOMINAL_PASS_S[workload]))


# ------------------------------------------------------ generated n = 3 pairs


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def _poly_add(a: dict, b: dict, scale: float = 1.0) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + scale * c
    return out


def _quad_form(Q) -> dict:
    out: dict = {}
    for i in range(3):
        for j in range(3):
            e = [0, 0, 0]
            e[i] += 1
            e[j] += 1
            out[tuple(e)] = out.get(tuple(e), 0.0) + Q[i][j]
    return out


def _terms(poly: dict) -> list[dict]:
    return [{"coeff": round(c, 12),
             "powers": [{"num": p, "den": 1} for p in e]}
            for e, c in sorted(poly.items()) if abs(c) > 1e-12]


def n3_pair(rng: random.Random) -> tuple[dict, dict]:
    """A quartic pair (f, g) in three variables with f = xi0*g + p.

    g is indefinite (x1^4 - x2^4 + x3^4 plus random cross terms) and p is
    positive definite (a sum of two squared positive-definite quadratic
    forms), so no common zero exists, f is copositive with g and the
    non-strict search reaches its margin stage and certifies some xi.
    """
    monos = [(a, b, 4 - a - b) for a in range(5) for b in range(5 - a)]
    g = {m: rng.uniform(-0.3, 0.3) for m in monos}
    g = _poly_add(g, {(4, 0, 0): 1.0, (0, 4, 0): -1.0, (0, 0, 4): 0.6})
    p: dict = {}
    for _ in range(2):
        B = [[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(3)]
        Q = [[sum(B[i][k] * B[j][k] for k in range(3)) + (0.5 if i == j else 0.0)
              for j in range(3)] for i in range(3)]
        q = _quad_form(Q)
        p = _poly_add(p, _poly_mul(q, q))
    xi0 = rng.uniform(0.5, 3.0)
    f = _poly_add(p, g, xi0)
    return f, g


def write_n3_problems(workload_seed: int, out_dir: Path) -> list[str]:
    """Write the generated lift inputs; returns their paths."""
    rng = random.Random(f"lift-n3:{workload_seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(N3_PAIRS):
        f, g = n3_pair(rng)
        doc = {"version": 1, "variables": ["x1", "x2", "x3"],
               "functions": {"f": _terms(f), "g": _terms(g)}}
        path = out_dir / f"quartic3_{i + 1}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        paths.append(str(path))
    return paths
