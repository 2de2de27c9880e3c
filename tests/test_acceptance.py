"""End-to-end acceptance battery.

Each test covers one headline behavior, prints a single PASS/FAIL line,
and checks its stated tolerance and runtime budget.  The numeric targets
come from independent oracles: brute-force circle scans, closed-form
eigenvalue cancellation, and interval containment for the simplex scans.
"""

import hashlib
import io
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from conftest import quad_form, random_symmetric
from slemma import (
    Dilation,
    GeneralizedPolynomial,
    LfhdCandidate,
    MultiplierCertificate,
    Parity,
    ReasonCode,
    SampledPair,
    check_lfhd,
    derivative_along,
    find_nonstrict_multiplier,
    find_strict_multiplier,
    linear_combination_eigencheck,
    linear_matrix,
    scan_combinations,
    simulate_min_switching,
    synthesize_combination_n2,
)
from slemma.cli import main
from slemma.problems import load_problem
from slemma.stp_poly import CoeffVecPolynomial, homogenize

GP = GeneralizedPolynomial


@contextmanager
def criterion(capsys, label):
    """Collect (name, bool) checks; print one verdict line; assert all."""
    checks = []
    try:
        yield checks
    except BaseException:
        with capsys.disabled():
            print(f"[FAIL] {label} (raised)", flush=True)
        raise
    ok = all(v for _, v in checks)
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
    failed = [name for name, v in checks if not v]
    assert ok, f"{label}: failed checks {failed}"


def test_strict_multiplier_margin(capsys, sextic_pair, d2):
    with criterion(capsys, "strict multiplier margin matches the circle oracle") as ck:
        t0 = time.perf_counter()
        f, g = sextic_pair
        theta = np.linspace(0.0, 2.0 * np.pi, 200001)
        oracle = 3.0 * float(np.min(np.cos(theta) ** 6 + np.sin(theta) ** 6))
        pair = SampledPair.draw(f, g, d2, count=4096)
        margin2 = float(np.min(pair.F - 2.0 * pair.G))
        cert = find_strict_multiplier(f, g, d2, count=4096)
        elapsed = time.perf_counter() - t0
        ck.append(("margin at xi=2 equals 3*min(c^6+s^6) +- 1e-6",
                   abs(margin2 - oracle) <= 1e-6))
        ck.append(("oracle itself is 0.75", abs(oracle - 0.75) <= 1e-6))
        ck.append(("certificate returned", isinstance(cert, MultiplierCertificate)))
        ck.append(("refined margin >= 0.75", cert.margin >= 0.75))
        ck.append(("runtime < 5 s", elapsed < 5.0))


def test_combination_interval(capsys, sextic_system, sextic_V, d2):
    with criterion(capsys, "simplex scan interval and synthesized weight") as ck:
        t0 = time.perf_counter()
        cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
        scan = scan_combinations(cand, grid_step=0.005)
        synth = synthesize_combination_n2(cand)
        elapsed = time.perf_counter() - t0
        ck.append(("scan is feasible", len(scan.feasible) > 0))
        lo, hi = scan.interval if scan.interval else (1.0, 0.0)
        ck.append(("interval contains [0.21, 0.39]", lo <= 0.21 and hi >= 0.39))
        ck.append(("synthesis succeeded", getattr(synth, "ok", False)))
        ck.append(("synthesized weight inside the scanned interval",
                   lo <= synth.lambdas[0] <= hi))
        ck.append(("runtime < 10 s", elapsed < 10.0))


def test_fractional_dilation_stabilization(capsys, frac_system, frac_V, frac_dilation):
    with criterion(capsys, "fractional-power coverage and interval") as ck:
        t0 = time.perf_counter()
        cand = LfhdCandidate.build(frac_V, frac_system, frac_dilation)
        rep = check_lfhd(cand)
        scan = scan_combinations(cand, grid_step=0.01)
        elapsed = time.perf_counter() - t0
        ck.append(("coverage holds", rep.covered))
        lo, hi = scan.interval if scan.interval else (1.0, 0.0)
        ck.append(("interval contains [0.46, 0.53]", lo <= 0.46 and hi >= 0.53))
        ck.append(("runtime < 10 s", elapsed < 10.0))


def test_covered_yet_infeasible(capsys, linear3_system, linear3_matrices, norm_V, d2):
    with criterion(capsys, "coverage without any stabilizing combination") as ck:
        t0 = time.perf_counter()
        cand = LfhdCandidate.build(norm_V, linear3_system, d2)
        rep = check_lfhd(cand)
        scan = scan_combinations(cand, grid_step=0.01)
        r3 = np.sqrt(3.0)
        lam = np.array([2.0 * r3, 1.0, 1.0]) / (2.0 * r3 + 2.0)
        val = linear_combination_eigencheck(linear3_matrices, lam)
        elapsed = time.perf_counter() - t0
        ck.append(("coverage holds for V = ||x||^2 / 2", rep.covered))
        ck.append(("simplex scan at step 0.01 is empty", len(scan.feasible) == 0))
        ck.append(("combination matrix cancels: max eigenvalue 0 +- 1e-9",
                   abs(val) <= 1e-9))
        ck.append(("runtime < 5 s", elapsed < 5.0))


def test_sector_gallery_angles(capsys, sector_gallery, sextic_pair, d2):
    with criterion(capsys, "image sector angles across the gallery") as ck:
        pi = np.pi
        phis = [SampledPair.draw(f, g, d2, count=4096).image().phi
                for f, g in sector_gallery]
        ck.append(("pair 1: phi = pi +- 0.05", abs(phis[0] - pi) <= 0.05))
        ck.append(("pair 2: pi < phi < 3 pi / 2", pi < phis[1] < 1.5 * pi))
        ck.append(("pair 3: 3 pi / 2 < phi < 2 pi", 1.5 * pi < phis[2] < 2.0 * pi))
        ck.append(("pair 4: phi = 2 pi", phis[3] == pytest.approx(2.0 * pi)))
        f, g = sextic_pair
        phi_d = SampledPair.draw(f, g, d2, count=4096).image().phi
        ck.append(("derivative pair: phi < pi", phi_d < pi))


def test_shared_zero_negative_case(capsys, cubic_pair, d2):
    with criterion(capsys, "shared-zero pair fails with honest reasons") as ck:
        f, g = cubic_pair
        ck.append(("copositive", SampledPair.draw(f, g, d2).is_copositive().holds))
        ck.append(("not strictly copositive",
                   not SampledPair.draw(f, g, d2).is_copositive(strict=True).holds))
        allowed = {ReasonCode.COMMON_ZERO, ReasonCode.SECTOR_GE_PI}
        strict = find_strict_multiplier(f, g, d2)
        nonstrict = find_nonstrict_multiplier(f, g)
        ck.append(("strict search fails", not getattr(strict, "ok", True)))
        ck.append(("strict reason is a hypothesis violation",
                   getattr(strict, "reason", None) in allowed))
        ck.append(("non-strict search fails", not getattr(nonstrict, "ok", True)))
        ck.append(("non-strict reason is a hypothesis violation",
                   getattr(nonstrict, "reason", None) in allowed))

        pair = SampledPair.draw(f, g, d2)
        summary = pair.image()
        targets = (np.arctan(0.5), np.arctan(7.0 / 6.0))
        hits = {t: False for t in targets}
        angles_ok = True
        for ang in summary.boundary_angles:
            dists = [min(abs((ang - t) % np.pi), np.pi - (ang - t) % np.pi)
                     for t in targets]
            if min(dists) > 0.02:
                angles_ok = False
            hits[targets[int(np.argmin(dists))]] = True
        ck.append(("boundary angles match slopes 1/2 and 7/6 within 0.02",
                   angles_ok and all(hits.values())))

        probe = pair.convexity_probe(summary)
        found = any(abs(v["midpoint"][0]) <= 1e-9
                    and abs(v["midpoint"][1] - 0.25) <= 1e-9 for v in probe)
        ck.append(("midpoint (0, 1/4) reported as a convexity violation", found))


# f = g + s^2 with s = (x1 - 2 x2)(2 x1 - x2), g = x1^4 - x2^4, and the
# system F1 = -f x, F2 = g x under V = |x|^2 / 2
TANGENT = Path(__file__).resolve().parent.parent / "problems" / "tangent_quartic.json"
# the exit code that the exact argument below gives each command on it;
# combo-scan is left out, because it passes the grid point (1/2, 1/2) on
# a sampled margin although no combination exists
TANGENT_EXITS = {"copositive --strict": 0, "zeros": 0, "shs-check": 1, "shs-xi": 1,
                 "hs-xi": 0, "image": 0, "lfhd": 0, "combo-synth": 1}


def _exact(p):
    """A polynomial of integer powers as {(a, b): c}, each float
    coefficient read as the exact rational it is."""
    assert all(e.denominator == 1 for powers, _ in p.terms for e in powers)
    return {tuple(int(e) for e in powers): Fraction(c) for (powers, _), c in p.terms.items()}


def _combine(*scaled):
    """sum c * p over the (c, p) pairs, without zero coefficients."""
    out = {}
    for c, p in scaled:
        for key, v in p.items():
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def _mul(p, q):
    out = {}
    for a, c in p.items():
        for e, k in q.items():
            key = tuple(i + j for i, j in zip(a, e))
            out[key] = out.get(key, 0) + c * k
    return _combine((1, out))


def _at(p, x):
    return sum(c * math.prod(v ** e for v, e in zip(x, a)) for a, c in p.items())


def _tangent_pair_checks(f, g):
    """The exact evidence of the tangent pair: (name, bool) checks."""
    s = _mul({(1, 0): 1, (0, 1): -2}, {(1, 0): 2, (0, 1): -1})
    return [
        ("f - g = s^2 with s = (x1 - 2 x2)(2 x1 - x2)", _combine((1, f), (-1, g)) == _mul(s, s)),
        ("(2, 1) and (1, 2) span the root lines of s", _at(s, (2, 1)) == _at(s, (1, 2)) == 0),
        ("g != 0 on both root lines", _at(g, (2, 1)) != 0 != _at(g, (1, 2))),
        ("f = g = 15 at (2, 1)", _at(f, (2, 1)) == _at(g, (2, 1)) == 15),
        ("f = g = -15 at (1, 2)", _at(f, (1, 2)) == _at(g, (1, 2)) == -15),
    ]


@pytest.fixture(scope="module")
def tangent_runs(tmp_path_factory):
    """{command: (exit code, JSON result)} of each command on the tangent pair."""
    out = tmp_path_factory.mktemp("tangent")
    runs = {}
    for command in TANGENT_EXITS:
        name, *flags = command.split()
        with redirect_stdout(io.StringIO()):
            code = main([name, str(TANGENT), *flags, "--out-dir", str(out)])
        suffix = "_strict" if flags else ""
        path = out / f"{name}_{TANGENT.stem}{suffix}.json"
        runs[command] = (code, json.loads(path.read_text())["result"])
    return runs


def _verdicts_agree(runs):
    got = {command: code for command, (code, _) in runs.items()}
    return (f"every verdict but combo-scan's agrees: {got}", got == TANGENT_EXITS)


def test_strict_s_lemma_fails_beyond_quadratic_forms(capsys, tangent_runs):
    # Where g >= 0, f = g + s^2 >= s^2 >= 0, and f = 0 would need g = s = 0,
    # which g != 0 on the root lines of s rules out: f is strictly
    # copositive with g.  f - xi g > 0 at (2, 1) needs xi < 1 and at (1, 2)
    # xi > 1, so no strict multiplier exists; xi = 1 is a non-strict one.
    with criterion(capsys, "claim 1: strict copositivity without a strict multiplier") as ck:
        t0 = time.perf_counter()
        ck.extend(_tangent_pair_checks(*map(_exact, load_problem(TANGENT).pair())))
        ck.append(_verdicts_agree(tangent_runs))
        ck.append(("hs-xi finds xi = 1", abs(tangent_runs["hs-xi"][1].get("xi", np.nan) - 1.0) <= 1e-6))
        ck.append(("runtime < 5 s", time.perf_counter() - t0 < 5.0))


def test_covered_without_a_stabilizing_combination_beyond_linear(capsys, tangent_runs):
    # grad V = x, so D1 = -f |x|^2 and D2 = g |x|^2.  Where g >= 0, f > 0
    # (claim 1), so D1 < 0 or D2 < 0 at every x != 0: the system is
    # covered.  At (2, 1) l1 D1 + l2 D2 = 75 (l2 - l1) and at (1, 2)
    # 75 (l1 - l2), so no weights make it negative at both.
    with criterion(capsys, "claim 2: coverage without a stabilizing combination") as ck:
        t0 = time.perf_counter()
        problem = load_problem(TANGENT)
        f, g = map(_exact, problem.pair())
        ck.extend(_tangent_pair_checks(f, g))
        (_, system), (_, V) = problem.single_system(), problem.first_lyapunov()
        norm = {(2, 0): 1, (0, 2): 1}
        ck.append(("V = |x|^2 / 2", _exact(V) == _combine((Fraction(1, 2), norm))))
        x1, x2 = {(1, 0): 1}, {(0, 1): 1}
        D1, D2 = (_combine((1, _mul(x1, _exact(a))), (1, _mul(x2, _exact(b))))
                  for a, b in system.fields)
        ck.append(("D1 = -f |x|^2 and D2 = g |x|^2",
                   D1 == _mul(_combine((-1, f)), norm) and D2 == _mul(g, norm)))
        ck.append(("D1 = -D2 = -75 at (2, 1) and 75 at (1, 2)",
                   _at(D1, (2, 1)) == -_at(D2, (2, 1)) == -75
                   and _at(D1, (1, 2)) == -_at(D2, (1, 2)) == 75))
        ck.append(_verdicts_agree(tangent_runs))
        ck.append(("runtime < 5 s", time.perf_counter() - t0 < 5.0))


# f = 2 - t and g = 1 - t^4: a non-homogeneous pair of degree 4
NHS_QUARTIC = TANGENT.with_name("nhs_univariate_quartic.json")


def test_nhs_lemma_holds_beyond_degree_two(capsys, tmp_path):
    # f - g = (t^2 - 1/2)^2 + (t - 1/2)^2 + 1/2 > 0, so xi = 1 is a
    # multiplier, and g takes both signs.  For xi > 0, f - xi g =
    # 2 - xi - t + xi t^4 is least where 4 xi t^3 = 1, at 2 - xi - 3t/4,
    # so it is positive on R exactly when 0 < xi < 2 and
    # 256 xi (2 - xi)^3 > 27.
    with criterion(capsys, "NHS-lemma: a multiplier for a univariate quartic pair") as ck:
        t0 = time.perf_counter()
        f, g = map(_exact, load_problem(NHS_QUARTIC).pair())
        ck.append(("f = 2 - t and g = 1 - t^4",
                   f == {(0,): 2, (1,): -1} and g == {(0,): 1, (4,): -1}))
        half = Fraction(1, 2)
        s1, s2 = {(2,): 1, (0,): -half}, {(1,): 1, (0,): -half}
        ck.append(("f - g = (t^2 - 1/2)^2 + (t - 1/2)^2 + 1/2",
                   _combine((1, f), (-1, g))
                   == _combine((1, _mul(s1, s1)), (1, _mul(s2, s2)), (half, {(0,): 1}))))
        ck.append(("g(0) = 1 > 0 > -15 = g(2)", _at(g, (0,)) == 1 and _at(g, (2,)) == -15))
        with redirect_stdout(io.StringIO()):
            code = main(["nhs-xi", str(NHS_QUARTIC), "--out-dir", str(tmp_path)])
        report = json.loads((tmp_path / f"nhs-xi_{NHS_QUARTIC.stem}.json").read_text())
        result = report["result"]
        ck.append(("nhs-xi exits 0", code == 0))
        ck.append(("lift degree 4", result["details"]["lift_degree"] == 4))
        ck.append(("all 13 checks ok", len(result["checks"]) == 13
                   and all(c["ok"] for c in result["checks"])))
        xi = Fraction(result["xi"])
        ck.append(("0 < xi < 2 and 256 xi (2 - xi)^3 > 27",
                   0 < xi < 2 and 256 * xi * (2 - xi) ** 3 > 27))
        ck.append(("runtime < 5 s", time.perf_counter() - t0 < 5.0))


def test_property_battery(capsys, sextic_pair, frac_system, frac_V, frac_dilation,
                          sextic_system, sextic_V, d2):
    with criterion(capsys, "identity, convexity, soundness, and descent battery") as ck:
        rng = np.random.default_rng(20240816)
        f, g = sextic_pair

        # homogeneity identity under both dilations
        X = rng.normal(size=(20, 2))
        eps = rng.uniform(0.2, 3.0, size=20)
        hom_ok = True
        for x, e in zip(X, eps):
            if not np.isclose(f(d2.scale(e, x)), e ** 6 * f(x), rtol=1e-9):
                hom_ok = False
        dv1 = derivative_along(frac_V, frac_system.fields[0])
        for x, e in zip(X, eps):
            if not np.isclose(dv1(frac_dilation.scale(e, x)), e ** 4 * dv1(x),
                              rtol=1e-9):
                hom_ok = False
        ck.append(("homogeneity identity", hom_ok))

        # parity classification
        odd = GP.from_terms(2, [(1, (3, 0)), (-2, (1, 2))])
        mixed = GP.from_terms(2, [(1, (2, 0)), (1, (3, 0))])
        ck.append(("parity classification",
                   f.parity() is Parity.EVEN and odd.parity() is Parity.ODD
                   and mixed.parity() is Parity.NEITHER))

        # a coefficient-vector literal is the STP form sum_m f_m x^m, x^m
        # the m-fold Kronecker power of x
        coeffs = {"6:0": -7.0, "6:7": -2.0, "6:63": 5.0, "6:3": -2.0, "0:0": -2.0}
        affine = CoeffVecPolynomial.from_json(2, coeffs).to_generalized()
        stp_ok = True
        for _ in range(10):
            x = rng.normal(size=2)
            total = 0.0
            for key, c in coeffs.items():
                m, idx = map(int, key.split(":"))
                power = reduce(np.kron, [x] * m, np.array([1.0]))
                total += c * power[idx]
            if not np.isclose(affine(x), total, rtol=1e-12, atol=1e-12):
                stp_ok = False
        ck.append(("coefficient-vector literal matches the STP defining form", stp_ok))

        # homogenization evaluates back at t = 1
        lift = homogenize(affine, 6)
        pts = rng.uniform(-2.0, 2.0, size=(50, 2))
        lift_ok = all(
            np.isclose(lift([x, y, 1.0]), affine([x, y]),
                       rtol=1e-12, atol=1e-12)
            for x, y in pts)
        ck.append(("homogenize evaluates back at t = 1", lift_ok))

        # quadratic-form images are convex: no midpoint violations
        dines_ok = True
        accepted = 0
        while accepted < 50:
            qf = quad_form(random_symmetric(rng, 2))
            qg = quad_form(random_symmetric(rng, 2))
            if SampledPair.draw(qf, qg, d2, count=512).zero_margin().margin <= 1e-3:
                continue
            accepted += 1
            pair = SampledPair.draw(qf, qg, d2, count=1024)
            if pair.convexity_probe(pair.image()):
                dines_ok = False
        ck.append(("no convexity violations for 50 quadratic pairs", dines_ok))

        # certificate soundness on fresh Gaussian directions
        cert = find_strict_multiplier(f, g, d2)
        Z = rng.normal(size=(4000, 2))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        vals = f.evaluate(Z) - cert.xi * g.evaluate(Z)
        ck.append(("strict certificate sound on fresh directions",
                   float(np.min(vals)) > 0.0))

        # simulated descent from 20 random initial states
        cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
        descent_ok = True
        for _ in range(20):
            x0 = rng.normal(size=2)
            x0 *= rng.uniform(0.6, 1.5) / np.linalg.norm(x0)
            traj = simulate_min_switching(cand, x0, t_end=2.0)
            if not (traj.v[-1] < 0.5 * traj.v[0]):
                descent_ok = False
        ck.append(("simulation descends from 20 random states", descent_ok))


def test_cli_determinism(capsys, problems_dir, tmp_path):
    with criterion(capsys, "byte-identical artifacts across repeated runs") as ck:
        hashes = {}
        for tag in ("a", "b"):
            out = tmp_path / tag
            out.mkdir()
            for argv in (
                ["shs-xi", str(problems_dir / "switch_sextic.json")],
                ["lfhd", str(problems_dir / "switch_sextic.json"),
                 "--samples", "512", "--format", "csv"],
            ):
                proc = subprocess.run(
                    [sys.executable, "-m", "slemma.cli", *argv,
                     "--out-dir", str(out)],
                    capture_output=True, text=True)
                ck.append((f"exit 0 for {argv[0]} run {tag}", proc.returncode == 0))
            for path in sorted(out.iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                hashes.setdefault(path.name, []).append(digest)
        ck.append(("three artifacts produced", len(hashes) == 3))
        same = all(len(v) == 2 and v[0] == v[1] for v in hashes.values())
        ck.append(("hashes agree between runs", same))
