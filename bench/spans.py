"""Spans around the public functions of the slemma modules.

The program carries no instrumentation of its own, so the traced run
wraps functions from outside.  A module-level function is replaced at
every lookup site: each slemma module that bound the same object under
the same name (``from .homog_core import sphere_samples``) gets the
wrapper, so calls through any namespace are seen.  Methods are wrapped
on their class.

A wrapper keeps per-name totals (calls, inclusive time of the outermost
occurrence, self time) and, except for the hot scalar kernels, a span
record (job, id, parent id, name, start, end).  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "problems", "homog_core", "stp_poly", "image_analysis",
           "s_lemma", "switched_systems")

# (module, class, method) wrapped on the class.  Hot methods are called
# per point and keep totals only, no span records.
METHODS = (
    ("homog_core", "GeneralizedPolynomial", "evaluate"),
    ("homog_core", "GeneralizedPolynomial", "__call__"),
    ("homog_core", "Dilation", "project"),
    ("stp_poly", "CoeffVecPolynomial", "to_generalized"),
    ("switched_systems", "LfhdCandidate", "build"),
)
HOT = {"homog_core.GeneralizedPolynomial.evaluate",
       "homog_core.GeneralizedPolynomial.__call__",
       "homog_core.Dilation.project",
       "homog_core.theta_point_scalar"}
VERDICTS = {"s_lemma.find_strict_multiplier", "s_lemma.find_nonstrict_multiplier",
            "s_lemma.find_nhs_multiplier"}


def _rows(X) -> int:
    shape = getattr(X, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Span stack, per-name totals and counters, kept in memory."""

    def __init__(self):
        self.stack: list[list] = []       # [child_seconds, span_id]
        self.depth: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.job = None
        self._next_id = 0
        self._patches: list[tuple] = []

    # ------------------------------------------------------------- spans

    def wrap(self, name: str, fn):
        hot = name in HOT
        counter = COUNTERS.get(name)
        is_verdict = name in VERDICTS
        tr = self

        def traced(*args, **kwargs):
            stack = tr.stack
            frame = [0.0, None]
            if not hot:
                tr._next_id += 1
                frame[1] = tr._next_id
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            stack.append(frame)
            tr.depth[name] += 1
            outer_verdict = is_verdict and not any(tr.depth[v] for v in VERDICTS if v != name) \
                and tr.depth[name] == 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tr.depth[name] -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tr.calls[name] += 1
                tr.self_s[name] += dur - frame[0]
                if tr.depth[name] == 0:
                    tr.incl[name] += dur
                if not hot:
                    tr.spans.append((tr.job, frame[1], parent, name, t0, t1))
            if counter is not None:
                counter(tr, args, result)
            if outer_verdict:
                tr.counts["verdicts"] += 1
                tr.counts["collisions"] += sum(
                    c.get("collisions", 0) for c in getattr(result, "checks", []))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def in_verdict(self) -> bool:
        return any(self.depth[v] for v in VERDICTS)

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        mods = {m: sys.modules[f"slemma.{m}"] for m in MODULES}
        sites = [m for k, m in sys.modules.items() if k == "slemma" or k.startswith("slemma.")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                if short == "cli" and attr != "main":
                    continue  # command handlers and writers are the CLI layer's self time
                wrapper = self.wrap(f"{short}.{attr}", obj)
                for site in sites:
                    if vars(site).get(attr) is obj:
                        self._patches.append((site, attr, obj))
                        setattr(site, attr, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self) -> None:
        for target, attr, obj in reversed(self._patches):
            setattr(target, attr, obj)
        self._patches.clear()


# ------------------------------------------------------------- counters


def _count_evaluate(tr, args, result):
    self, X = args[0], args[1]
    rows = _rows(X)
    tr.counts["evaluate.term_rows"] += rows * len(self.terms)


def _count_sphere(tr, args, result):
    tr.counts["sphere_samples.points"] += len(result)
    if tr.in_verdict():
        tr.counts["verdict_points"] += len(result)


def _count_image(tr, args, result):
    tr.counts["refinement_evals"] += result.refinement_evals


def _count_scan(tr, args, result):
    tr.counts["scan.grid_points"] += result.total_points


def _count_simulate(tr, args, result):
    tr.counts["simulate.steps"] += len(result.t) - 1


COUNTERS = {
    "homog_core.GeneralizedPolynomial.evaluate": _count_evaluate,
    "homog_core.sphere_samples": _count_sphere,
    "image_analysis.sample_image": _count_image,
    "switched_systems.scan_combinations": _count_scan,
    "switched_systems.simulate_min_switching": _count_simulate,
}


# -------------------------------------------------------- per-layer view


def parse_importtime(stderr: str) -> dict:
    """homog_core's cumulative import time and the SciPy part of it (ms),
    from `python -X importtime` output (children precede their parent)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum_us, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cum_us), name.strip()))
    out = {"homog_core.import_ms": 0.0, "homog_core.scipy_import_ms": 0.0}
    for i, (depth, cum, name) in enumerate(rows):
        if name != "slemma.homog_core":
            continue
        out["homog_core.import_ms"] = cum / 1000.0
        j = i - 1
        while j >= 0 and rows[j][0] > depth:
            d, c, n = rows[j]
            if d == depth + 1 and (n == "scipy" or n.startswith("scipy.")):
                out["homog_core.scipy_import_ms"] += c / 1000.0
            j -= 1
    return out


def layer_metrics(tr: Tracer, jobs: int, job_wall_s: float, artifact_bytes: int) -> dict:
    """The per-layer metrics, per traced job (times in ms)."""
    def ms(d, name):
        return 1000.0 * d.get(name, 0.0) / jobs

    def per(v):
        return v / jobs

    gp = "homog_core.GeneralizedPolynomial"
    verdicts = tr.counts["verdicts"]
    return {
        "homog_core.evaluate.ms": ms(tr.incl, f"{gp}.evaluate"),
        "homog_core.evaluate.calls": per(tr.calls[f"{gp}.evaluate"]),
        "homog_core.evaluate.term_rows": per(tr.counts["evaluate.term_rows"]),
        "homog_core.call.ms": ms(tr.incl, f"{gp}.__call__"),
        "homog_core.call.calls": per(tr.calls[f"{gp}.__call__"]),
        "homog_core.project.calls": per(tr.calls["homog_core.Dilation.project"]),
        "homog_core.sphere_samples.ms": ms(tr.incl, "homog_core.sphere_samples"),
        "homog_core.sphere_samples.points": per(tr.counts["sphere_samples.points"]),
        "stp_poly.homogenize.ms": ms(tr.incl, "stp_poly.homogenize"),
        "stp_poly.to_generalized.ms": ms(tr.incl, "stp_poly.CoeffVecPolynomial.to_generalized"),
        "problems.load_problem.ms": ms(tr.incl, "problems.load_problem"),
        "image_analysis.sample_image.self_ms": ms(tr.self_s, "image_analysis.sample_image"),
        "image_analysis.refinement_evals": per(tr.counts["refinement_evals"]),
        "image_analysis.zero_margin.self_ms": ms(tr.self_s, "image_analysis.zero_margin"),
        "image_analysis.convexity_probe.self_ms":
            ms(tr.self_s, "image_analysis.convexity_probe"),
        "image_analysis.mixing_curve.ms": ms(tr.incl, "image_analysis.mixing_curve"),
        "s_lemma.is_copositive.self_ms": ms(tr.self_s, "s_lemma.is_copositive"),
        "s_lemma.shs_condition.self_ms": ms(tr.self_s, "s_lemma.shs_condition"),
        "s_lemma.find_strict_multiplier.self_ms":
            ms(tr.self_s, "s_lemma.find_strict_multiplier"),
        "s_lemma.find_nonstrict_multiplier.self_ms":
            ms(tr.self_s, "s_lemma.find_nonstrict_multiplier"),
        "s_lemma.find_nhs_multiplier.self_ms": ms(tr.self_s, "s_lemma.find_nhs_multiplier"),
        "s_lemma.collisions": per(tr.counts["collisions"]),
        "s_lemma.sphere_points_per_verdict":
            tr.counts["verdict_points"] / verdicts if verdicts else 0.0,
        "switched_systems.candidate_build.ms":
            ms(tr.incl, "switched_systems.LfhdCandidate.build"),
        "switched_systems.check_lfhd.self_ms": ms(tr.self_s, "switched_systems.check_lfhd"),
        "switched_systems.synthesize_combination_n2.self_ms":
            ms(tr.self_s, "switched_systems.synthesize_combination_n2"),
        "switched_systems.scan_combinations.self_ms":
            ms(tr.self_s, "switched_systems.scan_combinations"),
        "switched_systems.scan_combinations.grid_points": per(tr.counts["scan.grid_points"]),
        "switched_systems.simulate_min_switching.self_ms":
            ms(tr.self_s, "switched_systems.simulate_min_switching"),
        "switched_systems.simulate_min_switching.steps": per(tr.counts["simulate.steps"]),
        "cli.main.self_ms": ms(tr.self_s, "cli.main"),
        "cli.artifact_bytes": per(artifact_bytes),
        "trace.coverage": tr.incl.get("cli.main", 0.0) / job_wall_s if job_wall_s else 0.0,
    }
