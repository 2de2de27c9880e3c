"""Output checks: oracles on the artifacts and an independent re-check.

Oracles mirror tests/test_acceptance.py.  The re-check recomputes
min(f - xi*g) for every exit-0 multiplier certificate with this file's
own evaluator of the problem's function literals, on its own sample set:
pseudo-random Gaussian directions pushed onto the generalized sphere,
which is neither the program's theta grid, its rotated verification
grid, nor its Halton sets.  A change that weakens the program's own
verification therefore cannot pass by issuing a weaker certificate.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

RECHECK_POINTS = 20000
NONNEG_TOL = 1e-9
SCAN_ORACLE = {"switch_sextic": (0.21, 0.39), "switch_fractional": (0.46, 0.53)}


# -------------------------------------------------------------- evaluator


class Poly:
    """Sum of c * prod |x_i|^p_i * sgn(x_i)^s_i, parsed from a problem file."""

    def __init__(self, n: int, terms: list[tuple[float, list[float], list[bool]]]):
        self.n = n
        self.coeffs = np.array([t[0] for t in terms], dtype=float)
        self.powers = np.array([t[1] for t in terms], dtype=float).reshape(-1, n)
        self.signed = np.array([t[2] for t in terms], dtype=bool).reshape(-1, n)

    @classmethod
    def parse(cls, n: int, spec) -> "Poly":
        terms = []
        if isinstance(spec, list):
            for term in spec:
                nums = [int(p["num"]) for p in term["powers"]]
                dens = [int(p.get("den", 1)) for p in term["powers"]]
                absf = term.get("abs") or [False] * n
                terms.append((float(term["coeff"]),
                              [a / b for a, b in zip(nums, dens)],
                              [a > 0 and a % 2 == 1 and not ab
                               for a, ab in zip(nums, absf)]))
        else:
            for key, c in spec["coeffs"].items():
                deg, idx = (int(v) for v in key.split(":"))
                counts = [0] * n
                for _ in range(deg):
                    counts[idx % n] += 1
                    idx //= n
                terms.append((float(c), [float(k) for k in counts],
                              [k % 2 == 1 for k in counts]))
        return cls(n, terms)

    def _factors(self, X: np.ndarray) -> np.ndarray:
        """(m, terms, n) array of the per-variable factors."""
        A = np.abs(X)[:, None, :] ** self.powers[None, :, :]
        S = np.where(self.signed[None, :, :], np.sign(X)[:, None, :], 1.0)
        return A * S

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self._factors(X).prod(axis=2) @ self.coeffs

    def partial(self, X: np.ndarray, i: int) -> np.ndarray:
        """d/dx_i: |x|^p -> p|x|^(p-1) sgn x and |x|^p sgn x -> p|x|^(p-1)."""
        F = self._factors(X)
        p = self.powers[:, i]
        xi = X[:, i][:, None]
        dfac = p[None, :] * np.abs(xi) ** np.maximum(p[None, :] - 1.0, 0.0)
        dfac = np.where(self.signed[None, :, i], dfac, dfac * np.sign(xi))
        dfac = np.where(p[None, :] > 0, dfac, 0.0)
        F[:, :, i] = dfac
        return F.prod(axis=2) @ self.coeffs


class ProblemFile:
    def __init__(self, path: Path):
        raw = json.loads(Path(path).read_text())
        self.n = len(raw["variables"])
        dil = raw.get("dilation") or {}
        self.weights = np.array(dil.get("weights", [1.0] * self.n), dtype=float)
        self.l = float(dil.get("l", 2.0))
        self.functions = {k: Poly.parse(self.n, v) for k, v in raw["functions"].items()}
        self.systems = {k: v["fields"] for k, v in (raw.get("systems") or {}).items()}
        self.lyapunov = dict(raw.get("lyapunov") or {})

    def sphere(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Gaussian directions moved along dilation orbits onto the sphere."""
        Z = rng.standard_normal((count, self.n))
        rad = np.sum(np.abs(Z) ** (self.l / self.weights), axis=1)
        eps = rad ** (-1.0 / self.l)
        return eps[:, None] ** self.weights[None, :] * Z

    def derivatives(self, X: np.ndarray) -> list[np.ndarray]:
        """dV/dt along each subsystem of the single system."""
        (fields,) = self.systems.values()
        V = self.functions[next(iter(self.lyapunov.values()))]
        grad = [V.partial(X, i) for i in range(self.n)]
        return [sum(gi * self.functions[name](X) for gi, name in zip(grad, comps))
                for comps in fields]


# ---------------------------------------------------------------- re-check


def recheck(kind: str, problem: Path, result: dict, seed: int) -> tuple[bool, str]:
    """Independent verification of an exit-0 certificate."""
    pf = ProblemFile(problem)
    rng = np.random.default_rng([seed, 0x5EED])
    if kind == "nhs":
        radius = float(result["details"]["box_radius"])
        dirs = rng.standard_normal((RECHECK_POINTS, pf.n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.exp(rng.uniform(math.log(1e-3), math.log(radius), RECHECK_POINTS))
        X = np.vstack([np.zeros((1, pf.n)), dirs * radii[:, None]])
        vals = pf.functions["f"](X) - result["xi"] * pf.functions["g"](X)
        tol = NONNEG_TOL * max(1.0, float(np.max(np.abs(vals))))
        m = float(np.min(vals))
        return m >= -tol, f"min(f - xi g) on the box = {m:.6g} (tol {tol:.3g})"

    X = pf.sphere(rng, RECHECK_POINTS)
    if kind == "combo":
        D1, D2 = pf.derivatives(X)
        lam = result["lambdas"]
        worst = float(np.max(lam[0] * D1 + lam[1] * D2))
        xi = result["certificate"]["xi"]
        m = float(np.min(-D1 - xi * D2))
        ok = worst < 0.0 and m > 0.0
        return ok, f"max combined dV = {worst:.6g}, min(-dV1 - xi dV2) = {m:.6g}"

    F, G = pf.functions["f"](X), pf.functions["g"](X)
    xi = result["xi"]
    m = float(np.min(F - xi * G))
    if kind == "strict":
        return m > 0.0, f"min(f - xi g) = {m:.6g}, strict"
    tol = NONNEG_TOL * max(1.0, float(np.max(np.abs(F)) + abs(xi) * np.max(np.abs(G))))
    return m >= -tol, f"min(f - xi g) = {m:.6g} (tol {tol:.3g})"


# ----------------------------------------------------------------- oracles


def _within_mod_pi(a: float, b: float, tol: float) -> bool:
    h = abs(a - b) % math.pi
    return min(h, math.pi - h) <= tol


def _interval_oracle(problem: str):
    lo, hi = SCAN_ORACLE[problem]

    def check(res, files):
        iv = res.get("interval")
        return bool(iv) and iv[0] <= lo and iv[1] >= hi, f"interval {iv} vs [{lo}, {hi}]"
    return check


def _synth(res, files):
    lam = res.get("lambdas") or [math.nan, math.nan]
    lo, hi = SCAN_ORACLE[files["problem"]]
    ok = (abs(sum(lam) - 1.0) <= 1e-12 and lo <= lam[0] <= hi
          and res.get("max_derivative", 0.0) < 0.0)
    return ok, f"lambda {lam} vs lambda_1 in [{lo}, {hi}]"


def _cubic(res, files):
    targets = (math.atan(0.5), math.atan(7.0 / 6.0))
    angles = res.get("boundary_angles", [])
    each = all(any(_within_mod_pi(a, t, 0.02) for t in targets) for a in angles)
    both = all(any(_within_mod_pi(a, t, 0.02) for a in angles) for t in targets)
    mid = any(abs(v["midpoint"][0]) <= 1e-9 and abs(v["midpoint"][1] - 0.25) <= 1e-9
              for v in res.get("convexity_violations", []))
    return each and both and mid, f"boundary angles {angles}, midpoint (0, 1/4) {mid}"


def _v_decreasing(res, files):
    ok = res.get("v_final", math.inf) < res.get("v_initial", -math.inf)
    detail = f"V {res.get('v_initial')} -> {res.get('v_final')}"
    for path in files["csv"]:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        body = rows[1:]
        ok = ok and len(body) == res["steps"] + 1 and float(body[-1][-1]) < float(body[0][-1])
        detail += f"; csv {len(body)} rows"
    return ok, detail


def _phi(lo: float, hi: float, closed=(True, True)):
    def check(res, files):
        phi = res.get("phi", math.nan)
        ok = ((lo <= phi) if closed[0] else (lo < phi)) and \
             ((phi <= hi) if closed[1] else (phi < hi))
        return ok, f"phi = {phi / math.pi:.6f} pi"
    return check


ORACLES = {
    "xi_sextic": lambda r, f: (r.get("ok") is True and abs(r["xi"] - 2.6476) <= 1e-3
                               and r["margin"] >= 0.75,
                               f"xi = {r.get('xi')}, margin = {r.get('margin')}"),
    "scan_sextic": _interval_oracle("switch_sextic"),
    "scan_fractional": _interval_oracle("switch_fractional"),
    "scan_empty": lambda r, f: (r.get("feasible_count") == 0,
                                f"{r.get('feasible_count')} feasible points"),
    "synth_weights": _synth,
    "honest_reason": lambda r, f: (r.get("reason") in ("COMMON_ZERO", "SECTOR_GE_PI"),
                                   f"reason {r.get('reason')}"),
    "phi_pi": _phi(math.pi - 0.05, math.pi + 0.05),
    "phi_quartic_wide": _phi(math.pi, 1.5 * math.pi, (False, False)),
    "phi_sextic_wide": _phi(1.5 * math.pi, 2.0 * math.pi, (False, False)),
    "phi_full": _phi(2.0 * math.pi - 1e-9, 2.0 * math.pi + 1e-9),
    "phi_below_pi": _phi(0.0, math.pi, (True, False)),
    "cubic_geometry": _cubic,
    "curve_closed": lambda r, f: (max(abs(a - b) for a, b in zip(r["start"], r["end"]))
                                  <= 1e-12, f"start {r['start']} end {r['end']}"),
    "v_decreasing": _v_decreasing,
}


def check_job(job: dict, out_dir: Path, seed: int) -> list[str]:
    """Oracle and re-check failures for one job's artifacts ([] if none)."""
    reports = sorted(out_dir.glob("*.json"))
    if len(reports) != 1:
        return [f"expected one JSON report, found {len(reports)}"]
    res = json.loads(reports[0].read_text())["result"]
    files = {"csv": sorted(out_dir.glob("*.csv")), "problem": Path(job["argv"][1]).stem}
    failures = []
    for name in job["oracles"]:
        try:
            ok, detail = ORACLES[name](res, files)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            ok, detail = False, f"malformed artifact: {e!r}"
        if not ok:
            failures.append(f"oracle {name}: {detail}")
    if job["recheck"]:
        try:
            if res.get("ok") is not True:
                ok, detail = False, "the report holds no certificate"
            else:
                ok, detail = recheck(job["recheck"], Path(job["argv"][1]), res, seed)
        except (KeyError, TypeError, ValueError) as e:
            ok, detail = False, f"malformed artifact: {e!r}"
        if not ok:
            failures.append(f"re-check {job['recheck']}: {detail}")
    return failures
