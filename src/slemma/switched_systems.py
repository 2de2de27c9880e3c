"""Switched systems, Lyapunov derivative coverage, convex-combination
stabilization, and min-derivative switching simulation.

A candidate Lyapunov function V works through its derivatives along the
subsystems, one generalized polynomial per subsystem.  Coverage means
that at every sampled sphere point at least one subsystem derivative is
negative; combination feasibility means the single derivative along
sum(lambda_i * f_i), which is linear in lambda, is negative everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .homog_core import (
    DEFAULT_SEED,
    Dilation,
    GeneralizedPolynomial,
    Parity,
    sphere_samples,
)
from .image_analysis import _default_count, _pos_threshold
from .s_lemma import (
    MultiplierCertificate,
    MultiplierFailure,
    VerificationError,
    _fresh_samples,
    find_strict_multiplier,
)

STATE_NORM_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """A simulated trajectory left the norm ball of radius 1e6 or its state
    stopped being finite."""


# ------------------------------------------------------------------- types


@dataclass(frozen=True)
class SwitchedSystem:
    n: int
    fields: tuple

    def __init__(self, fields):
        flds = tuple(tuple(comps) for comps in fields)
        if len(flds) < 2:
            raise ValueError("a switched system needs at least 2 subsystems")
        n = len(flds[0])
        for comps in flds:
            if len(comps) != n:
                raise ValueError("all subsystems must share the state dimension")
            for c in comps:
                if c.n != n:
                    raise ValueError("component dimension mismatch")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "fields", flds)

    @property
    def count(self) -> int:
        return len(self.fields)


def derivative_along(V: GeneralizedPolynomial, field) -> GeneralizedPolynomial:
    """Derivative of V along the vector field: sum_i dV/dx_i * f_i."""
    comps = list(field)
    if len(comps) != V.n:
        raise ValueError("field dimension must match V")
    grad = V.gradient()
    out = GeneralizedPolynomial.zero(V.n)
    for gi, fi in zip(grad, comps):
        out = out + gi * fi
    return out


@dataclass(frozen=True)
class LfhdCandidate:
    V: GeneralizedPolynomial
    grad_V: tuple
    derivatives: tuple
    common_degree: float
    dilation: Dilation

    @classmethod
    def build(cls, V: GeneralizedPolynomial, sys: SwitchedSystem, d: Dilation):
        """Form the subsystem derivatives and check that they are even and
        homogeneous of one common degree with respect to the dilation."""
        if V.n != sys.n or d.n != sys.n:
            raise ValueError("V, system, and dilation dimensions must agree")
        grad = tuple(V.gradient())
        derivs = tuple(derivative_along(V, f) for f in sys.fields)
        degree = None
        for i, dv in enumerate(derivs):
            if dv.is_zero:
                continue
            if dv.parity() is not Parity.EVEN:
                raise ValueError(f"derivative along subsystem {i + 1} is not even")
            k = dv.homogeneity_degree(d)
            if k is None:
                raise ValueError(
                    f"derivative along subsystem {i + 1} is not homogeneous "
                    "for the given dilation"
                )
            if degree is None:
                degree = k
            elif abs(k - degree) > 1e-9 * max(1.0, abs(degree)):
                raise ValueError("subsystem derivatives have different degrees")
        if degree is None:
            raise ValueError("all subsystem derivatives vanish identically")
        return cls(V=V, grad_V=grad, derivatives=derivs,
                   common_degree=float(degree), dilation=d)


@dataclass(frozen=True)
class ConvexCombination:
    lambdas: tuple

    def __init__(self, lambdas):
        lam = tuple(float(v) for v in lambdas)
        if any(v < -1e-12 for v in lam):
            raise ValueError("combination weights must be nonnegative")
        if abs(sum(lam) - 1.0) > 1e-9:
            raise ValueError("combination weights must sum to 1")
        object.__setattr__(self, "lambdas", lam)

    def __iter__(self):
        return iter(self.lambdas)

    def __getitem__(self, i):
        return self.lambdas[i]

    def __len__(self):
        return len(self.lambdas)

    def to_list(self) -> list:
        return list(self.lambdas)


# ---------------------------------------------------------------- coverage


@dataclass
class LfhdReport:
    covered: bool
    status: str
    v_min: float
    coverage_margin: float | None
    uncovered_indices: np.ndarray
    argmin: np.ndarray
    min_values: np.ndarray
    params: np.ndarray
    threshold: float
    sample_count: int
    seed: int

    def region_rows(self):
        """Rows (param, argmin subsystem 1-based, min derivative value):
        the stable-region mask data."""
        for p, a, v in zip(self.params, self.argmin, self.min_values):
            yield float(p), int(a), float(v)


def _derivative_matrix(cand: LfhdCandidate, X: np.ndarray) -> np.ndarray:
    return np.vstack([dv.evaluate(X) for dv in cand.derivatives])


def check_lfhd(
    sys: SwitchedSystem,
    cand: LfhdCandidate,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
    threshold: float | None = None,
) -> LfhdReport:
    """Coverage check: at every sphere sample some subsystem derivative is
    below -threshold.  V must first be positive definite on the samples."""
    if len(cand.derivatives) != sys.count:
        raise ValueError("candidate was built for a different system")
    d = cand.dilation
    if count is None:
        count = _default_count(d.n)
    X = sphere_samples(d, count, seed)
    params = (np.arctan2(X[:, 1], X[:, 0]) if d.n == 2
              else np.arange(len(X), dtype=float))

    Vvals = cand.V.evaluate(X)
    v_min = float(np.min(Vvals))
    v_thr = _pos_threshold(float(np.max(np.abs(Vvals))))
    if v_min <= v_thr:
        return LfhdReport(
            covered=False, status="v_not_positive_definite", v_min=v_min,
            coverage_margin=None, uncovered_indices=np.arange(len(X)),
            argmin=np.zeros(len(X), dtype=int), min_values=Vvals,
            params=params, threshold=v_thr, sample_count=len(X), seed=seed,
        )

    D = _derivative_matrix(cand, X)
    if threshold is None:
        threshold = _pos_threshold(float(np.max(np.abs(D))))
    min_values = np.min(D, axis=0)
    argmin = np.argmin(D, axis=0) + 1
    uncovered = np.nonzero(min_values >= -threshold)[0]
    covered = len(uncovered) == 0
    return LfhdReport(
        covered=covered,
        status="covered" if covered else "uncovered",
        v_min=v_min,
        coverage_margin=float(-np.max(min_values)),
        uncovered_indices=uncovered,
        argmin=argmin,
        min_values=min_values,
        params=params,
        threshold=threshold,
        sample_count=len(X),
        seed=seed,
    )


# ------------------------------------------------------------ simplex scan


def _simplex_grid(N: int, step: float) -> np.ndarray:
    m = int(round(1.0 / step))
    if m < 1:
        raise ValueError("grid step must be in (0, 1]")
    if N == 2:
        lam1 = np.arange(m + 1) / m
        return np.column_stack([lam1, 1.0 - lam1])
    rows = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            rows.append(prefix + [remaining / m])
            return
        for i in range(remaining + 1):
            rec(prefix + [i / m], remaining - i, slots - 1)

    rec([], m, N)
    return np.array(rows)


@dataclass
class ScanResult:
    feasible: list
    interval: tuple | None
    best_lambda: ConvexCombination
    best_value: float
    grid_step: float
    threshold: float
    total_points: int
    sample_count: int
    seed: int


def scan_combinations(
    sys: SwitchedSystem,
    cand: LfhdCandidate,
    grid_step: float = 0.01,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
    threshold: float | None = None,
) -> ScanResult:
    """Grid the simplex and keep combinations whose derivative is negative
    at every sphere sample.

    The derivative along sum(lambda_i f_i) equals sum(lambda_i * D_i) by
    linearity, so the whole scan is one matrix product between the grid
    and the per-subsystem derivative samples.
    """
    if len(cand.derivatives) != sys.count:
        raise ValueError("candidate was built for a different system")
    d = cand.dilation
    if count is None:
        count = _default_count(d.n)
    X = sphere_samples(d, count, seed)
    D = _derivative_matrix(cand, X)
    if threshold is None:
        threshold = _pos_threshold(float(np.max(np.abs(D))))

    grid = _simplex_grid(sys.count, grid_step)
    maxima = np.concatenate([np.max(grid[s:s + 512] @ D, axis=1)
                             for s in range(0, len(grid), 512)])

    mask = maxima < -threshold
    feasible = [ConvexCombination(row) for row in grid[mask]]
    ib = int(np.argmin(maxima))
    interval = None
    if sys.count == 2 and np.any(mask):
        lam1 = grid[mask][:, 0]
        interval = (float(np.min(lam1)), float(np.max(lam1)))
    return ScanResult(
        feasible=feasible,
        interval=interval,
        best_lambda=ConvexCombination(grid[ib]),
        best_value=float(maxima[ib]),
        grid_step=grid_step,
        threshold=threshold,
        total_points=len(grid),
        sample_count=len(X),
        seed=seed,
    )


# ----------------------------------------------------------------- synthesis


@dataclass
class SynthesisResult:
    combination: ConvexCombination
    certificate: MultiplierCertificate
    max_derivative: float
    threshold: float
    ok: bool = True


def synthesize_combination_n2(
    sys: SwitchedSystem,
    cand: LfhdCandidate,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
):
    """Stabilizing combination for N = 2 from the strict multiplier.

    With xi > 0 and -dV1 - xi*dV2 > 0 off the origin, the weights
    lambda = (1, xi) / (1 + xi) make the combined derivative
    lambda_1 * (dV1 + xi*dV2) strictly negative.  The combination is
    re-verified on an independent sample set before returning.
    """
    if sys.count != 2:
        raise ValueError("synthesis applies to systems with exactly 2 subsystems")
    if len(cand.derivatives) != 2:
        raise ValueError("candidate was built for a different system")
    f = -cand.derivatives[0]
    g = cand.derivatives[1]
    result = find_strict_multiplier(f, g, cand.dilation, count=count, seed=seed)
    if isinstance(result, MultiplierFailure):
        return result

    xi = result.xi
    lam = ConvexCombination((1.0 / (1.0 + xi), xi / (1.0 + xi)))
    d = cand.dilation
    if count is None:
        count = _default_count(d.n)
    Xv = _fresh_samples(d, count, seed + 1)
    vals = lam[0] * cand.derivatives[0].evaluate(Xv) + lam[1] * cand.derivatives[1].evaluate(Xv)
    thr = _pos_threshold(float(np.max(np.abs(vals))))
    worst = float(np.max(vals))
    if worst >= -thr:
        raise VerificationError(
            "synthesized combination failed the fresh-sample derivative check"
        )
    return SynthesisResult(
        combination=lam,
        certificate=result,
        max_derivative=worst,
        threshold=thr,
    )


# --------------------------------------------------------------- eigencheck


def linear_combination_eigencheck(matrices, lambdas) -> float:
    """Largest eigenvalue of the symmetric part of A = sum(lambda_i A_i).

    Negative return certifies quadratic Lyapunov decrease of x'x along
    the combined linear system.
    """
    mats = [np.asarray(a, dtype=float) for a in matrices]
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[0]
    for a in mats:
        if a.shape != (n, n):
            raise ValueError("matrices must be square and of equal size")
    lam = list(lambdas)
    if len(lam) != len(mats):
        raise ValueError("one weight per matrix is required")
    A = sum(l * a for l, a in zip(lam, mats))
    S = (A + A.T) / 2.0
    return float(np.max(np.linalg.eigvalsh(S)))


def linear_matrix(field) -> np.ndarray:
    """Extract the matrix of a linear vector field given as generalized
    polynomial components; raises if any component is not linear."""
    comps = list(field)
    n = comps[0].n
    A = np.zeros((n, n))
    for i, comp in enumerate(comps):
        for (powers, signed), c in comp.terms.items():
            active = [j for j, p in enumerate(powers) if p != 0]
            if len(active) != 1:
                raise ValueError("component is not linear")
            j = active[0]
            if powers[j] != 1 or not signed[j]:
                raise ValueError("component is not linear")
            A[i, j] = c
    return A


# --------------------------------------------------------------- simulation


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    dt: float
    dwell: float
    switch_times: list = field(default_factory=list)

    def rows(self):
        for t, x, sigma, v in zip(self.t.tolist(), self.x.tolist(),
                                  self.sigma.tolist(), self.v.tolist()):
            yield (t, *x, sigma, v)


def _field_value(comps, x: tuple) -> tuple:
    return tuple([c(x) for c in comps])


def simulate_min_switching(
    sys: SwitchedSystem,
    cand: LfhdCandidate,
    x0,
    dt: float = 1e-3,
    t_end: float = 10.0,
    dwell: float | None = None,
) -> Trajectory:
    """Fixed-step RK4 under min-derivative switching with a dwell time.

    The active subsystem is argmin_i of the derivative of V along f_i at
    the current state, re-evaluated once per dwell period (default ten
    steps); first index wins ties.  A state that leaves the norm ball of
    radius STATE_NORM_LIMIT, or is no longer finite, raises
    DivergenceError.

    The state and the stages are tuples of Python floats, combined one
    component at a time in the order of the vector form
    x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4); IEEE `+` and `*` round each
    operation alike on floats and on float64 arrays.
    """
    if len(cand.derivatives) != sys.count:
        raise ValueError("candidate was built for a different system")
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if dwell is None:
        dwell = 10.0 * dt
    if dwell <= 0:
        raise ValueError("dwell must be positive")
    dwell_steps = max(1, int(round(dwell / dt)))
    steps = int(round(t_end / dt))

    x = np.array(x0, dtype=float)
    if x.shape != (sys.n,):
        raise ValueError("x0 has the wrong dimension")
    x = tuple(x.tolist())

    half, sixth = 0.5 * dt, dt / 6.0
    # Below this bound in every coordinate the norm is at most half the
    # limit, so np.linalg.norm is needed only past it (or on NaN).
    coord_bound = STATE_NORM_LIMIT / (2 * sys.n)
    # Allocated before the loop so that a step count too large for memory
    # fails at once instead of after the integration; filled at the end.
    t_arr = np.empty(steps + 1)
    x_arr = np.empty((steps + 1, sys.n))
    s_arr = np.empty(steps + 1, dtype=int)
    v_arr = np.empty(steps + 1)
    t_list, x_list, s_list, v_list = [], [], [], []
    switch_times = []

    def pick(xc):
        vals = [dv(xc) for dv in cand.derivatives]
        return int(np.argmin(vals)) + 1

    sigma = pick(x)
    for j in range(steps + 1):
        t = j * dt
        if j > 0 and j % dwell_steps == 0:
            new_sigma = pick(x)
            if new_sigma != sigma:
                switch_times.append(t)
            sigma = new_sigma
        t_list.append(t)
        x_list.append(x)
        s_list.append(sigma)
        v_list.append(cand.V(x))
        if j == steps:
            break
        comps = sys.fields[sigma - 1]
        k1 = _field_value(comps, x)
        k2 = _field_value(comps, tuple([a + half * k for a, k in zip(x, k1)]))
        k3 = _field_value(comps, tuple([a + half * k for a, k in zip(x, k2)]))
        k4 = _field_value(comps, tuple([a + dt * k for a, k in zip(x, k3)]))
        x = tuple([a + sixth * (((b1 + 2 * b2) + 2 * b3) + b4)
                   for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
        if not all(abs(c) <= coord_bound for c in x):
            norm = np.linalg.norm(x)
            if not norm <= STATE_NORM_LIMIT:
                what = (f"exceeded {STATE_NORM_LIMIT:g}" if norm > STATE_NORM_LIMIT
                        else "is not finite")
                raise DivergenceError(f"state norm {what} at t = {t + dt:.6g}")
    t_arr[:], x_arr[:], s_arr[:], v_arr[:] = t_list, x_list, s_list, v_list
    return Trajectory(t=t_arr, x=x_arr, sigma=s_arr, v=v_arr,
                      dt=dt, dwell=dwell, switch_times=switch_times)
