"""Switched systems, Lyapunov derivative coverage, convex-combination
stabilization, and min-derivative switching simulation.

A candidate Lyapunov function V works through its derivatives along the
subsystems, one generalized polynomial per subsystem; an `LfhdCandidate`
carries them with the system they were built for.  Coverage means
that at every sampled sphere point at least one subsystem derivative is
negative; combination feasibility means the single derivative along
sum(lambda_i * f_i), which is linear in lambda, is negative everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .homog_core import (
    DEFAULT_SEED,
    Dilation,
    GeneralizedPolynomial,
    Parity,
    UsageError,
    _compile_function,
    _function_source,
    sphere_samples,
)
from .image_analysis import _default_count, _pos_threshold
from .s_lemma import (
    MultiplierCertificate,
    MultiplierFailure,
    ReasonCode,
    _check,
    _fresh_samples,
    find_strict_multiplier,
)

STATE_NORM_LIMIT = 1e6

# Rows of the simplex grid per block of `scan_combinations`: at the n = 2
# default of 4,096 samples a block of grid @ D is 512 KiB, so it stays in
# cache and its memory is reused instead of being mapped and zeroed anew.
SCAN_BLOCK = 16


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
    system: SwitchedSystem
    derivatives: tuple
    common_degree: float
    dilation: Dilation

    @classmethod
    def build(cls, V: GeneralizedPolynomial, sys: SwitchedSystem, d: Dilation):
        """Form the subsystem derivatives and check that they are even and
        homogeneous of one common degree with respect to the dilation."""
        if V.n != sys.n or d.n != sys.n:
            raise ValueError("V, system, and dilation dimensions must agree")
        derivs = tuple(derivative_along(V, f) for f in sys.fields)
        degree = None
        for i, dv in enumerate(derivs):
            if dv.is_zero:
                continue
            if dv.parity() is not Parity.EVEN:
                raise UsageError(f"derivative along subsystem {i + 1} is not even")
            k = dv.homogeneity_degree(d)
            if k is None:
                raise UsageError(
                    f"derivative along subsystem {i + 1} is not homogeneous "
                    "for the given dilation"
                )
            if degree is None:
                degree = k
            elif abs(k - degree) > 1e-9 * max(1.0, abs(degree)):
                raise UsageError("subsystem derivatives have different degrees")
        if degree is None:
            raise UsageError("all subsystem derivatives vanish identically")
        return cls(V=V, system=sys, derivatives=derivs,
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


def _derivative_samples(cand: LfhdCandidate, count: int | None, seed: int):
    """Sphere samples X of the candidate's dilation and the matrix D of
    subsystem derivatives on them, one row per subsystem."""
    d = cand.dilation
    X = sphere_samples(d, _default_count(d.n) if count is None else count, seed)
    return X, np.vstack([dv.evaluate(X) for dv in cand.derivatives])


def check_lfhd(
    cand: LfhdCandidate,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
    threshold: float | None = None,
) -> LfhdReport:
    """Coverage check: at every sphere sample some subsystem derivative is
    below -threshold.  V must first be positive definite on the samples."""
    X, D = _derivative_samples(cand, count, seed)
    params = (np.arctan2(X[:, 1], X[:, 0]) if cand.dilation.n == 2
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
        raise UsageError("grid step must be in (0, 1]")
    if N == 2:
        lam1 = np.arange(m + 1) / m
        return np.column_stack([lam1, 1.0 - lam1])
    # The compositions of m into N parts, first part slowest: each row
    # with r units left branches into r + 1 rows that take 0, ..., r next.
    head = np.zeros((1, 0), dtype=np.int64)
    left = np.array([m])
    for _ in range(N - 1):
        counts = left + 1
        parent = np.repeat(np.arange(len(left)), counts)
        take = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        head = np.column_stack([head[parent], take])
        left = left[parent] - take
    return np.column_stack([head, left]) / m


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
    X, D = _derivative_samples(cand, count, seed)
    if threshold is None:
        threshold = _pos_threshold(float(np.max(np.abs(D))))

    grid = _simplex_grid(len(cand.derivatives), grid_step)
    maxima = np.concatenate([np.max(grid[s:s + SCAN_BLOCK] @ D, axis=1)
                             for s in range(0, len(grid), SCAN_BLOCK)])

    mask = maxima < -threshold
    feasible = [ConvexCombination(row) for row in grid[mask]]
    ib = int(np.argmin(maxima))
    interval = None
    if grid.shape[1] == 2 and np.any(mask):
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
    cand: LfhdCandidate,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
):
    """Stabilizing combination for N = 2 from the strict multiplier.

    With xi > 0 and -dV1 - xi*dV2 > 0 off the origin, the weights
    lambda = (1, xi) / (1 + xi) make the combined derivative
    lambda_1 * (dV1 + xi*dV2) strictly negative.  The combination is
    re-verified on an independent sample set; a failed re-check returns a
    VERIFICATION_FAILED failure at stage "combination".
    """
    if len(cand.derivatives) != 2:
        raise UsageError("synthesis applies to systems with exactly 2 subsystems")
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
    record, failure = _check("combination_verification", worst < -thr,
                             ReasonCode.VERIFICATION_FAILED,
                             "synthesized combination failed the fresh-sample derivative check",
                             "combination", max_derivative=worst)
    if failure is not None:
        failure.checks = [*result.checks, record]
        return failure
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


def _rk4_step(comps, x: tuple, dt: float) -> tuple:
    """One RK4 step of the field `comps` through `__call__`, combined one
    component at a time in the order of the vector form
    x + (dt/6)*(k1 + 2*k2 + 2*k3 + k4)."""
    half, sixth = 0.5 * dt, dt / 6.0

    def f(xc):
        return tuple([c(xc) for c in comps])

    k1 = f(x)
    k2 = f(tuple([a + half * k for a, k in zip(x, k1)]))
    k3 = f(tuple([a + half * k for a, k in zip(x, k2)]))
    k4 = f(tuple([a + dt * k for a, k in zip(x, k3)]))
    return tuple([a + sixth * (((b1 + 2 * b2) + 2 * b3) + b4)
                  for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])


def _step_source(comps, dt: float) -> str:
    """Source of `f(x0, ..., x{n-1})`: `_rk4_step` of `comps` as straight-line
    code with the same operations in the same order."""
    n = len(comps)
    x = [f"x{i}" for i in range(n)]
    lines, args = [], x
    for s, scale in ((1, 0.5 * dt), (2, 0.5 * dt), (3, dt), (4, None)):
        lines += [f"k{s}_{i} = {c.expression(args)}" for i, c in enumerate(comps)]
        if scale is not None:
            args = [f"y{s}_{i}" for i in range(n)]
            lines += [f"y{s}_{i} = x{i} + {scale!r} * k{s}_{i}" for i in range(n)]
    sixth = dt / 6.0
    lines.append("return (" + "".join(
        f"x{i} + {sixth!r} * (((k1_{i} + 2.0 * k2_{i}) + 2.0 * k3_{i}) + k4_{i}), "
        for i in range(n)) + ")")
    return _function_source(x, lines)


def _straight_line_sources(cand: LfhdCandidate, dt: float):
    """The sources `simulate_min_switching` compiles: the RK4 step of
    each subsystem, V, and the tuple of derivatives that `pick` reads.
    Their only names are x*, y*, k* and abs; their only constants are
    `repr` of finite floats."""
    x = [f"x{i}" for i in range(cand.system.n)]
    derivs = "".join(f"{dv.expression(x)}, " for dv in cand.derivatives)
    return ([_step_source(comps, dt) for comps in cand.system.fields],
            _function_source(x, [f"return {cand.V.expression(x)}"]),
            _function_source(x, [f"return ({derivs})"]))


def simulate_min_switching(
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
    operation alike on floats and on float64 arrays.  Each subsystem's
    whole step, V and the derivative vector run as straight-line code
    from `GeneralizedPolynomial.expression`, with the same operations in
    the same order.  That code differs from `__call__` only past a zero
    factor, where it raises OverflowError or gives a value that is not
    finite; such a step or derivative vector, and a V whose code raises,
    is evaluated again through `__call__` (`_rk4_step` for a step), so
    the trajectory is the same bytes either way.
    """
    n, fields = cand.system.n, cand.system.fields
    if dt <= 0 or t_end <= 0:
        raise UsageError("dt and t_end must be positive")
    if dwell is None:
        dwell = 10.0 * dt
    if dwell <= 0:
        raise UsageError("dwell must be positive")
    dwell_steps = max(1, int(round(dwell / dt)))
    steps = int(round(t_end / dt))
    if steps < 1:
        raise UsageError(f"t_end / dt = {t_end:g} / {dt:g} rounds to no step")

    x = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError("x0 has the wrong dimension")
    x = tuple(x.tolist())

    # Below this Euclidean norm (to within an ulp) np.linalg.norm is at
    # most the limit, so it is needed only past it (or on NaN).
    norm_gate = 0.5 * STATE_NORM_LIMIT
    # Allocated before the loop so that a step count too large for memory
    # fails at once instead of after the integration; filled at the end.
    t_arr = np.empty(steps + 1)
    x_arr = np.empty((steps + 1, n))
    s_arr = np.empty(steps + 1, dtype=int)
    v_arr = np.empty(steps + 1)
    t_list, x_list, s_list, v_list = [], [], [], []
    switch_times = []

    step_sources, v_source, d_source = _straight_line_sources(cand, dt)
    fused = [_compile_function(src, lambda *xc, comps=comps: _rk4_step(comps, xc, dt))
             for src, comps in zip(step_sources, fields)]
    v_line = _compile_function(v_source, lambda *xc: cand.V(xc))
    d_line = _compile_function(
        d_source, lambda *xc: tuple([dv(xc) for dv in cand.derivatives]))

    def pick(xc):
        try:
            vals = d_line(*xc)
        except OverflowError:
            vals = (math.nan,)
        if not all(map(math.isfinite, vals)):
            return int(np.argmin([dv(xc) for dv in cand.derivatives])) + 1
        return vals.index(min(vals)) + 1

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
        # x is finite here (a step to a state that is not ends the run), so
        # straight-line code can differ from __call__ only by raising.
        try:
            v_list.append(v_line(*x))
        except OverflowError:
            v_list.append(cand.V(x))
        if j == steps:
            break
        try:
            x_new = fused[sigma - 1](*x)
        except OverflowError:
            x_new = (math.nan,)
        if not math.hypot(*x_new) <= norm_gate:
            if not all(map(math.isfinite, x_new)):
                x_new = _rk4_step(fields[sigma - 1], x, dt)
            norm = np.linalg.norm(x_new)
            if not norm <= STATE_NORM_LIMIT:
                what = (f"exceeded {STATE_NORM_LIMIT:g}" if norm > STATE_NORM_LIMIT
                        else "is not finite")
                raise DivergenceError(f"state norm {what} at t = {t + dt:.6g}")
        x = x_new
    t_arr[:], x_arr[:], s_arr[:], v_arr[:] = t_list, x_list, s_list, v_list
    return Trajectory(t=t_arr, x=x_arr, sigma=s_arr, v=v_arr,
                      dt=dt, dwell=dwell, switch_times=switch_times)
