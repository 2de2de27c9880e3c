"""Coverage checks, simplex scans, synthesis, eigenchecks, and simulation."""

import ast
import itertools
import math
import re
import types
from fractions import Fraction

import numpy as np
import pytest

from slemma import (
    DivergenceError,
    GeneralizedPolynomial,
    LfhdCandidate,
    SwitchedSystem,
    check_lfhd,
    derivative_along,
    linear_combination_eigencheck,
    linear_matrix,
    scan_combinations,
    simulate_min_switching,
    synthesize_combination_n2,
)
from slemma.homog_core import _compile_function
from slemma.image_analysis import _midpoint_source
from slemma.problems import load_problem
from slemma.switched_systems import (
    SCAN_BLOCK,
    STATE_NORM_LIMIT,
    _rk4_step,
    _scan_lower_bounds,
    _simplex_grid,
    _straight_line_sources,
)

GP = GeneralizedPolynomial


# -------------------------------------------------------- derivative algebra


def test_derivative_along_sextic_fields(sextic_system, sextic_V, sextic_pair):
    dv1 = derivative_along(sextic_V, sextic_system.fields[0])
    dv2 = derivative_along(sextic_V, sextic_system.fields[1])
    f, g = sextic_pair
    assert (dv1 + f).is_zero  # f is the negated first derivative
    assert (dv2 - g).is_zero


def test_derivative_along_fractional_fields(frac_system, frac_V):
    dv1 = derivative_along(frac_V, frac_system.fields[0])
    expected1 = GP.from_terms(2, [(-16, ((4, 3), 0)), (8, ((2, 3), 2)), (8, (0, 4))])
    assert (dv1 - expected1).is_zero
    dv2 = derivative_along(frac_V, frac_system.fields[1])
    expected2 = GP.from_terms(2, [(8, ((4, 3), 0)), (4, ((2, 3), 2)), (-16, (0, 4))])
    assert (dv2 - expected2).is_zero


def test_derivative_is_linear_in_the_field(sextic_system, sextic_V):
    rng = np.random.default_rng(61)
    f1, f2 = sextic_system.fields
    lam = 0.3173
    mixed = tuple(lam * a + (1.0 - lam) * b for a, b in zip(f1, f2))
    dv_mix = derivative_along(sextic_V, mixed)
    dv1 = derivative_along(sextic_V, f1)
    dv2 = derivative_along(sextic_V, f2)
    X = rng.normal(size=(50, 2))
    lhs = dv_mix.evaluate(X)
    rhs = lam * dv1.evaluate(X) + (1.0 - lam) * dv2.evaluate(X)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


def test_system_needs_two_subsystems(sextic_system):
    with pytest.raises(ValueError):
        SwitchedSystem((sextic_system.fields[0],))


def test_candidate_rejects_odd_derivatives(sextic_system, d2):
    V = GP.from_terms(2, [(1, (3, 0)), (1, (0, 3))])
    with pytest.raises(ValueError):
        LfhdCandidate.build(V, sextic_system, d2)


def test_candidate_rejects_degree_mismatch():
    from slemma import Dilation

    lin = (GP.from_terms(2, [(-1, (1, 0))]), GP.from_terms(2, [(-1, (0, 1))]))
    cub = (GP.from_terms(2, [(-1, (3, 0))]), GP.from_terms(2, [(-1, (0, 3))]))
    sys = SwitchedSystem((lin, cub))
    V = GP.from_terms(2, [(0.5, (2, 0)), (0.5, (0, 2))])
    with pytest.raises(ValueError):
        LfhdCandidate.build(V, sys, Dilation.standard(2))


# ------------------------------------------------------------------ coverage


def test_sextic_coverage(sextic_system, sextic_V, d2):
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    assert cand.system is sextic_system
    assert cand.common_degree == pytest.approx(6.0)
    rep = check_lfhd(cand)
    assert rep.covered and rep.status == "covered"
    assert rep.v_min > 0
    assert rep.coverage_margin > 0
    assert len(rep.uncovered_indices) == 0
    assert set(np.unique(rep.argmin)) <= {1, 2}


def test_fractional_coverage(frac_system, frac_V, frac_dilation):
    cand = LfhdCandidate.build(frac_V, frac_system, frac_dilation)
    assert cand.common_degree == pytest.approx(4.0)
    rep = check_lfhd(cand)
    assert rep.covered
    assert rep.coverage_margin == pytest.approx(0.5226, abs=0.01)


def test_three_linear_coverage(linear3_system, norm_V, d2):
    cand = LfhdCandidate.build(norm_V, linear3_system, d2)
    rep = check_lfhd(cand)
    assert rep.covered
    assert rep.coverage_margin > 0.3


def test_uncovered_system(d2):
    up = (GP.from_terms(2, [(1, (1, 0))]), GP.from_terms(2, [(1, (0, 1))]))
    sys = SwitchedSystem((up, up))
    V = GP.from_terms(2, [(0.5, (2, 0)), (0.5, (0, 2))])
    cand = LfhdCandidate.build(V, sys, d2)
    rep = check_lfhd(cand)
    assert not rep.covered and rep.status == "uncovered"
    assert len(rep.uncovered_indices) == rep.sample_count


def test_indefinite_v_is_rejected(sextic_system, d2):
    V = GP.from_terms(2, [(0.25, (4, 0)), (-0.25, (0, 4))])
    cand = LfhdCandidate.build(V, sextic_system, d2)
    rep = check_lfhd(cand)
    assert not rep.covered
    assert rep.status == "v_not_positive_definite"


def test_region_rows_shape(sextic_system, sextic_V, d2):
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    rep = check_lfhd(cand, count=64)
    rows = list(rep.region_rows())
    assert len(rows) == 64
    for p, a, v in rows:
        assert a in (1, 2)
        assert isinstance(p, float) and isinstance(v, float)


# ---------------------------------------------------------------- the simplex


def test_simplex_grid_two_and_three():
    g2 = _simplex_grid(2, 0.5)
    assert np.allclose(g2, [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    g3 = _simplex_grid(3, 0.01)
    assert g3.shape == (5151, 3)
    assert np.allclose(g3.sum(axis=1), 1.0)
    assert (g3 >= 0).all()


def _recursive_simplex_grid(N, step):
    """The N >= 3 grid as a recursion over the first part, each entry
    i / m on Python ints: the reference `_simplex_grid` matches bytewise."""
    m = int(round(1.0 / step))
    rows = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            rows.append(prefix + [remaining / m])
            return
        for i in range(remaining + 1):
            rec(prefix + [i / m], remaining - i, slots - 1)

    rec([], m, N)
    return np.array(rows)


@pytest.mark.parametrize("N,step", [(3, 1.0), (3, 1 / 3), (3, 0.01), (3, 0.005),
                                    (4, 0.25), (4, 0.02), (5, 0.05), (6, 0.2)])
def test_simplex_grid_matches_the_recursive_build(N, step):
    got, want = _simplex_grid(N, step), _recursive_simplex_grid(N, step)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------- scans


def test_sextic_scan_interval(sextic_system, sextic_V, d2):
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    res = scan_combinations(cand, grid_step=0.005)
    assert len(res.feasible) > 0
    lo, hi = res.interval
    assert lo == pytest.approx(0.17, abs=1e-12)
    assert hi == pytest.approx(0.41, abs=1e-12)
    assert lo <= 0.21 and hi >= 0.39
    assert res.best_value < 0


def test_fractional_scan_interval(frac_system, frac_V, frac_dilation):
    cand = LfhdCandidate.build(frac_V, frac_system, frac_dilation)
    res = scan_combinations(cand, grid_step=0.01)
    lo, hi = res.interval
    assert lo == pytest.approx(0.38, abs=1e-12)
    assert hi == pytest.approx(0.60, abs=1e-12)
    assert lo <= 0.46 and hi >= 0.53


def test_three_linear_scan_is_empty(linear3_system, norm_V, d2):
    cand = LfhdCandidate.build(norm_V, linear3_system, d2)
    res = scan_combinations(cand, grid_step=0.01)
    assert res.feasible.shape == (0, 3)
    assert res.interval is None
    assert res.total_points == 5151
    assert res.best_value > 0


def _full_scan(grid, D, threshold):
    """The scan without a bound: every block's product, its feasible mask,
    first argmin and best value."""
    maxima = np.concatenate([np.max(grid[s:s + SCAN_BLOCK] @ D, axis=1)
                             for s in range(0, len(grid), SCAN_BLOCK)])
    ib = int(np.argmin(maxima))
    return maxima < -threshold, ib, maxima[ib]


def _planted_tie():
    """N = 2 derivative samples whose maximum along (lambda, 1 - lambda) is
    -1 exactly at lambda = 31/64 and 32/64, in two blocks of the 1/64 grid,
    and above -1 elsewhere; every product is exact."""
    rng = np.random.default_rng(11)
    D = -2.0 - np.abs(rng.normal(size=(2, 4096)))
    D[:, rng.choice(4096, 3, replace=False)] = [[-34.0, 31.0, -1.0], [30.0, -33.0, -1.0]]
    return D


def _smooth(rng, N, shift=0.0):
    """N rows of samples like a planar candidate's derivatives: random even
    trigonometric polynomials of degree 6 at 4,096 angles, plus shift."""
    theta = np.arange(4096) * (2 * np.pi / 4096)
    harmonics = np.array([[2.0], [4.0], [6.0]]) * theta
    return rng.normal(size=(N, 6)) @ np.vstack([np.cos(harmonics), np.sin(harmonics)]) + shift


def _scan_inputs():
    """(id, D, grid step, threshold or None) for the pruned-scan check."""
    rng = np.random.default_rng(2024)
    yield "N=2", _smooth(rng, 2), 0.001, None
    yield "N=3", _smooth(rng, 3), 0.005, None
    yield "N=4", _smooth(rng, 4), 0.05, None
    yield "N=3 feasible", _smooth(rng, 3, -1.5), 0.005, None
    yield "N=3 normal", rng.normal(size=(3, 4096)), 0.01, None
    half = _smooth(rng, 3, -0.5)[:, :2048]
    yield "duplicate columns", np.repeat(half, 2, axis=1), 0.01, None
    yield "antipodal-equal columns", np.tile(half, 2), 0.01, None
    yield "planted tie", _planted_tie(), 1 / 64, None
    yield "all feasible", _smooth(rng, 3, -20.0), 0.01, None
    shifted = _smooth(rng, 3, -2.5)
    for threshold in (-0.5, 0.0, 0.25, 0.5, 1.0):
        yield f"threshold {threshold}", shifted, 0.01, threshold
    small = _smooth(rng, 3)
    yield "subnormal", small * 2.0**-1060, 0.01, None
    yield "large", small * (1.9 * 2.0**1022 / np.max(np.abs(small))), 0.01, None
    yield "near overflow", small * (1.5 * 2.0**1023 / np.max(np.abs(small))), 0.01, None
    with_nan, with_inf = _smooth(rng, 3), _smooth(rng, 3)
    with_nan[1, 100] = np.nan
    with_inf[0, 7] = np.inf
    yield "nan", with_nan, 0.01, None
    yield "inf", with_inf, 0.01, None


@pytest.mark.parametrize("D, step, threshold",
                         [pytest.param(*case[1:], id=case[0]) for case in _scan_inputs()])
def test_pruned_scan_matches_the_full_scan(monkeypatch, D, step, threshold):
    N = D.shape[0]
    monkeypatch.setattr("slemma.switched_systems._derivative_samples",
                        lambda cand, count, seed: (np.zeros((D.shape[1], 2)), D))
    with np.errstate(all="ignore"):
        res = scan_combinations(types.SimpleNamespace(derivatives=(None,) * N),
                                grid_step=step, threshold=threshold)
        grid = _simplex_grid(N, step)
        mask, ib, best = _full_scan(grid, D, res.threshold)
    assert res.feasible.shape == grid[mask].shape
    assert res.feasible.tobytes() == grid[mask].tobytes()
    assert res.best_lambda.tobytes() == grid[ib].tobytes()
    assert np.float64(res.best_value).tobytes() == best.tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e300, 2.0**-1070])
def test_scan_bound_is_below_the_maximum_in_every_summation_order(scale):
    # every column the same, so the strided columns hold each row's maximum
    d = np.random.default_rng(5).normal(size=3) * [1.0, 3e-3, 7e2]
    D = np.repeat((d / np.max(np.abs(d)) * scale)[:, None], 64, axis=1)
    grid = _simplex_grid(3, 0.01)
    lb = _scan_lower_bounds(grid, D, float(np.max(np.abs(D))))
    for order in itertools.permutations(range(3)):
        total = np.zeros(len(grid))
        for k in order:
            total = total + grid[:, k] * D[k, 0]
        assert (lb < total).all()


def test_planted_tie_keeps_the_first_row():
    mask, ib, best = _full_scan(_simplex_grid(2, 1 / 64), _planted_tie(), 1e-6)
    assert ib == 31 and best == -1.0
    assert np.flatnonzero(mask).tolist() == [31, 32]


# ----------------------------------------------------------------- synthesis


def test_sextic_synthesis(sextic_system, sextic_V, d2):
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    res = synthesize_combination_n2(cand)
    assert res.ok
    lam = res.lambdas
    # lambda_1 = 1 / (1 + xi) for the certified xi
    assert lam[0] == pytest.approx(0.2741537157430122, rel=1e-9)
    assert lam[0] + lam[1] == pytest.approx(1.0)
    assert res.max_derivative < 0
    # the synthesized point lies inside the scanned feasible interval
    scan = scan_combinations(cand, grid_step=0.005)
    lo, hi = scan.interval
    assert lo <= lam[0] <= hi


def test_fractional_synthesis(frac_system, frac_V, frac_dilation):
    cand = LfhdCandidate.build(frac_V, frac_system, frac_dilation)
    res = synthesize_combination_n2(cand)
    assert res.ok
    assert res.lambdas[0] == pytest.approx(0.4755929990694682, rel=1e-9)
    scan = scan_combinations(cand, grid_step=0.01)
    lo, hi = scan.interval
    assert lo <= res.lambdas[0] <= hi


def test_synthesis_failure_passthrough(d2):
    up = (GP.from_terms(2, [(1, (1, 0))]), GP.from_terms(2, [(1, (0, 1))]))
    sys = SwitchedSystem((up, up))
    V = GP.from_terms(2, [(0.5, (2, 0)), (0.5, (0, 2))])
    cand = LfhdCandidate.build(V, sys, d2)
    res = synthesize_combination_n2(cand)
    assert not res.ok  # multiplier failure is forwarded, not raised


def test_synthesis_needs_two_subsystems(linear3_system, norm_V, d2):
    cand = LfhdCandidate.build(norm_V, linear3_system, d2)
    with pytest.raises(ValueError):
        synthesize_combination_n2(cand)


# ---------------------------------------------------------------- eigencheck


def test_eigencheck_cancelling_combination(linear3_matrices):
    r3 = np.sqrt(3.0)
    lam = np.array([2 * r3, 1.0, 1.0]) / (2 * r3 + 2.0)
    val = linear_combination_eigencheck(linear3_matrices, lam)
    assert abs(val) <= 1e-9  # the combination cancels exactly


def test_eigencheck_single_subsystem(linear3_matrices):
    assert linear_combination_eigencheck(linear3_matrices, [1, 0, 0]) == pytest.approx(1.0)
    assert linear_combination_eigencheck(linear3_matrices, [0, 1, 0]) == pytest.approx(2.0)


def test_eigencheck_stable_matrix():
    A = [np.array([[-1.0, 0.0], [0.0, -2.0]]), np.array([[-3.0, 0.0], [0.0, -0.5]])]
    assert linear_combination_eigencheck(A, [0.5, 0.5]) == pytest.approx(-1.25)


def test_eigencheck_dimension_mismatch(linear3_matrices):
    with pytest.raises(ValueError):
        linear_combination_eigencheck(linear3_matrices, [0.5, 0.5])


def test_linear_matrix_round_trip(linear3_system, linear3_matrices):
    for field, A in zip(linear3_system.fields, linear3_matrices):
        assert np.allclose(linear_matrix(field), A, atol=1e-12)


def test_linear_matrix_rejects_nonlinear(sextic_system):
    with pytest.raises(ValueError):
        linear_matrix(sextic_system.fields[0])


# ---------------------------------------------------------------- simulation


def test_simulation_descends(sextic_system, sextic_V, d2):
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    traj = simulate_min_switching(cand, [1.0, -0.7], t_end=3.0)
    assert traj.v[-1] < 0.05 * traj.v[0]
    assert set(np.unique(traj.sigma)) <= {1, 2}
    assert traj.switch_times  # the law actually switches


def test_descent_between_switches(sextic_system, sextic_V, d2):
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    dt = 1e-3
    traj = simulate_min_switching(cand, [0.9, 0.4], dt=dt, t_end=2.0)
    switch_steps = {int(round(t / dt)) for t in traj.switch_times}
    slack = 10.0 * dt * dt * max(1.0, float(np.max(traj.v)))
    for j in range(len(traj.v) - 1):
        if j + 1 in switch_steps:
            continue  # allow the one-step transient at a switching instant
        assert traj.v[j + 1] <= traj.v[j] + slack


def test_exponential_decay_matches_closed_form():
    decay = (GP.from_terms(1, [(-1, (1,))]),)
    sys = SwitchedSystem((decay, decay))
    V = GP.from_terms(1, [(0.5, (2,))])
    from slemma import Dilation

    cand = LfhdCandidate.build(V, sys, Dilation.standard(1))
    traj = simulate_min_switching(cand, [1.0], dt=1e-3, t_end=1.0)
    assert np.all(traj.sigma == 1)  # ties break to the first subsystem
    assert traj.x[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_zero_state_stays_at_rest(sextic_system, sextic_V, d2):
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    traj = simulate_min_switching(cand, [0.0, 0.0], t_end=0.5)
    assert np.allclose(traj.x, 0.0)


def test_divergence_raises(d2):
    up = (GP.from_terms(2, [(1, (1, 0))]), GP.from_terms(2, [(1, (0, 1))]))
    sys = SwitchedSystem((up, up))
    V = GP.from_terms(2, [(0.5, (2, 0)), (0.5, (0, 2))])
    cand = LfhdCandidate.build(V, sys, d2)
    with pytest.raises(DivergenceError):
        simulate_min_switching(cand, [1.0, 1.0], dt=0.01, t_end=40.0)


def test_dwell_time_spacing(sextic_system, sextic_V, d2):
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    dt, dwell = 1e-3, 5e-2
    traj = simulate_min_switching(cand, [1.0, -0.7], dt=dt, t_end=1.0, dwell=dwell)
    assert traj.dwell == pytest.approx(dwell)
    for t in traj.switch_times:
        steps = t / dt
        assert abs(steps - round(steps)) < 1e-6
        assert int(round(steps)) % int(round(dwell / dt)) == 0


def test_trajectory_rows(sextic_system, sextic_V, d2):
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    traj = simulate_min_switching(cand, [0.5, 0.5], t_end=0.1)
    rows = list(traj.rows())
    assert len(rows) == len(traj.t)
    t0, x0, y0, s0, v0 = rows[0]
    assert (t0, x0, y0) == (0.0, 0.5, 0.5)
    assert s0 in (1, 2)
    assert v0 == pytest.approx(sextic_V([0.5, 0.5]))


def test_non_finite_state_diverges(sextic_system, sextic_V, d2):
    # From (3e6, 1) the first step overflows to inf - inf = nan; NaN never
    # compares above the norm limit, so only `not norm <= limit` catches it.
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    for x0 in ([3e6, 1.0], [1e100, 1.0]):
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="not finite"):
            simulate_min_switching(cand, x0, t_end=0.1)


# ------------------------------------------ float loop against the array loop


def _reference_simulation(cand, x0, dt=1e-3, t_end=10.0, dwell=None):
    """simulate_min_switching's RK4 loop on a float64 ndarray state: the
    reference its loop on tuples of floats must match bit for bit."""
    sys = cand.system
    if dwell is None:
        dwell = 10.0 * dt
    dwell_steps = max(1, int(round(dwell / dt)))
    steps = int(round(t_end / dt))
    x = np.array(x0, dtype=float)
    t_arr = np.empty(steps + 1)
    x_arr = np.empty((steps + 1, sys.n))
    s_arr = np.empty(steps + 1, dtype=int)
    v_arr = np.empty(steps + 1)
    switch_times = []

    def field_value(comps, xc):
        return np.array([c(xc) for c in comps])

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
        t_arr[j] = t
        x_arr[j] = x
        s_arr[j] = sigma
        v_arr[j] = cand.V(x)
        if j == steps:
            break
        comps = sys.fields[sigma - 1]
        k1 = field_value(comps, x)
        k2 = field_value(comps, x + 0.5 * dt * k1)
        k3 = field_value(comps, x + 0.5 * dt * k2)
        k4 = field_value(comps, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        norm = np.linalg.norm(x)
        if not norm <= STATE_NORM_LIMIT:
            what = "exceeded 1e+06" if norm > STATE_NORM_LIMIT else "is not finite"
            raise DivergenceError(f"state norm {what} at t = {t + dt:.6g}")
    return t_arr, x_arr, s_arr, v_arr, switch_times


def _assert_bit_equal(cand, x0, switching=True, **kwargs):
    traj = simulate_min_switching(cand, x0, **kwargs)
    t, x, sigma, v, switch_times = _reference_simulation(cand, x0, **kwargs)
    assert traj.t.tobytes() == t.tobytes()
    assert traj.x.tobytes() == x.tobytes()
    assert traj.sigma.tobytes() == sigma.tobytes()
    assert traj.v.tobytes() == v.tobytes()
    assert np.array(traj.switch_times).tobytes() == np.array(switch_times).tobytes()
    assert bool(switch_times) is switching  # whether the run exercised the switching law
    return traj


@pytest.mark.parametrize("name", ["switch_sextic", "switch_fractional",
                                  "switch_three_linear"])
def test_float_loop_matches_the_array_loop(problems_dir, name):
    problem = load_problem(problems_dir / f"{name}.json")
    _, system = problem.single_system()
    _, V = problem.first_lyapunov()
    cand = LfhdCandidate.build(V, system, problem.dilation)
    _assert_bit_equal(cand, np.ones(problem.n))


def test_float_loop_matches_with_other_settings(frac_system, frac_V, frac_dilation):
    cand = LfhdCandidate.build(frac_V, frac_system, frac_dilation)
    _assert_bit_equal(cand, [-0.73, 1.9], dt=2.5e-3, t_end=3.0, dwell=7.5e-3)
    _assert_bit_equal(cand, [1.3, -0.2], dt=1e-3, t_end=1.5, dwell=1.7e-2)


@pytest.mark.parametrize("dt, t_end, dwell, last_row_switches", [
    (1e-3, 0.3, 1e-3, False),  # one step per dwell period
    (1e-3, 0.503, 1e-2, False),  # 503 steps: the last period is cut short
    (2e-3, 0.96, 2e-2, True),  # 480 steps: the last row starts a period
])
def test_dwell_periods_match_the_array_loop(sextic_system, sextic_V, d2, dt, t_end, dwell,
                                            last_row_switches):
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    traj = _assert_bit_equal(cand, [1.0, -0.7], dt=dt, t_end=t_end, dwell=dwell)
    assert (traj.switch_times[-1] == traj.t[-1].item()) is last_row_switches


def test_a_dwell_past_the_horizon_picks_once(sextic_system, sextic_V, d2):
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    traj = _assert_bit_equal(cand, [1.0, -0.7], switching=False, t_end=0.2, dwell=0.5)
    assert len(set(traj.sigma.tolist())) == 1


def test_divergence_inside_a_dwell_period_is_reported_as_the_array_loop_does(d2):
    # Two unstable linear fields that the law switches between; the state
    # leaves the norm ball on step 1633 (t = 16.34), the third step of a
    # 7-step dwell period.
    s1 = (GP.from_terms(2, [(1.0, (1, 0))]), GP.from_terms(2, [(0.5, (0, 1))]))
    s2 = (GP.from_terms(2, [(0.2, (1, 0))]), GP.from_terms(2, [(2.0, (0, 1))]))
    V = GP.from_terms(2, [(0.5, (2, 0)), (0.5, (0, 2))])
    cand = LfhdCandidate.build(V, SwitchedSystem((s1, s2)), d2)
    kwargs = dict(dt=0.01, t_end=40.0, dwell=0.07)
    _assert_bit_equal(cand, [1.0, 1.0], **{**kwargs, "t_end": 16.0})
    with pytest.raises(DivergenceError) as got:
        simulate_min_switching(cand, [1.0, 1.0], **kwargs)
    with pytest.raises(DivergenceError) as want:
        _reference_simulation(cand, [1.0, 1.0], **kwargs)
    assert str(got.value) == str(want.value) == "state norm exceeded 1e+06 at t = 16.34"


def _abs_flag_candidate():
    """Planar pair of degree-2 fields; the first field carries the term
    0.8 |x1|^(5/3) x2^(1/3), an abs flag on an odd numerator, and the
    second 0.25 |x1| x2, an abs flag of exponent 1."""
    def sq(c, i):  # c * x_i |x_i|
        return (c, (2, 0) if i == 0 else (0, 2), (i == 0, i == 1))

    s1 = (GP.from_terms(2, [sq(-1.0, 0), (0.8, ((5, 3), (1, 3)), (False, True))]),
          GP.from_terms(2, [sq(1.5, 0), sq(-0.4, 1)]))
    s2 = (GP.from_terms(2, [sq(-0.3, 0), sq(1.0, 1), (0.25, (1, 1), (False, True))]),
          GP.from_terms(2, [sq(-1.0, 0), sq(-0.2, 1)]))
    V = GP.from_terms(2, [(0.5, (2, 0)), (0.5, (0, 2))])
    from slemma import Dilation

    return LfhdCandidate.build(V, SwitchedSystem((s1, s2)), Dilation.standard(2))


def test_float_loop_matches_with_an_abs_flag_on_an_odd_numerator():
    cand = _abs_flag_candidate()
    key = ((Fraction(5, 3), Fraction(1, 3)), (False, True))
    assert cand.system.fields[0][0].terms[key] == 0.8
    _assert_bit_equal(cand, [0.9, -0.6], t_end=3.0)
    _assert_bit_equal(cand, [-1.0, 0.5], dt=2e-3, t_end=2.0, dwell=6e-3)


def test_float_loop_matches_in_three_dimensions():
    def field(rows):
        return tuple(GP.from_terms(3, [(c, tuple((5, 3) if k == i else 0
                                                 for k in range(3)))
                                       for i, c in enumerate(row) if c])
                     for row in rows)

    # Signed powers x^(5/3): each derivative of V = |x|^2 / 2 is even and
    # homogeneous of degree 8/3 under the standard dilation.
    s1 = field([(-1.0, 2.0, 0.0), (0.0, -1.0, 1.5), (1.0, 0.0, -2.0)])
    s2 = field([(-2.0, 0.0, -1.0), (0.5, 0.4, 0.0), (0.0, -1.0, -0.3)])
    sys3 = SwitchedSystem((s1, s2))
    V = GP.from_terms(3, [(0.5, (2, 0, 0)), (0.5, (0, 2, 0)), (0.5, (0, 0, 2))])
    from slemma import Dilation

    cand = LfhdCandidate.build(V, sys3, Dilation.standard(3))
    traj = _assert_bit_equal(cand, [0.8, -0.5, 0.3], t_end=2.0)
    assert traj.x.shape == (2001, 3)


def test_scalar_call_on_floats_matches_the_array_call(sextic_system, sextic_V,
                                                      frac_system, frac_V):
    polys = [sextic_V, frac_V, *sextic_system.fields[0], *frac_system.fields[1]]
    rng = np.random.default_rng(7)
    points = [*rng.normal(scale=3.0, size=(200, 2)), np.array([0.0, -0.0]),
              np.array([1e100, 1.0]), np.array([-1e60, 2.0])]
    for p in polys:
        for x in points:
            with np.errstate(all="ignore"):
                want = p(x)
                got = p(tuple(x.tolist()))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    with np.errstate(all="ignore"):
        assert sextic_V((1e100, 1.0)) == np.inf


def test_straight_line_overflow_is_evaluated_again_by_the_loop(d2):
    # At (0, 1e200) __call__ stops each term with a factor x1 at that zero,
    # while straight-line code still takes 1e200 ** 2.0 and raises
    # OverflowError, in the step of subsystem 1, in V and in the derivative
    # of V along subsystem 2.  Each is evaluated again through __call__,
    # and the run stops where the loop stops it.
    s1 = (GP.from_terms(2, [(-1, (3, 0)), (1, (1, 2))]), GP.from_terms(2, [(-1, (2, 1))]))
    s2 = (GP.from_terms(2, [(-1, (3, 0))]), GP.from_terms(2, [(-1, (2, 1))]))
    V = GP.from_terms(2, [(0.5, (2, 0)), (0.5, (0, 2))])
    cand = LfhdCandidate.build(V, SwitchedSystem((s1, s2)), d2)
    x0 = (0.0, 1e200)
    steps, v_source, d_source = _straight_line_sources(cand, 1e-3)
    for source in (steps[0], v_source, d_source):
        with pytest.raises(OverflowError):
            _compile_function(source, None)(*x0)
    assert _rk4_step(s1, x0, 1e-3) == x0
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
        simulate_min_switching(cand, x0, t_end=0.1)
    assert str(exc.value) == "state norm exceeded 1e+06 at t = 0.001"


def test_a_stage_that_is_not_finite_is_evaluated_again_by_the_loop(d2):
    # From (0, 1.7e308) with dt = 1 the first stage reaches x2 = inf.  There
    # __call__ stops the term |x1|^(2/3) x2^(1/3) at its zero factor, while
    # straight-line code gives 0 * inf = nan: without re-evaluation the
    # state would read (nan, inf) instead of (0, inf).
    s1 = (GP.from_terms(2, [(-1, (1, 0)), (1, ((2, 3), (1, 3)), (False, True))]),
          GP.from_terms(2, [(0.6, (0, 1))]))
    V = GP.from_terms(2, [(0.5, (2, 0)), (0.5, (0, 2))])
    cand = LfhdCandidate.build(V, SwitchedSystem((s1, s1)), d2)
    x0 = (0.0, 1.7e308)
    fused = _compile_function(_straight_line_sources(cand, 1.0)[0][0], None)
    assert math.isnan(fused(*x0)[0])
    assert _rk4_step(s1, x0, 1.0) == (0.0, math.inf)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
        simulate_min_switching(cand, x0, dt=1.0, t_end=1.0)
    assert str(exc.value) == "state norm exceeded 1e+06 at t = 1"


def test_pick_keeps_the_nan_rule_of_argmin(d2):
    # At (100, 100) the derivative along subsystem 1 is -inf and along
    # subsystem 2 it is inf - inf = nan; np.argmin takes the NaN.
    V = GP.from_terms(2, [(1e300, (4, 0)), (1e300, (0, 4))])
    s1 = (GP.from_terms(2, [(-1, (1, 0))]), GP.from_terms(2, [(-1, (0, 1))]))
    s2 = (GP.from_terms(2, [(1, (1, 0))]), GP.from_terms(2, [(-1, (0, 1))]))
    cand = LfhdCandidate.build(V, SwitchedSystem((s1, s2)), d2)
    traj = simulate_min_switching(cand, [100.0, 100.0], t_end=0.05)
    with np.errstate(all="ignore"):
        _, x, sigma, _, _ = _reference_simulation(cand, [100.0, 100.0], t_end=0.05)
    assert np.all(traj.sigma == 2)
    assert traj.sigma.tobytes() == sigma.tobytes() and traj.x.tobytes() == x.tobytes()


def test_expression_matches_call_bit_for_bit(sextic_system, sextic_V, frac_system, frac_V,
                                             problems_dir):
    # switch_three_linear's fields and the abs-flag pair's second field hold
    # factors of exponent 1, signed and unsigned; `mixed` holds unsigned odd
    # and signed even integer powers, which keep abs, beside xi ** p factors
    linear = load_problem(problems_dir / "switch_three_linear.json").single_system()[1]
    mixed = GP.from_terms(2, [(1.5, (3, 0), (False, False)), (-0.5, (2, 2), (True, False)),
                              (0.3, (1, 2), (False, True)), (2.0, (1, 5), (True, True))])
    polys = [sextic_V, frac_V, *sextic_system.fields[0], *frac_system.fields[1],
             *itertools.chain.from_iterable(_abs_flag_candidate().system.fields),
             *itertools.chain.from_iterable(linear.fields),
             mixed, GP.zero(2), GP.constant(2, -1.5)]
    rng = np.random.default_rng(11)
    points = [*rng.normal(scale=3.0, size=(200, 2)).tolist(),
              *([a, b] for a in (0.0, -0.0) for b in (0.0, -0.0, 2.0, -1.5)),
              *([b, a] for a in (0.0, -0.0) for b in (2.0, -1.5)),
              [-1e200, 2.0], [3.0, -1e200], [-1e60, -0.5], [-5e-324, 1e-170]]
    for p in polys:
        f = _compile_function(f"def f(a, b):\n    return {p.expression(['a', 'b'])}\n", None)
        for x in points:
            try:
                got = f(*x)
            except OverflowError:  # where __call__ takes the power again in NumPy
                with np.errstate(all="ignore"):
                    assert not math.isfinite(p(tuple(x)))
                continue
            assert np.float64(got).tobytes() == np.float64(p(tuple(x))).tobytes()


def test_linear_steps_take_no_power(problems_dir):
    # every factor of a linear field has exponent 1, so each fused RK4 step
    # of switch_three_linear is products and sums alone
    problem = load_problem(problems_dir / "switch_three_linear.json")
    cand = LfhdCandidate.build(problem.first_lyapunov()[1], problem.single_system()[1],
                               problem.dilation)
    steps = _straight_line_sources(cand, 1e-3)[0]
    assert len(steps) == 3 and not any("**" in source for source in steps)


def test_a_polynomial_too_long_for_one_expression_runs_through_the_loop(
        monkeypatch, sextic_system, sextic_V, d2):
    long = GP.from_terms(1, [(1.0 + i, (i + 1,)) for i in range(20000)])
    source = f"def f(x0):\n    return {long.expression(['x0'])}\n"
    assert _compile_function(source, "slow") == "slow"
    # With every source too long, the loop alone gives the same bytes.
    monkeypatch.setattr("slemma.switched_systems._compile_function",
                        lambda source, slow: slow)
    _assert_bit_equal(LfhdCandidate.build(sextic_V, sextic_system, d2), [1.0, -0.7], t_end=1.0)


# Every node, name and constant that generated code may hold: a problem
# file supplies coefficients and exponents, which reach it only as floats.
_GENERATED_NODES = (ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign,
                    ast.Return, ast.Tuple, ast.Name, ast.Load, ast.Store, ast.Constant,
                    ast.BinOp, ast.Add, ast.Mult, ast.Pow, ast.UnaryOp, ast.USub,
                    ast.IfExp, ast.Compare, ast.Lt, ast.Gt, ast.Call)


def _assert_generated(source, args, names):
    """`source` defines one function `f` of `args` from the generated
    nodes, the identifiers `names` (regular expressions) and finite floats."""
    tree = ast.parse(source)
    assert [type(node) for node in tree.body] == [ast.FunctionDef]
    assert tree.body[0].name == "f"
    for node in ast.walk(tree):
        assert isinstance(node, _GENERATED_NODES), ast.dump(node)
        if isinstance(node, ast.arg):
            assert re.fullmatch(args, node.arg)
        if isinstance(node, ast.Name):
            assert re.fullmatch(names, node.id), node.id
        if isinstance(node, ast.Constant):
            assert type(node.value) is float and math.isfinite(node.value)
        if isinstance(node, ast.Call):
            assert node.func.id == "abs" and len(node.args) == 1 and not node.keywords


@pytest.mark.parametrize("name", ["switch_sextic", "switch_fractional",
                                  "switch_three_linear", None])
def test_generated_sources_hold_only_generated_names_and_floats(problems_dir, name):
    if name is None:
        cand = _abs_flag_candidate()
    else:
        problem = load_problem(problems_dir / f"{name}.json")
        cand = LfhdCandidate.build(problem.first_lyapunov()[1], problem.single_system()[1],
                                   problem.dilation)
    steps, v_source, d_source = _straight_line_sources(cand, 2.5e-3)
    for source in (*steps, v_source, d_source):
        _assert_generated(source, r"x\d+", r"abs|x\d+|[yk][1-4]_\d+")


@pytest.mark.parametrize("name", ["cubic_shared_zero", "sector_quartic_pi", "switch_sextic",
                                  "switch_fractional", "sector_quartic_wide_l3",
                                  "mixed_quartic_l3"])
def test_refinement_source_holds_only_its_names_and_floats(problems_dir, name):
    path = problems_dir / f"{name}.json"
    problem = load_problem(path if path.exists() else
                           problems_dir.parent / "tests" / "fixtures" / f"{name}.json")
    source = _midpoint_source(*problem.pair(), problem.dilation)
    _assert_generated(source, r"c|s", r"abs|c|s|x[01]|rad|eps")
    assert ("rad =" in source) is (problem.dilation.l != 2.0)


def test_oversized_horizon_fails_before_integrating(sextic_system, sextic_V, d2):
    # 1e15 steps: the trajectory arrays (7 PiB) cannot be allocated, and
    # that must surface at once, not after integrating.
    cand = LfhdCandidate.build(sextic_V, sextic_system, d2)
    with pytest.raises(MemoryError):
        simulate_min_switching(cand, [1.0, -0.7], t_end=1e12)
