"""Polynomial container, dilations, and sphere sampling."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slemma import DEFAULT_SEED, Dilation, GeneralizedPolynomial, Parity
from slemma import homog_core
from slemma.homog_core import (
    EVALUATE_BLOCK, NDTRI_BLOCK, _first_primes, _libm_log, _ndtri, _plan_frees, _row_sum,
    _scrambled_halton, evaluate_many, overflow_guard, sphere_samples, theta_grid, theta_points,
)

from conftest import COEFFS, coordinates

GP = GeneralizedPolynomial


# --------------------------------------------------------------- containers


def test_from_terms_merges_and_drops_zeros():
    p = GP.from_terms(1, [(1.0, (2,)), (2.0, (2,)), (0.5, (3,)), (-0.5, (3,))])
    assert len(p.terms) == 1
    assert p([2.0]) == pytest.approx(12.0)


def test_signed_power_convention():
    # odd numerator keeps the sign, even numerator takes absolute value
    cube_root = GP.from_terms(1, [(1.0, ((1, 3),))])
    assert cube_root([-8.0]) == pytest.approx(-2.0)
    assert cube_root([8.0]) == pytest.approx(2.0)
    two_thirds = GP.from_terms(1, [(1.0, ((2, 3),))])
    assert two_thirds([-8.0]) == pytest.approx(4.0)
    assert two_thirds([8.0]) == pytest.approx(4.0)


def test_explicit_sign_flags():
    abs_x = GP.from_terms(1, [(1.0, (1,), (False,))])
    assert abs_x([-3.0]) == pytest.approx(3.0)
    signed_sq = GP.from_terms(1, [(1.0, (2,), (True,))])
    assert signed_sq([-3.0]) == pytest.approx(-9.0)


def test_evaluate_matches_scalar_call():
    rng = np.random.default_rng(3)
    p = GP.from_terms(3, [(1.5, (2, 0, 1)), (-2.0, (0, 3, 0)), (0.7, (1, 1, 1))])
    X = rng.normal(size=(40, 3))
    vals = p.evaluate(X)
    for row, v in zip(X, vals):
        assert p(row) == pytest.approx(v, rel=1e-12)


def test_arithmetic_is_pointwise():
    rng = np.random.default_rng(11)
    p = GP.from_terms(2, [(1.0, (2, 0)), (-1.0, (0, 2))])
    q = GP.from_terms(2, [(2.0, (1, 1)), (0.5, (2, 0))])
    X = rng.normal(size=(25, 2))
    assert np.allclose((p + q).evaluate(X), p.evaluate(X) + q.evaluate(X))
    assert np.allclose((p - q).evaluate(X), p.evaluate(X) - q.evaluate(X))
    assert np.allclose((p * q).evaluate(X), p.evaluate(X) * q.evaluate(X))
    assert np.allclose((-p).evaluate(X), -p.evaluate(X))
    assert np.allclose((3.0 * p).evaluate(X), 3.0 * p.evaluate(X))


def test_json_terms_round_trip():
    p = GP.from_terms(2, [(np.sqrt(3.0), (3, 1)), (-0.125, ((2, 3), 4))])
    q = GP.from_json_terms(2, [
        {"coeff": np.sqrt(3.0), "powers": [{"num": 3}, {"num": 1}]},
        {"coeff": -0.125, "powers": [{"num": 2, "den": 3}, {"num": 4}]},
    ])
    assert q.terms == p.terms
    assert (p - q).is_zero


# ------------------------------------------------------------------- parity


@pytest.mark.parametrize(
    "terms, expected",
    [
        ([(1, (4, 0)), (1, (2, 2))], Parity.EVEN),
        ([(1, (3, 0)), (-2, (1, 2))], Parity.ODD),
        ([(1, (2, 0)), (1, (3, 0))], Parity.NEITHER),
        ([(1, ((4, 3), 0)), (1, (0, 2))], Parity.EVEN),
        ([(1, ((1, 3), 2))], Parity.ODD),
    ],
)
def test_parity_classification(terms, expected):
    assert GP.from_terms(2, terms).parity() is expected


# ------------------------------------------------------------- homogeneity


def test_homogeneity_identity_standard():
    rng = np.random.default_rng(5)
    d = Dilation.standard(2)
    p = GP.from_terms(2, [(1, (4, 0)), (-2, (2, 2)), (3, (1, 3))])
    k = p.homogeneity_degree(d)
    assert k == pytest.approx(4.0)
    for _ in range(20):
        x = rng.normal(size=2)
        eps = rng.uniform(0.1, 5.0)
        lhs = p(d.scale(eps, x))
        rhs = eps ** k * p(x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_homogeneity_identity_weighted():
    rng = np.random.default_rng(6)
    d = Dilation((3, 1))
    p = GP.from_terms(2, [(16, ((4, 3), 0)), (-8, ((2, 3), 2)), (-8, (0, 4))])
    k = p.homogeneity_degree(d)
    assert k == pytest.approx(4.0)
    for _ in range(20):
        x = rng.normal(size=2)
        eps = rng.uniform(0.1, 5.0)
        assert p(d.scale(eps, x)) == pytest.approx(eps ** k * p(x), rel=1e-9)


def test_homogeneity_degree_none_for_mixed():
    d = Dilation.standard(1)
    p = GP.from_terms(1, [(1, (2,)), (1, (3,))])
    assert p.homogeneity_degree(d) is None


def test_zero_polynomial_has_no_degree():
    d = Dilation.standard(2)
    with pytest.raises(ValueError):
        GP.zero(2).homogeneity_degree(d)


# ---------------------------------------------------------------- calculus


def test_partial_power_rule():
    p = GP.from_terms(2, [(1.0, (3, 2))])
    expected = GP.from_terms(2, [(3.0, (2, 2))])
    assert (p.partial(0) - expected).is_zero


def test_partial_matches_finite_differences():
    rng = np.random.default_rng(9)
    p = GP.from_terms(2, [(2, (3, 1)), (-1, (1, 3)), (0.5, (4, 0))])
    dp = p.partial(1)
    h = 1e-6
    for _ in range(15):
        x = rng.normal(size=2)
        xp, xm = x.copy(), x.copy()
        xp[1] += h
        xm[1] -= h
        fd = (p(xp) - p(xm)) / (2 * h)
        assert dp(x) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_partial_fractional_signed_power():
    # d/dx x^(4/3) = (4/3)|x|^(1/3) sgn(x)
    p = GP.from_terms(1, [(3.0, ((4, 3),))])
    dp = p.partial(0)
    assert dp([8.0]) == pytest.approx(4.0 * 2.0)
    assert dp([-8.0]) == pytest.approx(-4.0 * 2.0)


def test_partial_rejects_subunit_exponent():
    p = GP.from_terms(1, [(1.0, ((2, 3),))])
    with pytest.raises(ValueError):
        p.partial(0)


def test_partial_rejects_bare_absolute_value():
    p = GP.from_terms(1, [(1.0, (1,), (False,))])
    with pytest.raises(ValueError):
        p.partial(0)


def test_gradient_length():
    p = GP.from_terms(3, [(1, (2, 1, 0))])
    assert len(p.gradient()) == 3


def test_top_form_extraction():
    p = GP.from_terms(1, [(1, (4,)), (2, (2,)), (-3, (0,))])
    top = p.top_form(4)
    assert (top - GP.from_terms(1, [(1, (4,))])).is_zero


# ---------------------------------------------------------------- dilations


def test_dilation_rejects_bad_weights():
    with pytest.raises(ValueError):
        Dilation((0.5, 1.0))
    with pytest.raises(ValueError):
        Dilation((1.0, 1.0), l=0.0)
    with pytest.raises(ValueError):
        Dilation(())


def test_projection_lands_on_sphere():
    rng = np.random.default_rng(12)
    for d in (Dilation.standard(3), Dilation((3, 1))):
        X = rng.normal(size=(30, d.n))
        proj = d.project(X)
        assert np.allclose(d.radius(proj), 1.0, atol=1e-12)


def test_radius_scales_with_dilation():
    d = Dilation((3, 1))
    x = np.array([0.4, -1.2])
    # |eps^3 x1|^(2/3) + |eps x2|^2 = eps^2 * radius(x)
    assert d.radius(d.scale(2.0, x)) == pytest.approx(4.0 * d.radius(x))


def _special_rows(n):
    """Rows of n entries whose sums test the order and start of a row sum:
    all -0.0, a signed zero among +-0.0, +-inf alone and together, NaN of
    both signs beside inf, and large entries that cancel down to a small
    remainder (which the order of the additions decides)."""
    nan, inf = float("nan"), float("inf")
    rows = [[-0.0] * n, [0.0] + [-0.0] * (n - 1), [-0.0] * (n - 1) + [0.0],
            [inf] * n, [-inf] * n, [inf] + [-inf] * (n - 1), [1.0] * (n - 1) + [inf],
            [nan] * n, [-nan] * n, [-nan] + [nan] * (n - 1), [inf] + [-nan] * (n - 1),
            [1e16] + [1.0] * (n - 2) + [-1e16] if n > 1 else [1e16],
            [(-1) ** j * 10.0 ** (16 - j) + 0.5 for j in range(n)]]
    return np.array(rows, dtype=float)


@pytest.mark.parametrize("n", range(1, 13))
def test_row_sum_is_np_sum_bit_for_bit(n):
    rng = np.random.default_rng(n)
    rand = rng.normal(size=(257, n)) * np.exp(rng.normal(0.0, 8.0, (257, n)))
    X = np.vstack([_special_rows(n), rand])
    cases = [X, X[0], X[-1], X.reshape(-1, 1, n), X.reshape(1, -1, n), X[::-1]]
    if len(X) % 2 == 0:
        cases.append(X.reshape(2, -1, n))
    for a in cases:
        with np.errstate(invalid="ignore"):  # inf + -inf
            got, want = _row_sum(a), np.sum(a, axis=-1)
        assert np.shape(got) == np.shape(want) and np.ndim(got) == np.ndim(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a.shape, n)


def test_radius_is_the_row_sum_of_np_sum():
    # radius on the layouts the sampler and the probe pass it: one point,
    # a C-order stack, and an (n, count) array's transpose
    rng = np.random.default_rng(9)
    for d in (Dilation.standard(3), Dilation((1.0, 2.0, 1.5), l=4.0), Dilation.standard(8)):
        X = np.vstack([_special_rows(d.n), rng.normal(size=(1000, d.n))])
        for Y in (X, X[5], np.asfortranarray(X)):
            with np.errstate(invalid="ignore"):  # inf + -inf
                got = d.radius(Y)
                want = np.sum(np.abs(Y) ** (d.l / np.array(d.weights)), axis=-1)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ----------------------------------------------------------------- sampling


def test_sphere_samples_one_dimensional():
    d = Dilation.standard(1)
    assert np.array_equal(sphere_samples(d, 16), [[1.0], [-1.0]])


def test_sphere_samples_on_sphere():
    for d, count in ((Dilation.standard(2), 512), (Dilation((3, 1)), 512),
                     (Dilation.standard(4), 2048)):
        X = sphere_samples(d, count)
        assert np.allclose(d.radius(X), 1.0, atol=1e-9)


def test_sphere_samples_deterministic():
    d = Dilation.standard(3)
    a = sphere_samples(d, 1024, seed=DEFAULT_SEED)
    b = sphere_samples(d, 1024, seed=DEFAULT_SEED)
    assert np.array_equal(a, b)
    c = sphere_samples(d, 1024, seed=DEFAULT_SEED + 1)
    assert not np.array_equal(a, c)


def test_theta_grid_alignment_and_offset():
    d = Dilation.standard(2)
    aligned = sphere_samples(d, 8)
    assert aligned[0] == pytest.approx([1.0, 0.0])
    shifted = sphere_samples(d, 8, offset=0.5)
    assert not np.allclose(aligned, shifted)
    assert np.allclose(d.radius(shifted), 1.0, atol=1e-12)
    # half-step offset lands halfway between grid nodes
    assert np.arctan2(shifted[0, 1], shifted[0, 0]) == pytest.approx(np.pi / 8)


def test_theta_points_cover_circle():
    d = Dilation.standard(2)
    t = theta_grid(64)
    X = theta_points(t, d)
    assert X.shape == (64, 2)
    assert np.allclose(np.hypot(X[:, 0], X[:, 1]), 1.0)


# SciPy is only the reference here: the n >= 3 sampler reproduces its
# scrambled Halton points and its ndtri byte for byte.

SEEDS = (0, DEFAULT_SEED, 2**31 - 1)


def _halton_counts(n):
    counts = {1, 2, 4096, 65536}
    for b in _first_primes(n):
        for k in (1, 2, 3):
            counts |= {b**k, b**k + 1}
    return sorted(counts)


@pytest.mark.parametrize("n", range(3, 9))
def test_scrambled_halton_matches_scipy(n):
    qmc = pytest.importorskip("scipy.stats").qmc
    for seed in SEEDS:
        for count in _halton_counts(n):
            want = qmc.Halton(d=n, scramble=True, seed=seed).random(count)
            got = _scrambled_halton(n, count, seed)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (seed, count)


def test_ndtri_matches_scipy_on_halton_sets():
    ndtri = pytest.importorskip("scipy.special").ndtri
    for n in (3, 8):
        for seed in SEEDS:
            u = np.clip(_scrambled_halton(n, 65536, seed), 1e-12, 1.0 - 1e-12)
            assert _ndtri(u).tobytes() == ndtri(u).tobytes(), (n, seed)


def test_ndtri_matches_scipy_at_branch_edges():
    ndtri = pytest.importorskip("scipy.special").ndtri
    edges = np.array([1e-12, 1.0 - 1e-12, 0.5, np.exp(-2.0), 1.0 - np.exp(-2.0)])
    y = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
    y = np.clip(y, 1e-12, 1.0 - 1e-12)
    assert _ndtri(y).tobytes() == ndtri(y).tobytes()


@pytest.mark.parametrize("n", [3, 5])
def test_ndtri_matches_scipy_at_block_edges(n):
    ndtri = pytest.importorskip("scipy.special").ndtri
    B = NDTRI_BLOCK
    for count in (1, 2, B - 1, B, B + 1, 3 * B + 7):
        u = np.clip(_scrambled_halton(n, count, DEFAULT_SEED), 1e-12, 1.0 - 1e-12)
        # count rows of n, and count entries in all
        for y in (u, u.ravel()[:count]):
            assert _ndtri(y).tobytes() == ndtri(y).tobytes(), (count, y.shape)


def _math_log(a):
    return np.fromiter(map(math.log, a.tolist()), float, a.size)


def test_libm_log_is_math_log_bit_for_bit():
    # both ranges the quantile's tail takes logs over: y and x = sqrt(-2 log y)
    rng = np.random.default_rng(20240601)
    a = np.concatenate([np.exp(rng.uniform(math.log(1e-12), -2.0, 1_000_000)),
                        rng.uniform(2.0, 7.5, 1_000_000), [1e-12, math.exp(-2.0), 2.0, 7.5]])
    want = _math_log(a)
    # long double rounded to float64 misses the C library's log on some
    # entries near a rounding midpoint: those are the ones under test
    plain = np.log(a.astype(np.longdouble)).astype(float)
    assert np.count_nonzero(plain != want) >= 200
    assert _libm_log(a).tobytes() == want.tobytes()


def test_ndtri_without_an_extended_long_double_has_the_same_bytes(monkeypatch):
    u = np.clip(_scrambled_halton(3, 20000, DEFAULT_SEED), 1e-12, 1.0 - 1e-12)
    a = np.exp(np.linspace(math.log(1e-12), 2.0, 50_001))
    fast = _ndtri(u).tobytes(), _libm_log(a).tobytes()
    monkeypatch.setattr(homog_core, "LONG_DOUBLE_LOG", False)
    assert (_ndtri(u).tobytes(), _libm_log(a).tobytes()) == fast


def test_sphere_samples_match_the_scipy_pipeline():
    stats = pytest.importorskip("scipy.stats")
    ndtri = pytest.importorskip("scipy.special").ndtri
    weighted = Dilation((1.0, 2.0, 1.5, 1.0), l=3.0)
    # SciPy's points come in Fortran order, and the sampler normalizes and
    # projects the rows of a C-order array.  The layout matters: on rows
    # of 8 or more entries np.linalg.norm sums pairwise, unlike a sum down
    # the columns of an (n, count) array (which differs from n = 8, count
    # 1 on), and the weighted projection's powers take another NumPy loop
    # on the (n, count) layout, which rounds some entries differently.
    # Below 8 entries the sampler adds the squares column by column, and
    # must add them in the order np.linalg.norm adds a row's
    cases = [(weighted, 3000), (weighted, 65537), (Dilation.standard(8), 1),
             (Dilation.standard(8), 65537), (Dilation.standard(9), 65537),
             (Dilation((1.0, 2.0, 1.5), l=4.0), 65537)]
    cases += [(Dilation.standard(n), 65537) for n in range(3, 8)]
    for d, count in cases:
        u = stats.qmc.Halton(d=d.n, scramble=True, seed=DEFAULT_SEED).random(count)
        z = np.ascontiguousarray(ndtri(np.clip(u, 1e-12, 1.0 - 1e-12)))
        want = d.project(z / np.linalg.norm(z, axis=1)[:, None])
        assert sphere_samples(d, count).tobytes() == want.tobytes(), (d, count)


# ------------------------------------------------------------ properties

# exponents a/b with an odd denominator
EXPONENTS = st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 3]))


def _points(n, hi):
    return st.lists(st.lists(coordinates(hi), min_size=n, max_size=n),
                    min_size=1, max_size=8).map(np.array)


def _term_size(f, X):
    """sum over terms of |c| * prod |x_i|^p_i: the scale of f's rounding error."""
    return sum(abs(c) * np.prod(np.abs(X) ** np.array([float(p) for p in powers]), axis=1)
               for (powers, _), c in f.terms.items())


@st.composite
def polynomials(draw, n):
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        powers = tuple(draw(EXPONENTS) for _ in range(n))
        signed = tuple(p > 0 and draw(st.booleans()) for p in powers)
        terms[powers, signed] = draw(COEFFS)
    return GP.from_terms(n, [(c, *key) for key, c in terms.items()])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_evaluate_rows_match_the_scalar_call(data):
    n = data.draw(st.integers(1, 4))
    f = data.draw(polynomials(n))
    X = data.draw(_points(n, 5.0))
    rows = f.evaluate(X)
    calls = np.array([f(x) for x in X])
    assert np.all(np.abs(rows - calls) <= 1e-12 * _term_size(f, X))


def _reference_evaluate(f, X):
    """`evaluate` without its power table: every factor's |x_i| ** p and
    sgn(x_i) afresh, into a new array per product.  The reference it must
    match bit for bit, raises included."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    out = np.zeros(X.shape[0])
    for coeff, items in f._compile():
        t = np.full(X.shape[0], coeff)
        for i, p, signed in items:
            col = X[:, i]
            t = t * np.abs(col) ** p
            if signed:
                t = t * np.sign(col)
        out += t
    return out[0] if single else out


def _layouts(X):
    """X as C order, Fortran order, and a strided view of a larger array."""
    big = np.zeros((2 * X.shape[0], 2 * X.shape[1]))
    big[::2, 1::2] = X
    return [np.ascontiguousarray(X), np.asfortranarray(X), big[::2, 1::2]]


def _assert_same_values(f, X):
    for Y in _layouts(X) + [X[0], X[:1]]:
        assert np.asarray(f.evaluate(Y)).tobytes() == np.asarray(_reference_evaluate(f, Y)).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_evaluate_is_the_per_term_loop_bit_for_bit(data):
    n = data.draw(st.integers(1, 4))
    _assert_same_values(data.draw(polynomials(n)), data.draw(_points(n, 5.0)))


def test_evaluate_reuses_fractional_repeated_and_signed_factors_bit_for_bit():
    third, five_thirds = Fraction(1, 3), Fraction(5, 3)
    f = GP.from_terms(3, [
        (2.5, (2, third, 0)),
        (-1.25, (2, third, 1)),                              # repeats x1^2, x2^(1/3)
        (0.75, (five_thirds, 0, 1), (True, False, True)),
        (-0.5, (five_thirds, 0, 1), (False, False, False)),  # the same powers, unsigned
        (1.5, (0, third, Fraction(2, 3)), (False, True, False)),
        (3.0, (0, 0, 0)),                                    # the constant term
    ])
    X = np.random.default_rng(3).normal(0.0, 2.0, (50, 3))
    X[::7, 1] = 0.0
    X[::5, 0] = -0.0
    _assert_same_values(f, X)
    # past one block of rows, with a short last block
    Y = np.random.default_rng(4).normal(0.0, 2.0, (2 * EVALUATE_BLOCK + 5, 3))
    assert f.evaluate(Y).tobytes() == _reference_evaluate(f, Y).tobytes()


def _assert_each_is_its_own_loop(polys, X):
    for Y in _layouts(X) + [X[0], X[:1]]:
        rows = evaluate_many(polys, Y)
        assert rows.shape == (len(polys),) + Y.shape[:-1]
        for poly, row in zip(polys, rows):
            assert np.asarray(row).tobytes() == np.asarray(_reference_evaluate(poly, Y)).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_evaluate_many_is_each_per_term_loop_bit_for_bit(data):
    # f and g share the powers and signs of their common factors
    n = data.draw(st.integers(1, 4))
    f, g = data.draw(polynomials(n)), data.draw(polynomials(n))
    X = data.draw(_points(n, 5.0))
    _assert_each_is_its_own_loop((f, g), X)
    # the drawn rows repeated past one block, with a short last block
    _assert_each_is_its_own_loop((f, g), np.resize(X, (EVALUATE_BLOCK + len(X) + 1, n)))


def test_evaluate_keeps_each_power_and_sign_until_its_last_term():
    # x1^2 x2, then x1^2, then |x2|, then x2: |x1|^2 is last used by the
    # second term, |x2| by the third, and |x2| * sgn(x2), a table entry of
    # its own, by the fourth
    f = GP.from_terms(2, [(1.0, (2, 1)), (2.0, (2, 0)), (3.0, (0, 1), (False, False)),
                          (4.0, (0, 1))])
    assert [last for *_, last in _plan_frees((f,))] == [
        set(), {(0, 2.0, False)}, {(1, 1.0, False)}, {(1, 1.0, True)}]


def test_evaluate_many_keeps_a_shared_power_until_its_last_use_by_any_polynomial():
    # f is x1^2, then x2; g is x1^2 x2, then x2^3.  Alone, f frees |x1|^2
    # after its first term and x2 after its second; before g, both live
    # until g's first term, and x2^3 is g's own
    f = GP.from_terms(2, [(1.0, (2, 0)), (2.0, (0, 1))])
    g = GP.from_terms(2, [(3.0, (2, 1)), (4.0, (0, 3))])
    assert [last for *_, last in _plan_frees((f,))] == [{(0, 2.0, False)}, {(1, 1.0, True)}]
    plan = _plan_frees((f, g))
    assert [k for k, *_ in plan] == [0, 0, 1, 1]
    assert [last for *_, last in plan] == [
        set(), set(), {(0, 2.0, False), (1, 1.0, True)}, {(1, 3.0, True)}]


def test_evaluate_many_plans_a_tuple_of_polynomials_once():
    f = GP.from_terms(2, [(1.0, (2, 0)), (2.0, (0, 1))])
    g = GP.from_terms(2, [(3.0, (2, 1))])
    X = np.random.default_rng(2).normal(size=(10, 2))
    _plan_frees.cache_clear()
    first = evaluate_many((f, g), X)
    assert evaluate_many([f, g], X).tobytes() == first.tobytes()
    assert evaluate_many((f, g), X[:3]).tobytes() == first[:, :3].tobytes()
    evaluate_many((g, f), X)
    info = _plan_frees.cache_info()
    assert (info.misses, info.hits) == (2, 2)


# Entries that a term's product can meet: signed zeros, NaN of both signs,
# infinities, and magnitudes whose powers and products overflow
SPECIAL = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e200, -1e200, 1.5, -0.75)


def _outcome(evaluate, X):
    """evaluate(X)'s bytes, or the error it raises under overflow_guard."""
    try:
        with overflow_guard("test stage"):
            return np.asarray(evaluate(X)).tobytes()
    except FloatingPointError as e:
        return str(e)


def test_evaluate_many_on_special_entries_is_each_per_term_loop_bit_for_bit():
    third = Fraction(1, 3)
    f = GP.from_terms(3, [
        (2.5, (1, 1, 3)),
        (-1.0, (3, 1, 0)),
        (0.5, (3, 1, 0), (False, False, False)),  # the same powers, unsigned
        (0.75, (third, 2, 1)),
        (3.0, (0, 0, 0)),
    ])
    g = GP.from_terms(3, [(1e-300, (0, 3, 1)), (-2.0, (1, 0, 3)), (1.25, (third, 0, 0))])
    X = np.array(list(itertools.product(SPECIAL, repeat=3)))
    polys = (f, g)

    def reference(Y):
        return np.array([_reference_evaluate(p, Y) for p in polys])

    with np.errstate(all="ignore"):
        _assert_each_is_its_own_loop(polys, X)
        # NaN of both signs comes out of the products
        values = evaluate_many(polys, X)
        assert {True, False} <= set(np.signbit(values[np.isnan(values)]).tolist())
    # one point at a time, each overflow or invalid product raises at the
    # operation the per-term loop raises at, f's before g's
    outcomes = set()
    for x in X:
        got = _outcome(lambda Y: evaluate_many(polys, Y), x)
        assert got == _outcome(reference, x), x
        outcomes.add(got if isinstance(got, str) else "finite")
    assert {"test stage: overflow encountered in power",
            "test stage: overflow encountered in multiply",
            "test stage: invalid value encountered in multiply",
            "test stage: invalid value encountered in add", "finite"} <= outcomes
    # all rows at once, and past one block
    for Y in (X, np.resize(X, (EVALUATE_BLOCK + len(X) + 1, 3))):
        assert _outcome(lambda Y: evaluate_many(polys, Y), Y) == _outcome(reference, Y)


@pytest.mark.parametrize("terms, x, op", [
    # the first term's product overflows before the second term's power would
    ([(1e300, (2, 0)), (1e290, (0, 400))], (1e5, 10.0), "multiply"),
    ([(1e290, (400, 0)), (1e300, (400, 2))], (10.0, 1e5), "power"),
    # the second term overflows on the first term's |x1|^2 and |x2|^2
    ([(1e290, (2, 0)), (1e290, (2, 2)), (1e290, (0, 2))], (1e5, 1e5), "multiply"),
    ([(1e308, (1, 0)), (1e308, (0, 1))], (1.5, 1.5), "add"),
])
@pytest.mark.parametrize("rows", [1, EVALUATE_BLOCK])
def test_evaluate_overflow_raises_what_the_per_term_loop_raises(terms, x, op, rows):
    f = GP.from_terms(2, terms)
    # with more than one block, the row that overflows comes last
    X = np.vstack([np.full((rows, 2), 0.5), x])
    messages = []
    for evaluate in (f.evaluate, lambda Y: _reference_evaluate(f, Y)):
        with pytest.raises(FloatingPointError) as e:
            with overflow_guard("test stage"):
                evaluate(X)
        messages.append(str(e.value))
    assert messages == [f"test stage: overflow encountered in {op}"] * 2


@pytest.mark.parametrize("f_terms, g_terms, op", [
    # only g overflows, in a product on the |x1|^2 that f took first
    ([(1.0, (2, 0))], [(1e300, (2, 0))], "multiply"),
    # both overflow: the error is f's, whether a product or a power
    ([(1e300, (2, 0)), (1e290, (0, 400))], [(1e290, (0, 400))], "multiply"),
    ([(1e290, (0, 400))], [(1e300, (2, 0))], "power"),
])
@pytest.mark.parametrize("rows", [1, EVALUATE_BLOCK])
def test_evaluate_many_overflow_raises_what_evaluating_f_then_g_raises(f_terms, g_terms, op, rows):
    f, g = GP.from_terms(2, f_terms), GP.from_terms(2, g_terms)
    # with more than one block, the row that overflows comes last
    X = np.vstack([np.full((rows, 2), 0.5), (1e5, 10.0)])
    messages = []
    for evaluate in (lambda Y: evaluate_many((f, g), Y),
                     lambda Y: [_reference_evaluate(p, Y) for p in (f, g)]):
        with pytest.raises(FloatingPointError) as e:
            with overflow_guard("test stage"):
                evaluate(X)
        messages.append(str(e.value))
    assert messages == [f"test stage: overflow encountered in {op}"] * 2


def test_evaluate_overflow_raises_in_term_order_across_blocks():
    # one pass over all rows overflows first in the first term's product, on
    # the last row; the first block alone would overflow first in the second
    # term's power, on its first row
    f = GP.from_terms(2, [(1e300, (2, 0)), (1e290, (0, 400))])
    X = np.full((2 * EVALUATE_BLOCK + 1, 2), 0.5)
    X[0, 1] = 10.0
    X[-1, 0] = 1e5
    with pytest.raises(FloatingPointError, match="^test stage: overflow encountered in multiply$"):
        with overflow_guard("test stage"):
            f.evaluate(X)
    with np.errstate(over="ignore", invalid="ignore"):
        assert f.evaluate(X).tobytes() == _reference_evaluate(f, X).tobytes()


@st.composite
def homogeneous_polynomials(draw):
    """(d, k, f) with f(eps^r o x) = eps^k f(x): odd integer weights keep
    every solved-for exponent's denominator odd."""
    n = draw(st.integers(1, 3))
    d = Dilation(tuple(draw(st.sampled_from([1, 3, 5])) for _ in range(n)))
    k = Fraction(draw(st.integers(1, 12)))
    terms = {}  # one coefficient per term, so that none cancels
    for _ in range(draw(st.integers(1, 4))):
        powers, left = [], k
        for w in d.weights[:-1]:
            p = draw(EXPONENTS)
            p = p if w * p <= left else Fraction(0)
            powers.append(p)
            left -= int(w) * p
        powers.append(left / int(d.weights[-1]))
        signed = tuple(p > 0 and draw(st.booleans()) for p in powers)
        terms[tuple(powers), signed] = draw(COEFFS)
    return d, float(k), GP.from_terms(n, [(c, *key) for key, c in terms.items()])


@settings(max_examples=100, deadline=None)
@given(homogeneous_polynomials(), st.floats(0.1, 10.0), st.data())
def test_degree_and_parity_hold_under_dilations(dkf, eps, data):
    d, k, f = dkf
    X = data.draw(_points(d.n, 2.0))
    assert f.homogeneity_degree(d) == pytest.approx(k, rel=1e-12)
    Y = d.scale(eps, X)
    tol = 1e-11 * _term_size(f, Y)
    assert np.all(np.abs(f.evaluate(Y) - eps ** k * f.evaluate(X)) <= tol)
    parity = f.parity()
    if parity is not Parity.NEITHER:
        sign = 1.0 if parity is Parity.EVEN else -1.0
        assert np.all(np.abs(f.evaluate(-Y) - sign * f.evaluate(Y)) <= tol)
    shifted = f + GP.constant(d.n, 1.0)
    assert shifted.homogeneity_degree(d) is None
