"""Semi-tensor products, coefficient-vector polynomials, homogenization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slemma import CoeffVecPolynomial, Dilation, GeneralizedPolynomial
from slemma.stp_poly import (
    homogenize,
    index_to_multidegree,
    multidegree_to_index,
    stp,
    stp_power,
    to_coeff_vec,
    to_generalized,
)

from conftest import COEFFS, coordinates

GP = GeneralizedPolynomial


def test_stp_is_kron():
    u = np.array([1.0, 2.0])
    v = np.array([3.0, 4.0, 5.0])
    assert np.array_equal(stp(u, v), np.kron(u, v))


def test_stp_associativity():
    rng = np.random.default_rng(21)
    for _ in range(25):
        u = rng.normal(size=rng.integers(1, 5))
        v = rng.normal(size=rng.integers(1, 5))
        w = rng.normal(size=rng.integers(1, 5))
        left = stp(stp(u, v), w)
        right = stp(u, stp(v, w))
        assert np.allclose(left, right, rtol=1e-12, atol=1e-12)


def test_stp_power():
    x = np.array([2.0, -1.0])
    assert np.array_equal(stp_power(x, 0), [1.0])
    assert np.array_equal(stp_power(x, 1), x)
    assert np.array_equal(stp_power(x, 3), np.kron(np.kron(x, x), x))
    with pytest.raises(ValueError):
        stp_power(x, -1)


def test_index_multidegree_round_trip():
    n, m = 3, 4
    seen = set()
    for idx in range(n ** m):
        multi = index_to_multidegree(idx, n, m)
        assert sum(multi) == m
        canon = multidegree_to_index(multi, n)
        assert index_to_multidegree(canon, n, m) == multi
        seen.add(multi)
    # number of distinct monomials of degree m in n variables
    assert len(seen) == 15


def test_canonical_index_is_minimal():
    # x*y and y*x collapse to one canonical slot
    assert multidegree_to_index((1, 1), 2) == 1  # digits (0, 1) -> 0*2+1


def test_coeffvec_evaluate_matches_stp_form():
    rng = np.random.default_rng(22)
    p = CoeffVecPolynomial(2, {0: {0: -2.0}, 2: {0: 1.0, 1: 0.5}, 3: {7: 3.0}})
    for _ in range(10):
        x = rng.normal(size=2)
        assert p.evaluate(x) == pytest.approx(p.evaluate_stp(x), rel=1e-12)


def test_coeffvec_evaluate_matches_generalized():
    rng = np.random.default_rng(23)
    p = CoeffVecPolynomial(3, {1: {0: 1.0}, 2: {4: -2.0}, 4: {5: 0.25}})
    q = to_generalized(p)
    X = rng.normal(size=(30, 3))
    assert np.allclose(p.evaluate(X), q.evaluate(X), rtol=1e-12)


def test_coeffvec_json_round_trip():
    p = CoeffVecPolynomial.from_json(2, {"6:0": -7.0, "6:7": -2.0, "0:0": 1.5})
    q = CoeffVecPolynomial.from_json(2, p.to_json())
    assert p.to_json() == q.to_json()
    with pytest.raises(ValueError):
        CoeffVecPolynomial.from_json(2, {"60": 1.0})


def test_coeffvec_index_bounds():
    with pytest.raises(ValueError):
        CoeffVecPolynomial(2, {2: {4: 1.0}})  # 2^2 = 4 slots, max index 3


def test_to_coeff_vec_round_trip():
    rng = np.random.default_rng(24)
    p = GP.from_terms(2, [(1, (3, 0)), (-2, (1, 2)), (0.5, (0, 0))])
    cv = to_coeff_vec(p)
    X = rng.normal(size=(20, 2))
    assert np.allclose(cv.evaluate(X), p.evaluate(X), rtol=1e-12)
    assert to_coeff_vec(cv) is cv


def test_to_coeff_vec_rejects_fractional_and_abs():
    with pytest.raises(ValueError):
        to_coeff_vec(GP.from_terms(1, [(1, ((2, 3),))]))
    with pytest.raises(ValueError):
        to_coeff_vec(GP.from_terms(1, [(1, (1,), (False,))]))


def test_homogenize_t1_round_trip():
    rng = np.random.default_rng(25)
    p = CoeffVecPolynomial.from_json(
        2, {"6:0": -7.0, "6:7": -2.0, "6:63": 5.0, "6:3": -2.0, "0:0": -2.0})
    lift = homogenize(p, 6)
    assert lift.n == 3
    d3 = Dilation.standard(3)
    assert lift.homogeneity_degree(d3) == pytest.approx(6.0)
    for _ in range(20):
        x = rng.normal(size=2)
        lifted = lift(np.append(x, 1.0))
        assert lifted == pytest.approx(p.evaluate(x), rel=1e-10, abs=1e-12)


def test_homogenize_scaling_identity():
    rng = np.random.default_rng(26)
    p = CoeffVecPolynomial(1, {0: {0: 1.0}, 1: {0: 2.0}, 3: {0: -1.0}})
    lift = homogenize(p, 3)
    for _ in range(10):
        x, t = rng.normal(size=2)
        c = rng.uniform(0.2, 3.0)
        assert lift([c * x, c * t]) == pytest.approx(c ** 3 * lift([x, t]),
                                                     rel=1e-10, abs=1e-12)


def test_homogenize_rejects_low_target():
    p = CoeffVecPolynomial(2, {4: {0: 1.0}})
    with pytest.raises(ValueError):
        homogenize(p, 3)


def test_method_homogenize_stays_coeffvec():
    p = CoeffVecPolynomial(1, {0: {0: 3.0}, 2: {0: 1.0}})
    lift = p.homogenize(2)
    assert isinstance(lift, CoeffVecPolynomial)
    assert lift.is_homogeneous
    assert lift.evaluate([2.0, 1.0]) == pytest.approx(7.0)


@st.composite
def coeff_vec_polynomials(draw):
    n = draw(st.integers(1, 3))
    layers = {}
    for m in draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)):
        idx = draw(st.lists(st.integers(0, n ** m - 1), min_size=1, max_size=4))
        layers[m] = {i: draw(COEFFS) for i in idx}
    return CoeffVecPolynomial(n, layers)


@settings(max_examples=100, deadline=None)
@given(coeff_vec_polynomials(), st.integers(0, 3), st.data())
def test_homogenize_at_t1_reproduces_the_polynomial(p, extra, data):
    X = np.array(data.draw(st.lists(st.lists(coordinates(3.0), min_size=p.n,
                                             max_size=p.n), min_size=1, max_size=8)))
    lift = homogenize(p, p.degree + extra)
    got = lift.evaluate(np.column_stack([X, np.ones(len(X))]))
    size = CoeffVecPolynomial(p.n, {m: {i: abs(c) for i, c in layer.items()}
                                    for m, layer in p.layers.items()}).evaluate(np.abs(X))
    assert np.all(np.abs(got - p.evaluate(X)) <= 1e-12 * size)
