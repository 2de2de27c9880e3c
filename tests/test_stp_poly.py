"""Coefficient-vector literals and integer-power homogenization."""

import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slemma import CoeffVecPolynomial, Dilation, GeneralizedPolynomial, load_problem
from slemma.stp_poly import homogenize, index_to_multidegree

from conftest import COEFFS, coordinates

GP = GeneralizedPolynomial
ROOT = Path(__file__).resolve().parent.parent
SHIPPED = sorted((ROOT / "problems").glob("*.json")) + [
    ROOT / "tests" / "fixtures" / "quartic3_pair.json"]


def parse(n, coeffs):
    return CoeffVecPolynomial.from_json(n, coeffs).to_generalized()


def stp_form(n, coeffs, x):
    """The defining form sum_m f_m x^m, x^m the m-fold Kronecker power."""
    total = 0.0
    for key, c in coeffs.items():
        m, idx = map(int, key.split(":"))
        power = reduce(np.kron, [x] * m, np.array([1.0]))
        total += c * power[idx]
    return total


# Reference: the lift through degree layers, as the coefficient-vector
# type once did it (re-encode the terms as layers, pad each layer with
# t^(k - degree), convert back to terms).

def _canonical_index(multi, n):
    idx = 0
    for var, count in enumerate(multi):
        for _ in range(count):
            idx = idx * n + var
    return idx


def _generalized_to_layers(p):
    layers = {}
    for (powers, _), coeff in p.terms.items():
        multi = tuple(q.numerator for q in powers)
        layer = layers.setdefault(sum(multi), {})
        idx = _canonical_index(multi, p.n)
        layer[idx] = layer.get(idx, 0.0) + coeff
    return CoeffVecPolynomial(p.n, layers)


def reference_homogenize(cv, k):
    out = {}
    for j, coeffs in cv.layers.items():
        for idx, c in coeffs.items():
            multi = index_to_multidegree(idx, cv.n, j) + (k - j,)
            new_idx = _canonical_index(multi, cv.n + 1)
            out[new_idx] = out.get(new_idx, 0.0) + c
    return CoeffVecPolynomial(cv.n + 1, {k: out}).to_generalized()


def test_index_multidegree_round_trip():
    n, m = 3, 4
    hits = {}
    for idx in range(n ** m):
        multi = index_to_multidegree(idx, n, m)
        assert sum(multi) == m
        assert index_to_multidegree(_canonical_index(multi, n), n, m) == multi
        hits[multi] = hits.get(multi, 0) + 1
    # every monomial of degree m in n variables, each at m!/prod(a_i!) indices
    assert len(hits) == 15
    assert all(c == math.factorial(m) // math.prod(map(math.factorial, a))
               for a, c in hits.items())


def test_canonical_index_is_minimal():
    # x*y and y*x address one monomial, so both slots collapse to one term
    p = parse(2, {"2:1": 0.5, "2:2": 0.25})
    assert p.terms == GP.from_terms(2, [(0.75, (1, 1))]).terms


def test_coeffvec_evaluate_matches_stp_form():
    rng = np.random.default_rng(22)
    coeffs = {"0:0": -2.0, "2:0": 1.0, "2:1": 0.5, "3:7": 3.0}
    p = parse(2, coeffs)
    for _ in range(10):
        x = rng.normal(size=2)
        assert p(x) == pytest.approx(stp_form(2, coeffs, x), rel=1e-12)


@st.composite
def coeff_literals(draw):
    n = draw(st.integers(1, 3))
    coeffs = {}
    for m in draw(st.sets(st.integers(0, 4), min_size=1, max_size=3)):
        for i in draw(st.lists(st.integers(0, n ** m - 1), min_size=1, max_size=4)):
            coeffs[f"{m}:{i}"] = draw(COEFFS)
    return n, coeffs


@settings(max_examples=100, deadline=None)
@given(coeff_literals(), st.data())
def test_coeff_literal_matches_the_stp_form(literal, data):
    n, coeffs = literal
    x = np.array(data.draw(st.lists(coordinates(3.0), min_size=n, max_size=n)))
    size = stp_form(n, {k: abs(c) for k, c in coeffs.items()}, np.abs(x))
    assert abs(parse(n, coeffs).evaluate(x) - stp_form(n, coeffs, x)) <= 1e-12 * size


def test_coeffvec_evaluate_matches_generalized():
    q = CoeffVecPolynomial(3, {1: {0: 1.0}, 2: {4: -2.0}, 4: {5: 0.25}}).to_generalized()
    # index 4 of degree 2 is x2*x2, index 5 of degree 4 is x3*x2*x1*x1
    expected = GP.from_terms(3, [(1.0, (1, 0, 0)), (-2.0, (0, 2, 0)),
                                 (0.25, (2, 1, 1))])
    assert q.terms == expected.terms


def test_coeffvec_json_round_trip():
    # a coeffs literal and the term list it parses to describe one polynomial
    p = parse(2, {"6:0": -7.0, "6:7": -2.0, "0:0": 1.5})
    # index 7 of degree 6 is x1*x1*x1*x2*x2*x2
    assert GP.from_json_terms(2, [
        {"coeff": -7.0, "powers": [{"num": 6}, {"num": 0}]},
        {"coeff": -2.0, "powers": [{"num": 3}, {"num": 3}]},
        {"coeff": 1.5, "powers": [{"num": 0}, {"num": 0}]},
    ]).terms == p.terms
    with pytest.raises(ValueError):
        CoeffVecPolynomial.from_json(2, {"60": 1.0})


def test_coeffvec_index_bounds():
    with pytest.raises(ValueError):
        CoeffVecPolynomial(2, {2: {4: 1.0}})  # 2^2 = 4 slots, max index 3


def test_homogenize_rejects_fractional_and_abs():
    with pytest.raises(ValueError, match="integer powers"):
        homogenize(GP.from_terms(1, [(1, ((2, 3),))]), 1)
    with pytest.raises(ValueError, match="plain monomials"):
        homogenize(GP.from_terms(1, [(1, (1,), (False,))]), 1)


def test_homogenize_t1_round_trip():
    rng = np.random.default_rng(25)
    p = parse(2, {"6:0": -7.0, "6:7": -2.0, "6:63": 5.0, "6:3": -2.0, "0:0": -2.0})
    lift = homogenize(p, 6)
    assert lift.n == 3
    d3 = Dilation.standard(3)
    assert lift.homogeneity_degree(d3) == pytest.approx(6.0)
    for _ in range(20):
        x = rng.normal(size=2)
        lifted = lift(np.append(x, 1.0))
        assert lifted == pytest.approx(p(x), rel=1e-10, abs=1e-12)


def test_homogenize_scaling_identity():
    rng = np.random.default_rng(26)
    p = GP.from_terms(1, [(1.0, (0,)), (2.0, (1,)), (-1.0, (3,))])
    lift = homogenize(p, 3)
    for _ in range(10):
        x, t = rng.normal(size=2)
        c = rng.uniform(0.2, 3.0)
        assert lift([c * x, c * t]) == pytest.approx(c ** 3 * lift([x, t]),
                                                     rel=1e-10, abs=1e-12)


def test_homogenize_rejects_low_target():
    p = GP.from_terms(2, [(1.0, (4, 0))])
    with pytest.raises(ValueError, match="below the degree"):
        homogenize(p, 3)


@settings(max_examples=100, deadline=None)
@given(coeff_literals(), st.integers(0, 3), st.data())
def test_homogenize_at_t1_reproduces_the_polynomial(literal, extra, data):
    n, coeffs = literal
    p = parse(n, coeffs)
    X = np.array(data.draw(st.lists(st.lists(coordinates(3.0), min_size=n,
                                             max_size=n), min_size=1, max_size=8)))
    lift = homogenize(p, (p.total_degree() or 0) + extra)
    got = lift.evaluate(np.column_stack([X, np.ones(len(X))]))
    size = GP(n, {key: abs(c) for key, c in p.terms.items()}).evaluate(np.abs(X))
    assert np.all(np.abs(got - p.evaluate(X)) <= 1e-12 * size)


# ------------------------------------------ agreement with the layer path


def _integer_power_pairs():
    for path in SHIPPED:
        prob = load_problem(path)
        if "f" in prob.functions and all(p.has_integer_powers() for p in prob.pair()):
            yield pytest.param(prob.pair(), id=path.stem)


@pytest.mark.parametrize("pair", _integer_power_pairs())
def test_homogenize_matches_the_layer_path_on_shipped_pairs(pair):
    k = int(max(p.total_degree() for p in pair))
    for p in pair:
        got = homogenize(p, k).terms
        want = reference_homogenize(_generalized_to_layers(p), k).terms
        assert list(got.items()) == list(want.items())


@settings(max_examples=100, deadline=None)
@given(coeff_literals(), st.integers(0, 3))
def test_homogenize_matches_the_layer_path_on_coeff_literals(literal, extra):
    n, coeffs = literal
    cv = CoeffVecPolynomial.from_json(n, coeffs)
    k = max(cv.layers, default=0) + extra
    got = homogenize(cv.to_generalized(), k).terms
    assert list(got.items()) == list(reference_homogenize(cv, k).terms.items())
