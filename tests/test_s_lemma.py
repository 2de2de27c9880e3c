"""Copositivity decisions and multiplier searches (strict and non-strict)."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slemma import (
    CoeffVecPolynomial,
    Dilation,
    GeneralizedPolynomial,
    ReasonCode,
    SampledPair,
    find_nhs_multiplier,
    find_nonstrict_multiplier,
    find_strict_multiplier,
    is_copositive,
    load_problem,
    shs_condition,
)
from slemma import homog_core, s_lemma
from slemma.cli import main
from slemma.s_lemma import NBINS, _count_lines, _direction_collisions, _DirectionBins

from conftest import quad_form, random_symmetric

GP = GeneralizedPolynomial


# -------------------------------------------------------------- copositivity


def test_cubic_pair_copositive_but_not_strictly(cubic_pair, d2):
    f, g = cubic_pair
    assert is_copositive(f, g, d2, strict=False).holds
    rep = is_copositive(f, g, d2, strict=True)
    assert not rep.holds
    # the strict minimum sits at the shared diagonal zero
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    err = min(np.linalg.norm(rep.witness - diag),
              np.linalg.norm(rep.witness + diag))
    assert err < 1e-2


def test_positive_definite_is_strictly_copositive(d2):
    # (x^2+y^2)^3 expanded
    f = GP.from_terms(2, [(1, (6, 0)), (3, (4, 2)), (3, (2, 4)), (1, (0, 6))])
    g = GP.from_terms(2, [(1, (6, 0)), (-1, (0, 6))])
    rep = is_copositive(f, g, d2, strict=True)
    assert rep.holds and not rep.vacuous
    assert rep.min_value > 0


def test_sextic_pair_strictly_copositive(sextic_pair, d2):
    rep = is_copositive(*sextic_pair, d2, strict=True)
    assert rep.holds
    assert rep.min_value == pytest.approx(0.8978315521281335, rel=1e-9)


def test_vacuous_constraint_region(d2):
    f = GP.from_terms(2, [(1, (6, 0)), (1, (0, 6))])
    g = GP.from_terms(2, [(-1, (6, 0)), (-1, (0, 6))])
    rep = is_copositive(f, g, d2, strict=True)
    assert rep.holds and rep.vacuous
    assert rep.min_value is None


def test_copositivity_against_dense_grid(d2):
    # seeded random sextic pairs, cross-checked against a brute-force grid
    rng = np.random.default_rng(51)
    t = np.linspace(0.0, 2 * np.pi, 100001)
    X = np.column_stack([np.cos(t), np.sin(t)])
    for _ in range(10):
        f = GP.from_terms(2, [(rng.normal(), (6, 0)), (rng.normal(), (4, 2)),
                              (rng.normal(), (2, 4)), (rng.normal(), (0, 6))])
        g = GP.from_terms(2, [(rng.normal(), (6, 0)), (rng.normal(), (3, 3)),
                              (rng.normal(), (0, 6))])
        F, Gv = f.evaluate(X), g.evaluate(X)
        mask = Gv >= 0
        if not mask.any():
            continue
        brute = F[mask].min()
        scale = np.abs(F).max()
        if abs(brute) < 1e-4 * scale:
            continue  # too close to the boundary to classify robustly
        rep = is_copositive(f, g, d2, strict=True)
        assert rep.holds == (brute > 0)


# ------------------------------------------------------------- gap condition


def test_sextic_pair_gap_condition(sextic_pair, d2):
    rep = shs_condition(*sextic_pair, d2)
    assert rep.holds
    assert rep.symmetrized_gap == pytest.approx(0.409807265615424, rel=1e-6)
    a, b = rep.witness_direction
    assert a * a + b * b == pytest.approx(1.0)


def test_gap_condition_witness_avoids_image(sextic_pair, d2):
    rep = shs_condition(*sextic_pair, d2)
    summary = SampledPair.draw(*sextic_pair, d2).image()
    a, b = rep.witness_direction
    for target in (np.arctan2(b, a), np.arctan2(-b, -a)):
        delta = np.abs((summary.directions - target + np.pi) % (2 * np.pi) - np.pi)
        assert delta.min() > 0.05


def test_gap_condition_fails_when_sector_reaches_pi(sector_gallery, d2):
    p1, _, _, p4 = sector_gallery
    assert not shs_condition(*p1, d2).holds
    assert not shs_condition(*p4, d2).holds


def test_gap_condition_requires_even_pair(cubic_pair, d2):
    with pytest.raises(ValueError):
        shs_condition(*cubic_pair, d2)


# ---------------------------------------------------------- strict multiplier


def test_margin_at_fixed_multiplier(sextic_pair, d2):
    pair = SampledPair.draw(*sextic_pair, d2)
    vals = pair.F - 2.0 * pair.G
    assert np.min(vals) == pytest.approx(0.75, abs=1e-9)
    assert np.hypot(*pair.X[np.argmin(vals)]) == pytest.approx(1.0)


def test_sextic_pair_certificate(sextic_pair, d2):
    cert = find_strict_multiplier(*sextic_pair, d2)
    assert cert.ok and cert.strict
    assert cert.xi == pytest.approx(2.6475887160230425, rel=1e-9)
    assert cert.margin == pytest.approx(0.8866951600563101, rel=1e-9)
    assert cert.margin >= 0.75
    assert all(c["ok"] for c in cert.checks)
    names = [c["check"] for c in cert.checks]
    assert names == ["zero_margin", "strict_copositivity", "shs_condition",
                     "margin_maximization", "fresh_verification"]


def test_refined_margin_dominates_initial(sextic_pair, d2):
    cert = find_strict_multiplier(*sextic_pair, d2)
    assert cert.xi_initial is not None and cert.xi_initial > 0
    assert cert.margin_derivation >= cert.margin_initial


def test_certificate_scaling_invariance(sextic_pair, d2):
    f, g = sextic_pair
    base = find_strict_multiplier(f, g, d2)
    scaled = find_strict_multiplier(5.0 * f, 5.0 * g, d2)
    assert scaled.ok
    assert scaled.xi == pytest.approx(base.xi, rel=1e-6)
    assert scaled.margin == pytest.approx(5.0 * base.margin, rel=1e-6)


# ---------------------------------------------------------------- margin scan


def _reference_maximize_margin(F, G, extra_candidates=(), allow_zero=False):
    """`_maximize_margin` scanning every row: the reference its filtered
    scan must match bit for bit, raises included."""
    cands = list(np.geomspace(s_lemma.XI_GRID_LO, s_lemma.XI_GRID_HI, s_lemma.XI_GRID_POINTS))
    cands.extend(x for x in extra_candidates if x is not None and x > 0)
    if allow_zero:
        cands.append(0.0)
    xis = np.array(sorted(set(cands)))
    margins = np.empty(len(xis))
    for s in range(0, len(xis), 32):
        blk = xis[s:s + 32]
        margins[s:s + 32] = np.min(F[None, :] - blk[:, None] * G[None, :], axis=1)
    i = int(np.argmax(margins))
    lo = xis[max(i - 1, 0)]
    hi = xis[min(i + 1, len(xis) - 1)]
    xi_star, m_star = s_lemma._golden_max(lambda x: float(np.min(F - x * G)),
                                          float(lo), float(hi))
    if margins[i] > m_star:
        xi_star, m_star = float(xis[i]), float(margins[i])
    return xi_star, m_star


def _scan_outcome(search, F, G, **kw):
    """The bytes of (xi, margin), or the message of the scan's overflow."""
    try:
        with homog_core.overflow_guard("margin scan"):
            return np.array(search(F, G, **kw), dtype=float).tobytes()
    except FloatingPointError as e:
        return str(e)


def _assert_same_scan(F, G, **kw):
    F, G = np.asarray(F, dtype=float), np.asarray(G, dtype=float)
    assert (_scan_outcome(s_lemma._maximize_margin, F, G, **kw)
            == _scan_outcome(_reference_maximize_margin, F, G, **kw))


EXTRA_XI = st.sampled_from([(), (None,), (0.37,), (2.5e6,), (-1.0, 4.0)])


@st.composite
def margin_rows(draw):
    """(F, G) of up to 300 rows: continuous values, or values on a coarse
    lattice (ties in F and in G), with exact repeats of rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 300))
    F = rng.normal(draw(st.sampled_from([-1.0, 0.0, 1.0])), 1.0, m)
    G = rng.normal(0.0, 1.0, m)
    if draw(st.booleans()):
        F, G = np.round(4.0 * F) / 4.0, np.round(4.0 * G) / 4.0
    repeat = rng.integers(0, m, draw(st.integers(0, m)))
    return np.concatenate([F, F[repeat]]), np.concatenate([G, G[repeat]])


@settings(max_examples=150, deadline=None)
@given(margin_rows(), EXTRA_XI, st.booleans())
def test_margin_scan_matches_the_full_scan(FG, extra, allow_zero):
    _assert_same_scan(*FG, extra_candidates=extra, allow_zero=allow_zero)


@pytest.mark.parametrize("F, G", [
    ([0.0, 1.0, 2.0, 0.0], [0.0, -1.0, 0.5, 0.0]),  # +0.0 from several rows
    ([0.0, 0.0], [1.0, -1.0]),                     # +0.0 at xi = 0 only
    ([-0.0, -0.0], [1.0, -1.0]),                   # -0.0 and +0.0 at xi = 0
    ([-0.0, 0.0, 1.0], [0.0, 0.0, 1.0]),           # both zeros at every xi
    ([-0.0, 1.0, 3.0], [0.0, 1.0, -2.0]),          # -0.0 beside 1 - 1*1 = +0.0
    ([-0.0, 0.0, 2.0], [-0.0, 0.0, -1.0]),         # signed zeros in G
    ([-0.0], [0.0]),                               # -0.0 alone
])
@pytest.mark.parametrize("allow_zero", [False, True])
def test_margin_scan_keeps_the_sign_of_a_zero_margin(F, G, allow_zero):
    _assert_same_scan(F, G, allow_zero=allow_zero)
    _assert_same_scan(F, G, extra_candidates=(1.0,), allow_zero=allow_zero)


# Each overflowing row is dominated by (0, 0) or by the first row, so a
# filter that dropped it would not raise, or raise in a later xi block.
@pytest.mark.parametrize("F, G, extra, message", [
    # xi*G overflows from xi ~ 1.8e5
    ([0.0, 5.0], [0.0, -1e303], (), "multiply"),
    # F - xi*G overflows from xi ~ 1.3e3, before the first row's xi*G does
    ([0.0, 1.7e308], [1e303, -1e304], (), "subtract"),
    # only the candidate above XI_GRID_HI reaches the overflow
    ([0.0, 5.0], [0.0, -1e302], (1e7,), "multiply"),
    ([0.0, 5.0], [0.0, -1e302], (), None),
])
def test_margin_scan_overflows_where_the_full_scan_does(F, G, extra, message):
    F, G = np.array(F), np.array(G)
    got = _scan_outcome(s_lemma._maximize_margin, F, G, extra_candidates=extra)
    assert got == _scan_outcome(_reference_maximize_margin, F, G, extra_candidates=extra)
    if message is not None:
        assert got == f"margin scan: overflow encountered in {message}"


def test_deciding_rows_are_few_and_in_their_original_order():
    rng = np.random.default_rng(5)
    F, G = rng.normal(size=4096), rng.normal(size=4096)
    Fk, Gk = s_lemma._deciding_rows(F, G, s_lemma.XI_GRID_HI)
    rows = {(f, g): j for j, (f, g) in enumerate(zip(F, G))}
    kept = [rows[f, g] for f, g in zip(Fk, Gk)]
    assert 0 < len(kept) < 100
    assert kept == sorted(kept)


def test_certificate_fresh_seed_soundness(sextic_pair, d2):
    f, g = sextic_pair
    cert = find_strict_multiplier(f, g, d2)
    rng = np.random.default_rng(987654)
    Z = rng.normal(size=(5000, 2))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    vals = f.evaluate(Z) - cert.xi * g.evaluate(Z)
    assert vals.min() > 0


def test_one_dimensional_certificate():
    d1 = Dilation.standard(1)
    f = GP.from_terms(1, [(1, (2,))])
    g = GP.from_terms(1, [(-1, (2,))])
    pair = SampledPair.draw(f, g, d1)
    assert np.min(pair.F - 1.0 * pair.G) == pytest.approx(2.0)
    cert = find_strict_multiplier(f, g, d1)
    assert cert.ok and cert.xi > 0 and cert.margin > 0


def test_failure_common_zero(cubic_pair, d2):
    res = find_strict_multiplier(*cubic_pair, d2)
    assert not res.ok
    assert res.reason is ReasonCode.COMMON_ZERO
    assert res.witness is not None


def test_failure_not_copositive(d2):
    f = GP.from_terms(2, [(1, (4, 0)), (-3, (0, 4))])
    g = GP.from_terms(2, [(1, (4, 0)), (1, (0, 4))])
    res = find_strict_multiplier(f, g, d2)
    assert not res.ok
    assert res.reason is ReasonCode.NOT_COPOSITIVE


def test_failure_sector_at_least_pi(wide_copositive_pair, d2):
    # strictly copositive, yet the image sector spans more than pi, so no
    # single multiplier can work; the gap condition is what fails
    f, g = wide_copositive_pair
    assert is_copositive(f, g, d2, strict=True).holds
    res = find_strict_multiplier(f, g, d2)
    assert not res.ok
    assert res.reason is ReasonCode.SECTOR_GE_PI


def test_quadratic_pairs_against_eigenvalue_oracle(d2):
    # for quadratic forms the sphere minimum of f - xi*g is an eigenvalue,
    # giving an independent line-search oracle for the best margin
    rng = np.random.default_rng(52)
    xis = np.geomspace(1e-3, 1e3, 601)
    certified = 0
    draws = 0
    while certified < 10 and draws < 300:
        draws += 1
        Qf = random_symmetric(rng, 2)
        Qg = random_symmetric(rng, 2)
        margins = np.array([np.linalg.eigvalsh(Qf - xi * Qg)[0] for xi in xis])
        best = margins.max()
        scale = max(np.abs(Qf).max(), np.abs(Qg).max())
        if best < 1e-3 * scale:
            continue
        f, g = quad_form(Qf), quad_form(Qg)
        cert = find_strict_multiplier(f, g, d2)
        assert cert.ok, f"oracle found xi but search failed (draw {draws})"
        eig_at_cert = np.linalg.eigvalsh(Qf - cert.xi * Qg)[0]
        assert eig_at_cert > 0
        assert cert.margin == pytest.approx(eig_at_cert, rel=1e-3, abs=1e-6 * scale)
        assert cert.margin >= 0.9 * best
        certified += 1
    assert certified == 10


def test_quadratic_failures_are_honest(d2):
    rng = np.random.default_rng(53)
    t = np.linspace(0.0, 2 * np.pi, 20001)
    X = np.column_stack([np.cos(t), np.sin(t)])
    rejected = 0
    draws = 0
    while rejected < 5 and draws < 200:
        draws += 1
        Qf = random_symmetric(rng, 2)
        Qg = random_symmetric(rng, 2)
        f, g = quad_form(Qf), quad_form(Qg)
        F, Gv = f.evaluate(X), g.evaluate(X)
        mask = Gv >= 0
        scale = np.abs(F).max()
        if not mask.any() or F[mask].min() > -1e-3 * scale:
            continue  # keep only clearly non-copositive pairs
        res = find_strict_multiplier(f, g, d2)
        assert not res.ok
        rejected += 1
    assert rejected == 5


# ------------------------------------------------------ non-strict multiplier


def test_nonnegative_f_gets_zero_multiplier(d2):
    f = GP.from_terms(2, [(1, (4, 0)), (1, (0, 4))])
    g = GP.from_terms(2, [(1, (4, 0)), (-1, (0, 4))])
    cert = find_nonstrict_multiplier(f, g)
    assert cert.ok and not cert.strict
    assert cert.xi == 0.0
    assert cert.margin >= -1e-9


def test_sextic_pair_nonstrict_multiplier(sextic_pair):
    f, g = sextic_pair
    cert = find_nonstrict_multiplier(f, g)
    assert cert.ok
    assert cert.xi > 0  # f takes negative values, so xi = 0 cannot work
    scale = 7.0
    assert cert.margin >= -1e-9 * scale
    # the exact algebra: f - 2g collapses to 3(x^6 + y^6)
    target = GP.from_terms(2, [(3, (6, 0)), (3, (0, 6))])
    assert (f - 2.0 * g - target).is_zero
    pair = SampledPair.draw(f, g, Dilation.standard(2))
    assert np.min(pair.F - 2.0 * pair.G) == pytest.approx(0.75, abs=1e-9)


def test_shared_cube_line_pair():
    # f = g = x^3 on one variable: the image is a line, the best
    # multiplier is exactly 1 with zero margin
    c = GP.from_terms(1, [(1, (3,))])
    cert = find_nonstrict_multiplier(c, c)
    assert cert.ok
    assert cert.xi == pytest.approx(1.0, rel=1e-6)
    assert abs(cert.margin) < 1e-9


def test_nonstrict_failure_modes(cubic_pair):
    res = find_nonstrict_multiplier(*cubic_pair)
    assert not res.ok and res.reason is ReasonCode.COMMON_ZERO

    f = GP.from_terms(2, [(1, (3, 0))])
    g = GP.from_terms(2, [(1, (0, 3))])
    res = find_nonstrict_multiplier(f, g)
    assert not res.ok and res.reason is ReasonCode.NOT_COPOSITIVE


def test_nonstrict_preconditions():
    frac = GP.from_terms(2, [(1, ((4, 3), 0))])
    even = GP.from_terms(2, [(1, (4, 0))])
    with pytest.raises(ValueError):
        find_nonstrict_multiplier(frac, frac)
    with pytest.raises(ValueError):
        find_nonstrict_multiplier(GP.constant(2, 1.0), GP.constant(2, 2.0))
    with pytest.raises(ValueError):
        find_nonstrict_multiplier(even, even, Dilation((3, 1)))


def test_nonstrict_fresh_seed_soundness(sextic_pair):
    f, g = sextic_pair
    cert = find_nonstrict_multiplier(f, g)
    rng = np.random.default_rng(246810)
    Z = rng.normal(size=(5000, 2))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    vals = f.evaluate(Z) - cert.xi * g.evaluate(Z)
    assert vals.min() >= -1e-8 * np.abs(vals).max()


# ------------------------------------------------------------ line detection


def test_direction_collisions_detects_antipodes():
    t = np.linspace(0.1, 0.4, 5)
    A = np.column_stack([np.cos(t), np.sin(t)])
    hits = _direction_collisions(_DirectionBins(A), _DirectionBins(-A))
    assert hits
    for u, v in hits:
        assert u[0] * v[0] + u[1] * v[1] < 0
        assert abs(u[0] * v[1] - u[1] * v[0]) <= 1e-6


def test_direction_collisions_empty_for_half_plane():
    t = np.linspace(-1.2, 1.2, 50)
    bins = _DirectionBins(np.column_stack([np.cos(t), np.sin(t)]))
    assert _direction_collisions(bins, bins) == []


def _reference_bin_occupancy(U, nbins, cap=96):
    """The per-point loop that `_bin_occupancy` vectorizes: the reference
    its output must match byte for byte."""
    ang = np.arctan2(U[:, 1], U[:, 0])
    bins = ((ang + math.pi) / (2 * math.pi) * nbins).astype(int) % nbins
    occ = {}
    seen = set()
    for b, u in zip(bins, np.round(U, 9)):
        key = (b, u[0], u[1])
        if key in seen:
            continue
        seen.add(key)
        lst = occ.setdefault(int(b), [])
        if len(lst) < cap:
            lst.append(u)
    return {b: np.array(lst) for b, lst in occ.items()}


# Axis directions with both signs of zero: (0.0, 1.0) and (-0.0, 1.0) fall
# in one bin and are equal by value; so do (-1.0, 0.0) and (-1.0, -0.0),
# at angles pi and -pi, which both land in bin 0.
SIGNED_AXES = [(0.0, 1.0), (-0.0, 1.0), (1.0, 0.0), (1.0, -0.0),
               (-1.0, 0.0), (-1.0, -0.0), (0.0, -1.0), (-0.0, -1.0)]


@st.composite
def unit_sets(draw, max_clusters=3):
    """Shuffled unit vectors: angle clusters narrower than a bin and up to
    250 strong (past the per-bin cap), or 1e-11 wide (duplicates after
    9-digit rounding), signed-zero axis vectors and exact repeats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pieces = [np.array(draw(st.lists(st.sampled_from(SIGNED_AXES), max_size=12)),
                       dtype=float).reshape(-1, 2)]
    for _ in range(draw(st.integers(0, max_clusters))):
        centre = draw(st.floats(-math.pi, math.pi))
        width = draw(st.sampled_from([2e-3, 1e-11, 0.5]))
        t = centre + width * rng.uniform(-1.0, 1.0, draw(st.integers(1, 250)))
        pieces.append(np.column_stack([np.cos(t), np.sin(t)]))
    U = np.vstack(pieces)
    if len(U):
        U = np.vstack([U, U[rng.integers(0, len(U), draw(st.integers(0, 20)))]])
    return U[rng.permutation(len(U))]


def _assert_same_occupancy(got, want):
    assert got.keys() == want.keys()
    for b in want:
        assert got[b].dtype == want[b].dtype and got[b].shape == want[b].shape
        assert got[b].tobytes() == want[b].tobytes(), f"bin {b}"


@settings(max_examples=150, deadline=None)
@given(unit_sets())
def test_bin_occupancy_matches_the_reference_loop(U):
    _assert_same_occupancy(s_lemma._bin_occupancy(U, NBINS),
                           _reference_bin_occupancy(U, NBINS))


def test_bin_occupancy_keeps_first_seen_rows_by_value():
    U = np.array([(-1.0, -0.0), (0.6, 0.8), (-1.0, 0.0), (0.6, 0.8 + 1e-12)])
    occ = s_lemma._bin_occupancy(U, NBINS)
    assert sorted(occ) == [0, 932]
    assert occ[0].tobytes() == np.array([[-1.0, -0.0]]).tobytes()
    assert len(occ[932]) == 1
    t = np.linspace(0.0, 1e-3, 200)
    assert len(s_lemma._bin_occupancy(np.column_stack([np.cos(t), np.sin(t)]), NBINS)[720]) == 96


@st.composite
def point_sets(draw):
    """Unit sets scaled per row by radii that include zero and values that
    only some queries' zero tolerance drops, at one overall scale."""
    U = draw(unit_sets(max_clusters=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radii = rng.choice([0.0, 1e-9, 0.5, 1.0, 3.0], size=len(U))
    return U * radii[:, None] * draw(st.sampled_from([1.0, 1e6]))


@settings(max_examples=100, deadline=None)
@given(point_sets(), point_sets(), st.data())
def test_direction_collisions_match_the_reference_binning(A, T, data):
    """The queries of the NHS chain, (T, T), (A, A) and (A, T), on two
    shared binned sets give the hit lists of the reference loop run on a
    fresh binning per operand, in order and truncated at 64."""
    if len(A):
        flip = data.draw(st.lists(st.integers(0, len(A) - 1), max_size=200))
        T = np.vstack([T, -A[flip]])
    bins_a, bins_t = _DirectionBins(A), _DirectionBins(T)
    got = [_direction_collisions(bins_t, bins_t), _direction_collisions(bins_a, bins_a),
           _direction_collisions(bins_a, bins_t)]
    with mock.patch.object(s_lemma, "_bin_occupancy", _reference_bin_occupancy):
        want = [_direction_collisions(_DirectionBins(X), _DirectionBins(Y))
                for X, Y in ((T, T), (A, A), (A, T))]
    assert got == want


def test_direction_collisions_truncate_at_64_hits():
    t = np.linspace(0.1, 0.101, 300)
    A = np.column_stack([np.cos(t), np.sin(t)])
    P = np.vstack([A, -A])
    bins = _DirectionBins(P)
    hits = _direction_collisions(bins, bins)
    assert len(hits) == 64
    with mock.patch.object(s_lemma, "_bin_occupancy", _reference_bin_occupancy):
        assert hits == _direction_collisions(_DirectionBins(P), _DirectionBins(P))


def test_count_lines_clusters_antipodal_directions():
    ray = np.linspace(0.2, 1.0, 8)
    axis = np.column_stack([ray, 0 * ray])
    diag = np.column_stack([ray, 2.0 * ray])
    one_line = np.vstack([axis, -axis])
    assert _count_lines(one_line)[0] == 1
    two_lines = np.vstack([axis, -axis, diag, -diag])
    count, angles = _count_lines(two_lines)
    assert count == 2
    assert sorted(round(a, 6) for a in angles) == pytest.approx(
        [0.0, np.arctan(2.0)], abs=1e-6)
    assert _count_lines(np.vstack([axis, diag]))[0] == 0


def test_count_lines_sees_lines_past_the_first_64_collisions():
    # Ten close directions per line give 200 collisions per line, so the
    # first line met in the bin walk alone fills a 64-hit report.
    pieces = []
    for a in (0.3, 1.2, 2.0):
        t = a + 1e-8 * np.arange(10)
        U = np.column_stack([np.cos(t), np.sin(t)])
        pieces += [U, -U]
    count, angles = _count_lines(np.vstack(pieces))
    assert count == 3
    assert angles == pytest.approx([0.3, 1.2, 2.0], abs=1e-6)


def test_count_lines_splits_a_continuum_of_directions():
    # every direction of the plane, both ways: a cluster chained through
    # small gaps would call this one line and pass the image_lines check
    t = np.linspace(0.0, 2.0 * np.pi, 65536, endpoint=False)
    r = 1.5 + np.sin(3.0 * t)
    P = np.column_stack([r * np.cos(t), r * np.sin(t)])
    count, angles = _count_lines(np.vstack([P, -P]))
    assert count == 157
    assert len(angles) == count


# ------------------------------------------------- non-homogeneous multiplier


@pytest.fixture(scope="module")
def affine_pair():
    f = CoeffVecPolynomial.from_json(
        2, {"6:0": -7.0, "6:7": -2.0, "6:63": 5.0, "6:3": -2.0, "0:0": -2.0})
    g = CoeffVecPolynomial.from_json(
        2, {"6:0": -5.0, "6:7": -1.0, "6:63": 1.0, "6:3": -1.0, "0:0": -1.0})
    return f.to_generalized(), g.to_generalized()


def test_affine_pair_certificate(affine_pair):
    f, g = affine_pair
    cert = find_nhs_multiplier(f, g)
    assert cert.ok and not cert.strict
    assert cert.xi >= 0
    assert cert.margin >= -1e-8
    assert cert.details["t1_margin"] >= -1e-8
    assert cert.details["lift_degree"] == 6
    # the shifted pair still satisfies the exact sextic identity at xi = 2
    target = GP.from_terms(2, [(3, (6, 0)), (3, (0, 6))])
    assert (f - 2.0 * g - target).is_zero


def test_affine_pair_multiplier_verifies_on_random_box(affine_pair):
    f, g = affine_pair
    cert = find_nhs_multiplier(f, g)
    rng = np.random.default_rng(135791)
    X = rng.uniform(-10.0, 10.0, size=(20000, 2))
    vals = f.evaluate(X) - cert.xi * g.evaluate(X)
    assert vals.min() >= -1e-7 * max(1.0, np.abs(vals).max())


def test_constant_shift_certificate():
    # f = g + 1 with g >= 0 everywhere: any xi in [0, 1] works
    g = GP.from_terms(1, [(1.0, (2,))])
    f = GP.from_terms(1, [(1.0, (2,)), (1.0, (0,))])
    cert = find_nhs_multiplier(f, g)
    assert cert.ok
    assert 0.0 <= cert.xi <= 1.0 + 1e-9
    X = np.linspace(-5, 5, 101)[:, None]
    assert (f.evaluate(X) - cert.xi * g.evaluate(X)).min() >= -1e-9


def test_homogeneous_input_shares_zero(cubic_pair):
    res = find_nhs_multiplier(*cubic_pair)
    assert not res.ok
    assert res.reason is ReasonCode.COMMON_ZERO
    assert res.stage == "affine"


def test_top_form_direction_collision():
    # top forms x^3 and 2x^3 map the two sphere points to opposite
    # directions, which kills the lifted pair before any search runs
    f = GP.from_terms(1, [(1.0, (3,)), (0.6, (0,))])
    g = GP.from_terms(1, [(2.0, (3,)), (1.0, (0,))])
    res = find_nhs_multiplier(f, g)
    assert not res.ok
    assert res.reason is ReasonCode.NHS_ITEM_1


# ------------------------------------------------------------ sample passes


@pytest.fixture
def sphere_calls(monkeypatch):
    """Record every sphere_samples call, through each slemma module that
    binds the name."""
    real = homog_core.sphere_samples
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "slemma" and getattr(mod, "sphere_samples", None) is real:
            monkeypatch.setattr(mod, "sphere_samples", counted)
    return calls


def test_each_check_chain_samples_its_pair_once(sphere_calls, problems_dir, tmp_path):
    """Strict and non-strict: one pair plus the independent re-verification
    set.  NHS: the affine and top-form pairs plus the two sets of the
    lifted non-strict search.  `slemma image`: one pair shared by the
    classification and the convexity probe."""
    sextic = load_problem(problems_dir / "switch_sextic.json")
    f, g = sextic.pair()
    shifted = load_problem(problems_dir / "affine_sextic_shift.json")
    runs = {
        "strict": lambda: find_strict_multiplier(f, g, sextic.dilation).ok,
        "non-strict": lambda: find_nonstrict_multiplier(f, g, sextic.dilation).ok,
        "nhs": lambda: find_nhs_multiplier(*shifted.pair()).ok,
        "image": lambda: main(["image", str(problems_dir / "sector_sextic_wide.json"),
                               "--out-dir", str(tmp_path)]) == 0,
    }
    counts = {}
    for name, run in runs.items():
        sphere_calls.clear()
        assert run(), name
        counts[name] = len(sphere_calls)
    assert counts == {"strict": 2, "non-strict": 2, "nhs": 4, "image": 1}


def test_nhs_rejects_fractional_powers_before_sampling(sphere_calls, problems_dir):
    f, g = load_problem(problems_dir / "switch_fractional.json").pair()
    with pytest.raises(ValueError, match="integer powers"):
        find_nhs_multiplier(f, g)
    assert sphere_calls == []
