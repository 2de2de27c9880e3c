"""Copositivity decisions and multiplier searches (strict and non-strict)."""

import itertools
import math
import sys

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
    load_problem,
)
from slemma import homog_core, image_analysis, s_lemma
from slemma.cli import EXIT_CODE, main
from slemma.s_lemma import CROSS_TOL, _antipodes

from conftest import quad_form, quadratic_pairs, random_symmetric

GP = GeneralizedPolynomial


# -------------------------------------------------------------- copositivity


def test_cubic_pair_copositive_but_not_strictly(cubic_pair, d2):
    f, g = cubic_pair
    pair = SampledPair.draw(f, g, d2)
    assert pair.is_copositive(strict=False).holds
    rep = pair.is_copositive(strict=True)
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
    rep = SampledPair.draw(f, g, d2).is_copositive(strict=True)
    assert rep.holds and not rep.vacuous
    assert rep.min_value > 0


def test_sextic_pair_strictly_copositive(sextic_pair, d2):
    rep = SampledPair.draw(*sextic_pair, d2).is_copositive(strict=True)
    assert rep.holds
    assert rep.min_value == pytest.approx(0.8978315521281335, rel=1e-9)


def test_vacuous_constraint_region(d2):
    f = GP.from_terms(2, [(1, (6, 0)), (1, (0, 6))])
    g = GP.from_terms(2, [(-1, (6, 0)), (-1, (0, 6))])
    rep = SampledPair.draw(f, g, d2).is_copositive(strict=True)
    assert rep.holds and rep.vacuous
    assert rep.min_value is None


def test_strict_copositivity_reads_the_exact_common_zero_once(d2, sextic_pair, monkeypatch):
    # f and g both vanish at (-2, 1); the sampled minimum of f where g >= 0
    # is far above the strict threshold
    f = GP.from_terms(2, [(4, (0, 2)), (2, (1, 1))])
    g = GP.from_terms(2, [(2, (0, 2)), (-1, (1, 1)), (-1, (2, 0))])
    calls = []
    exact = image_analysis._common_zero_n2
    monkeypatch.setattr(image_analysis, "_common_zero_n2",
                        lambda f, g: calls.append(1) or exact(f, g))
    pair = SampledPair.draw(f, g, d2)
    rep = pair.is_copositive(strict=True)
    zm = pair.zero_margin()
    assert not rep.holds and not rep.vacuous and rep.min_value > rep.threshold
    assert zm.common_zero and np.array_equal(rep.witness, zm.witness)
    assert pair.is_copositive().holds
    assert len(calls) == 1
    # the strict chain's zero check and strict copositivity share one test
    calls.clear()
    assert find_strict_multiplier(*sextic_pair, d2).ok
    assert len(calls) == 1


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
        rep = SampledPair.draw(f, g, d2).is_copositive(strict=True)
        assert rep.holds == (brute > 0)


# ------------------------------------------------------------- gap condition


def test_sextic_pair_gap_condition(sextic_pair, d2):
    rep = SampledPair.draw(*sextic_pair, d2).shs_condition()
    assert rep.holds
    assert rep.symmetrized_gap == pytest.approx(0.409807265615424, rel=1e-6)
    a, b = rep.witness_direction
    assert a * a + b * b == pytest.approx(1.0)


def test_gap_condition_witness_avoids_image(sextic_pair, d2):
    pair = SampledPair.draw(*sextic_pair, d2)
    rep = pair.shs_condition()
    summary = pair.image()
    a, b = rep.witness_direction
    for target in (np.arctan2(b, a), np.arctan2(-b, -a)):
        delta = np.abs((summary.directions - target + np.pi) % (2 * np.pi) - np.pi)
        assert delta.min() > 0.05


def test_gap_condition_fails_when_sector_reaches_pi(sector_gallery, d2):
    p1, _, _, p4 = sector_gallery
    assert not SampledPair.draw(*p1, d2).shs_condition().holds
    assert not SampledPair.draw(*p4, d2).shs_condition().holds


def test_gap_condition_requires_even_pair(cubic_pair, d2):
    with pytest.raises(ValueError):
        SampledPair.draw(*cubic_pair, d2).shs_condition()


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
    """(F, G) rows of one of two kinds, with G left as drawn or of one
    sign.  Scattered rows: up to 300 continuous values, or values on a
    coarse lattice (ties in F and in G), with exact repeats of rows.
    Image-like rows: 2,000-5,000 points in order along a closed curve
    around a drawn centre, an ellipse (convex) or a star with three to
    seven lobes (not convex); on a lattice, F then runs equal across many
    rows and across the edges of the scan's blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        m = draw(st.integers(1, 300))
        F = rng.normal(draw(st.sampled_from([-1.0, 0.0, 1.0])), 1.0, m)
        G = rng.normal(0.0, 1.0, m)
        step = 4.0
        repeat = rng.integers(0, m, draw(st.integers(0, m)))
    else:
        m = draw(st.integers(2000, 5000))
        t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False) + rng.random()
        lobes, depth = draw(st.sampled_from([(0, 0.0), (3, 0.3), (5, 0.5), (7, 0.2)]))
        r = 1.0 + depth * np.cos(lobes * t)
        F = draw(st.sampled_from([-0.5, 0.0, 0.8, 3.0])) + r * np.cos(t)
        G = draw(st.sampled_from([0.5, 1.0, 4.0])) * r * np.sin(t) + rng.normal(0.0, 0.5)
        step = draw(st.sampled_from([64.0, 512.0]))
        repeat = np.arange(0)
    if draw(st.booleans()):
        F, G = np.round(step * F) / step, np.round(step * G) / step
    sign = draw(st.sampled_from([None, 1.0, -1.0]))
    if sign is not None:
        G = sign * np.abs(G)
    return np.concatenate([F, F[repeat]]), np.concatenate([G, G[repeat]])


@settings(max_examples=150, deadline=None)
@given(margin_rows(), EXTRA_XI, st.booleans())
def test_margin_scan_matches_the_full_scan(FG, extra, allow_zero):
    _assert_same_scan(*FG, extra_candidates=extra, allow_zero=allow_zero)


@pytest.mark.parametrize("name", ["switch_sextic", "switch_fractional"])
@pytest.mark.parametrize("allow_zero", [False, True])
def test_margin_scan_matches_the_full_scan_on_the_switch_pairs(name, allow_zero, problems_dir):
    problem = load_problem(problems_dir / f"{name}.json")
    pair = SampledPair.draw(*problem.pair(), problem.dilation, 65536)
    _assert_same_scan(pair.F, pair.G, allow_zero=allow_zero)


def test_golden_phase_reads_a_rising_block_at_the_top_of_the_bracket():
    # One staircase of three 32-row blocks, shuffled: rows near
    # (0, -1/0.99), a flat run from (1, 0) and rows near (2, 1/1.01).
    # m(xi) is 1 on [0.99, 1.01] only, around the grid point 1, and the
    # last block holds every minimum right of 1.01; its bound at the
    # bracket's low end exceeds the flat run's 1, at its top end it does not.
    k = np.arange(32)
    F = np.concatenate([-(31 - k) * 1e-6, 1 + k * 1e-6, 2 + k * 1e-6])
    G = np.concatenate([-1 / 0.99 - (31 - k) * 1e-9, k * 1e-9, 1 / 1.01 + k * 1e-9])
    order = np.random.default_rng(0).permutation(len(F))
    _assert_same_scan(F[order], G[order])
    _assert_same_scan(F[order], G[order], allow_zero=True)


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


def test_deciding_rows_are_few_and_sorted_by_f():
    rng = np.random.default_rng(5)
    F, G = rng.normal(size=4096), rng.normal(size=4096)
    Fk, Gk = s_lemma._deciding_rows(F, G, s_lemma.XI_GRID_HI)
    rows = set(zip(F.tolist(), G.tolist()))
    assert 0 < len(Fk) < 100
    assert set(zip(Fk.tolist(), Gk.tolist())) <= rows
    assert np.all(np.diff(Fk) >= 0.0)


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
    assert SampledPair.draw(f, g, d2).is_copositive(strict=True).holds
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


def test_a_pair_below_the_zero_tolerance_has_no_directions_and_fits_a_half_plane():
    # every sampled value lies within 1e-12 of the origin, and no zero is
    # shared: image_lines reads phi = 0, and f >= 0 gives xi = 0
    f = GP.from_terms(2, [(1e-13, (2, 0)), (1e-13, (0, 2))])
    g = GP.from_terms(2, [(1e-13, (2, 0))])
    cert = find_nonstrict_multiplier(f, g)
    assert cert.ok and cert.xi == 0.0
    assert cert.checks[2] == {"check": "image_lines", "ok": True, "phi": 0.0}


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


@pytest.mark.parametrize("count", [256, 1024, 4096, 16384])
def test_image_lines_reads_the_half_plane_off_the_sample_gap(count, problems_dir):
    # sector_quartic_wide turned so that its gap is centered on 3 pi / 4:
    # the pair is copositive, its image a cone of angle 1.0957 pi, which
    # lies in no half-plane, so no multiplier exists at any sample count
    wide = load_problem(problems_dir / "sector_quartic_wide.json")
    f, g = wide.pair()
    a, b = max(SampledPair.draw(f, g, wide.dilation).image().gaps, key=lambda gap: gap[1] - gap[0])
    alpha = 3 * math.pi / 4 - (a + b) / 2
    c, s = math.cos(alpha), math.sin(alpha)
    res = find_nonstrict_multiplier(c * f - s * g, s * f + c * g, wide.dilation, count=count)
    assert res.reason is ReasonCode.MULTIPLE_LINES and EXIT_CODE[res.verdict] == 1
    assert res.checks[-1]["phi"] / math.pi == pytest.approx(1.0957, abs=2e-4)
    if count > 4096:
        return
    # pairs with a multiplier keep it, with the same xi, at every count
    for name, xi in (("tangent_quartic", {256: 1.0, 1024: 1.0, 4096: 1.0}),
                     ("switch_sextic", {256: 2.7145887852763844, 1024: 2.6526718311430093,
                                        4096: 2.6475887160227067})):
        problem = load_problem(problems_dir / f"{name}.json")
        cert = find_nonstrict_multiplier(*problem.pair(), problem.dilation, count=count)
        assert cert.ok and cert.xi == xi[count], name


def test_image_lines_agrees_with_the_n3_image(problems_dir):
    # a cover join turns at most JOIN_TURN, so it fills no sample gap
    # wider than that: the largest sample gap is the image's wherever the
    # image's phi is below 2 pi - JOIN_TURN, and the verdicts agree.  At
    # 16 and 32 samples a whole-plane image leaves sample gaps near pi,
    # which a cover of wider joins would close.
    fixtures = problems_dir.parent / "tests" / "fixtures"
    pairs = [(quad_form(A), quad_form(B)) for A, B in quadratic_pairs(7)]
    pairs += [load_problem(fixtures / f"{name}.json").pair()
              for name in ("quartic3_pair", "quartic3_margin")]
    compared = 0
    for (f, g), count, seed in itertools.product(pairs, (16, 32, None),
                                                 (homog_core.DEFAULT_SEED, 1)):
        pair = SampledPair.draw(f, g, Dilation.standard(f.n), count, seed)
        # the chain's third record, whatever the checks before it found
        chain = s_lemma._nonstrict_chain(pair)
        record, phi = [next(chain)[0] for _ in range(3)][2], pair.image().phi
        tol = image_analysis.GAP_FACTOR * 2 * math.pi / pair.count
        assert record["ok"] == (phi <= math.pi + tol)
        if phi < 2 * math.pi - image_analysis.JOIN_TURN:
            assert record["phi"] == phi
            compared += 1
    assert compared >= 60


def test_nonstrict_fresh_seed_soundness(sextic_pair):
    f, g = sextic_pair
    cert = find_nonstrict_multiplier(f, g)
    rng = np.random.default_rng(246810)
    Z = rng.normal(size=(5000, 2))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    vals = f.evaluate(Z) - cert.xi * g.evaluate(Z)
    assert vals.min() >= -1e-8 * np.abs(vals).max()


# ------------------------------------------------------------ line detection


def _reference_antipodes(A, B):
    """The definition, pair by pair: for each row of A, the number of rows
    of B whose unit vector v has |cross(u, v)| <= CROSS_TOL and u . v < 0
    with A's unit vector u, after dropping the rows no longer than the
    query's zero tolerance."""
    ztol = 1e-12 * max(1.0, np.max(np.abs(A), initial=0.0), np.max(np.abs(B), initial=0.0))
    na, nb = np.hypot(A[:, 0], A[:, 1]), np.hypot(B[:, 0], B[:, 1])
    U, V = A[na > ztol] / na[na > ztol, None], B[nb > ztol] / nb[nb > ztol, None]
    cross = U[:, 0:1] * V[None, :, 1] - U[:, 1:2] * V[None, :, 0]
    dot = U[:, 0:1] * V[None, :, 0] + U[:, 1:2] * V[None, :, 1]
    counts = np.zeros(len(A), dtype=int)
    counts[na > ztol] = np.count_nonzero((np.abs(cross) <= CROSS_TOL) & (dot < 0), axis=1)
    return counts


X1, X2 = GP.from_terms(2, [(1.0, (1, 0))]), GP.from_terms(2, [(1.0, (0, 1))])


def _points(P):
    """The rows of P as the sample values of a `SampledPair`: the
    coordinate functions x1, x2 on the points P, whose values are P's
    except that -0.0 evaluates to +0.0."""
    P = np.asarray(P, dtype=float).reshape(-1, 2)
    return SampledPair(X1, X2, P, 1, 0)


def _values(pair):
    """The (m, 2) array of a pair's sample values (f, g)."""
    return np.column_stack([pair.F, pair.G])


def _assert_matches_the_reference(A, B):
    """`_antipodes` of the pairs A and B against the definition on their values."""
    counts, witness = _antipodes(A, B)
    P = _values(A)
    want = _reference_antipodes(P, _values(B))
    assert counts.tolist() == want.tolist()
    if not want.any():
        assert witness is None
        return
    # the witness is an antipodal pair whose u has the least angle
    (u0, u1), (v0, v1) = witness
    first = np.flatnonzero(want)[np.argmin(np.arctan2(P[want > 0, 1], P[want > 0, 0]))]
    assert np.array([u0, u1]) == pytest.approx(P[first] / np.hypot(*P[first]), abs=1e-15)
    assert abs(u0 * v1 - u1 * v0) <= CROSS_TOL and u0 * v0 + u1 * v1 < 0


def test_direction_collisions_detects_antipodes():
    t = np.linspace(0.1, 0.4, 5)
    A = np.column_stack([np.cos(t), np.sin(t)])
    counts, witness = _antipodes(_points(A), _points(-A))
    assert counts.tolist() == [1] * 5
    assert witness == [A[0].tolist(), (-A[0]).tolist()]


def test_direction_collisions_empty_for_half_plane():
    t = np.linspace(-1.2, 1.2, 50)
    D = _points(np.column_stack([np.cos(t), np.sin(t)]))
    counts, witness = _antipodes(D, D)
    assert not counts.any() and witness is None


def test_direction_collisions_see_past_a_crowded_angle_bin():
    # 200 directions 1.5e-5 rad apart, all within the 1/1440 turn from
    # 0.50179 to 0.50615 rad, and the negation of the 151st: a crowded
    # angle range hides no antipode
    t = 0.502 + 1.5e-5 * np.arange(200)
    U = np.column_stack([np.cos(t), np.sin(t)])
    D = _points(np.vstack([U, -U[150:151]]))
    counts, witness = _antipodes(D, D)
    assert np.flatnonzero(counts).tolist() == [150, 200]
    assert counts.sum() == 2
    assert np.array(witness) == pytest.approx(np.array([-U[150], U[150]]), abs=1e-15)
    _assert_matches_the_reference(D, D)


def test_direction_collisions_across_the_seam():
    # v's angle plus pi wraps to -pi + 2e-7, 7e-7 from u's pi - 5e-7
    u = np.array([[math.cos(math.pi - 5e-7), math.sin(math.pi - 5e-7)]])
    v = np.array([[math.cos(2e-7), math.sin(2e-7)]])
    for A, B in ((u, v), (v, u)):
        counts, witness = _antipodes(_points(A), _points(B))
        assert counts.tolist() == [1]
        assert witness == [A[0].tolist(), B[0].tolist()]
        _assert_matches_the_reference(_points(A), _points(B))
    far = np.array([[math.cos(2e-6), math.sin(2e-6)]])
    assert _antipodes(_points(u), _points(far))[0].tolist() == [0]


# Axis directions with both signs of zero.  A pair's values never hold
# -0.0 (evaluation sums from +0.0), so as sample values (`_points`) both
# (-1.0, 0.0) and (-1.0, -0.0) lie at angle pi, on the seam.
SIGNED_AXES = [(0.0, 1.0), (-0.0, 1.0), (1.0, 0.0), (1.0, -0.0),
               (-1.0, 0.0), (-1.0, -0.0), (0.0, -1.0), (-0.0, -1.0)]


@st.composite
def unit_sets(draw, max_clusters=3):
    """Shuffled unit vectors: angle clusters 2e-3 wide and up to 250
    strong (more than 96 in one 1/1440 turn), 1e-11 wide (equal after
    rounding to 9 digits) or 0.5 wide, signed-zero axis vectors and exact
    repeats."""
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


@settings(max_examples=150, deadline=None)
@given(unit_sets(), st.data())
def test_antipodes_match_the_all_pairs_reference_on_unit_sets(U, data):
    if len(U):
        flip = data.draw(st.lists(st.integers(0, len(U) - 1), max_size=50))
        U = np.vstack([U, -U[flip]])
    D = _points(U)
    _assert_matches_the_reference(D, D)


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
def test_direction_collisions_match_the_all_pairs_reference(A, T, data):
    """The queries of the NHS chain, (T, T), (A, A) and (A, T), count the
    antipodal pairs of the definition."""
    if len(A):
        flip = data.draw(st.lists(st.integers(0, len(A) - 1), max_size=200))
        T = np.vstack([T, -A[flip]])
    A, T = _points(A), _points(T)
    for X, Y in ((T, T), (A, A), (A, T)):
        _assert_matches_the_reference(X, Y)


def test_direction_collisions_count_every_pair():
    # 300 directions within 1e-3 rad and their negations: every direction
    # opposes its own negation and the few within 1e-6 of it, and every
    # such pair counts
    t = np.linspace(0.1, 0.101, 300)
    A = np.column_stack([np.cos(t), np.sin(t)])
    D = _points(np.vstack([A, -A]))
    counts, _ = _antipodes(D, D)
    assert counts.sum() == _reference_antipodes(_values(D), _values(D)).sum() >= 600


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
