"""Image-set sampling, sector angles, zero margins, and the mixing curve."""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from slemma import Dilation, GeneralizedPolynomial, image_analysis
from slemma.homog_core import DEFAULT_SEED, TWO_PI
from slemma.image_analysis import (
    GAP_FACTOR,
    DegenerateImageError,
    ImageClass,
    REFINE_BUDGET,
    SampledPair,
    _direction_miss,
    convexity_probe,
    mixing_curve,
    sample_image,
    zero_margin,
)
from slemma.problems import load_problem

from conftest import quad_form, random_symmetric

GP = GeneralizedPolynomial


# ------------------------------------------------------------ sector angles


def test_sector_gallery_angles(sector_gallery, d2):
    p1, p2, p3, p4 = sector_gallery
    s1 = sample_image(*p1, d2)
    assert s1.phi == pytest.approx(np.pi, abs=0.05)
    assert s1.classification is ImageClass.ANGULAR_SECTOR

    s2 = sample_image(*p2, d2)
    assert np.pi < s2.phi < 1.5 * np.pi
    assert s2.phi == pytest.approx(1.095677 * np.pi, abs=0.01)

    s3 = sample_image(*p3, d2)
    assert 1.5 * np.pi < s3.phi < 2.0 * np.pi
    assert s3.phi == pytest.approx(1.560830 * np.pi, abs=0.01)

    s4 = sample_image(*p4, d2)
    assert s4.phi == pytest.approx(2.0 * np.pi)
    assert s4.classification is ImageClass.FULL_PLANE


def test_sextic_pair_sector_below_pi(sextic_pair, d2):
    s = sample_image(*sextic_pair, d2)
    assert s.classification is ImageClass.ANGULAR_SECTOR
    assert s.phi < np.pi


def test_phi_plus_gap_is_full_circle(sector_gallery, sextic_pair, d2):
    for pair in (*sector_gallery, sextic_pair):
        s = sample_image(*pair, d2)
        if s.classification is ImageClass.ANGULAR_SECTOR:
            assert s.phi + s.largest_gap == pytest.approx(2.0 * np.pi, abs=1e-9)
        elif s.classification is ImageClass.FULL_PLANE:
            # a sub-tolerance residual gap is absorbed into phi = 2*pi
            assert s.phi == pytest.approx(2.0 * np.pi)
            assert s.largest_gap <= 3.0 * 2.0 * np.pi / s.sample_count


def test_full_plane_needs_refinement(sector_gallery, d2):
    # the raw grid keeps a spurious gap that adaptive refinement closes
    _, _, _, p4 = sector_gallery
    raw = sample_image(*p4, d2, refine=False)
    refined = sample_image(*p4, d2, refine=True)
    assert raw.phi < 2.0 * np.pi
    assert refined.phi == pytest.approx(2.0 * np.pi)
    assert 0 < refined.refinement_evals <= REFINE_BUDGET


def test_phi_invariant_under_positive_scaling(sector_gallery, d2):
    f, g = sector_gallery[1]
    base = sample_image(f, g, d2)
    scaled = sample_image(3.7 * f, 3.7 * g, d2)
    step = 2.0 * np.pi / base.sample_count
    assert abs(scaled.phi - base.phi) <= 2 * step


def test_ray_closure_directions(sextic_pair, d2):
    # homogeneity: scaling a point moves the image radially, not angularly
    rng = np.random.default_rng(31)
    f, g = sextic_pair
    for _ in range(10):
        x = rng.normal(size=2)
        c = rng.uniform(0.3, 4.0)
        a0 = np.arctan2(g(x), f(x))
        a1 = np.arctan2(g(c * x), f(c * x))
        assert a1 == pytest.approx(a0, abs=1e-9)


def test_line_through_origin():
    d1 = Dilation.standard(1)
    cube = GP.from_terms(1, [(1, (3,))])
    s = sample_image(cube, cube, d1)
    assert s.classification is ImageClass.LINE_THROUGH_ORIGIN


def test_full_plane_odd_pair(d2):
    f = GP.from_terms(2, [(1, (3, 0))])
    g = GP.from_terms(2, [(1, (0, 3))])
    s = sample_image(f, g, d2)
    assert s.classification is ImageClass.FULL_PLANE


def test_singleton_for_constants(d2):
    f = GP.constant(2, 2.0)
    g = GP.constant(2, -1.0)
    s = sample_image(f, g, d2)
    assert s.classification is ImageClass.SINGLETON


def test_degenerate_when_all_samples_vanish(d2):
    # both vanish on the axes; a 4-point aligned grid sees only zeros
    p = GP.from_terms(2, [(2, (3, 1)), (2, (1, 3))])
    with pytest.raises(DegenerateImageError):
        sample_image(p, p, d2, count=4, refine=False)


def test_zero_pair_rejected(d2):
    with pytest.raises(ValueError):
        sample_image(GP.zero(2), GP.zero(2), d2)


def test_cubic_pair_boundary_slopes(cubic_pair, d2):
    # sector boundary rays have slopes 1/2 and 7/6 in the image plane
    s = sample_image(*cubic_pair, d2)
    targets = (np.arctan(0.5), np.arctan(7.0 / 6.0))
    assert len(s.boundary_angles) == 4
    for ang in s.boundary_angles:
        err = min(abs((ang - t + np.pi / 2) % np.pi - np.pi / 2) for t in targets)
        assert err < 0.02


# -------------------------------------------------------------- zero margin


def test_zero_margin_cubic_pair(cubic_pair, d2):
    zm = zero_margin(*cubic_pair, d2)
    assert zm.margin < 1e-6
    assert not zm.refined
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    err = min(np.linalg.norm(zm.witness - diag), np.linalg.norm(zm.witness + diag))
    assert err < 1e-2


def test_zero_margin_trivial_one_dimensional():
    d1 = Dilation.standard(1)
    p = GP.from_terms(1, [(1, (2,))])
    zm = zero_margin(p, p, d1)
    assert zm.margin == pytest.approx(1.0)
    assert zm.refined


def test_zero_margin_sextic_pair_certified(sextic_pair, d2):
    zm = zero_margin(*sextic_pair, d2)
    assert zm.margin > 0.25
    assert zm.refined
    assert zm.certified_bound is not None and zm.certified_bound > 0


def test_zero_margin_scales_linearly(sextic_pair, d2):
    f, g = sextic_pair
    base = zero_margin(f, g, d2)
    scaled = zero_margin(2.5 * f, 2.5 * g, d2)
    assert scaled.margin == pytest.approx(2.5 * base.margin, rel=1e-9)


def test_zero_margin_higher_dimension_not_refined():
    d3 = Dilation.standard(3)
    f = GP.from_terms(3, [(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))])
    g = GP.from_terms(3, [(1, (2, 0, 0)), (-1, (0, 2, 0))])
    zm = zero_margin(f, g, d3, count=4096)
    assert zm.margin > 0.5
    assert not zm.refined


# ------------------------------------------------------------- mixing curve


def test_mixing_curve_is_closed(sextic_pair, d2):
    pts = mixing_curve(*sextic_pair, d2, [1.0, 0.0], [0.0, 1.0], steps=64)
    assert pts.shape == (65, 2)
    assert np.allclose(pts[0], pts[-1], atol=1e-12)


def test_mixing_curve_central_symmetry(cubic_pair, d2):
    # odd pair: the image curve satisfies point(t + pi) = -point(t)
    steps = 128
    pts = mixing_curve(*cubic_pair, d2, [1.0, 0.3], [-0.2, 1.0], steps=steps)
    half = steps // 2
    assert np.allclose(pts[half:steps], -pts[:half], atol=1e-9)


def test_mixing_curve_quadrant_coverage(d2):
    # 1-variable cubes against each other: the curve visits all four
    # sign quadrants of the image plane
    f = GP.from_terms(2, [(1, (3, 0))])
    g = GP.from_terms(2, [(1, (0, 3))])
    pts = mixing_curve(f, g, d2, [1.0, 0.0], [0.0, 1.0], steps=64)
    signs = {(int(np.sign(a)), int(np.sign(b)))
             for a, b in pts if abs(a) > 1e-9 and abs(b) > 1e-9}
    assert {(1, 1), (1, -1), (-1, 1), (-1, -1)} <= signs


def test_mixing_curve_collinear_anchors(sextic_pair, d2):
    f, g = sextic_pair
    z = [0.6, 0.8]
    pts = mixing_curve(f, g, d2, z, z, steps=64)
    ref = np.array([f(z), g(z)])
    cross = pts[:, 0] * ref[1] - pts[:, 1] * ref[0]
    assert np.allclose(cross, 0.0, atol=1e-9 * np.abs(pts).max())


def test_mixing_curve_fractional_weights(frac_dilation):
    f = GP.from_terms(2, [(1, ((4, 3), 0))])
    g = GP.from_terms(2, [(1, (0, 4))])
    pts = mixing_curve(f, g, frac_dilation, [1.0, 0.0], [0.0, 1.0], steps=32)
    assert np.isfinite(pts).all()


def test_mixing_curve_rejects_tiny_step_count(sextic_pair, d2):
    with pytest.raises(ValueError):
        mixing_curve(*sextic_pair, d2, [1, 0], [0, 1], steps=3)


# ---------------------------------------------------------- convexity probe


def test_probe_finds_cubic_pair_violation(cubic_pair, d2):
    violations = convexity_probe(*cubic_pair, d2)
    assert violations
    first = violations[0]
    assert first["midpoint"] == pytest.approx([0.0, 0.25], abs=1e-12)
    assert first["u"] == pytest.approx([-1.0, -0.5])
    assert first["v"] == pytest.approx([1.0, 1.0])


def test_probe_empty_for_proportional_pair(d2):
    f = GP.from_terms(2, [(1, (4, 0)), (1, (0, 4))])
    assert convexity_probe(f, f, d2) == []


def test_probe_empty_for_quadratic_forms():
    # joint images of quadratic-form pairs are convex, so midpoints stay
    # inside; only pairs with a clear zero margin count as valid draws
    rng = np.random.default_rng(41)
    d2 = Dilation.standard(2)
    checked = 0
    while checked < 50:
        f = quad_form(random_symmetric(rng, 2))
        g = quad_form(random_symmetric(rng, 2))
        if zero_margin(f, g, d2, count=512).margin < 1e-3:
            continue
        assert convexity_probe(f, g, d2, count=1024) == []
        checked += 1


def test_probe_empty_for_higher_dimension_quadratics():
    rng = np.random.default_rng(42)
    for n in (3, 4):
        d = Dilation.standard(n)
        checked = 0
        while checked < 3:
            f = quad_form(random_symmetric(rng, n))
            g = quad_form(random_symmetric(rng, n))
            if zero_margin(f, g, d, count=4096).margin < 1e-2:
                continue
            assert convexity_probe(f, g, d, count=8192) == []
            checked += 1


# ------------------------------------------- the probe's batched local search


ROOT = Path(__file__).resolve().parent.parent
IMAGE_PROBLEMS = [ROOT / "problems" / f"{name}.json" for name in (
    "cubic_shared_zero", "sector_quartic_pi", "sector_quartic_wide",
    "sector_sextic_full", "sector_sextic_wide", "switch_fractional",
    "switch_sextic")] + [ROOT / "tests" / "fixtures" / "quartic3_pair.json"]


def _reference_direction_miss(f, g, d, X, dirs, target, tol, seed):
    """_direction_miss projecting and evaluating one proposal at a time:
    the reference its speculative batch must match bit for bit."""
    gap = np.abs(np.remainder(dirs - target + math.pi, TWO_PI) - math.pi)
    best_i = int(np.argmin(gap))
    best = float(gap[best_i])
    if best <= tol:
        return best
    x = X[best_i].copy()
    rng = np.random.default_rng([abs(int(seed)), int(round(target * 1e6)) % (2 ** 32)])
    scale = max(1.0, float(np.max(np.abs(X))))
    step = 0.3
    for _ in range(60):
        moved = False
        for prop in rng.normal(size=(6, X.shape[1])):
            y = x + step * scale * prop
            if not np.any(y):
                continue
            y = d.project(y)
            u, v = float(f.evaluate(y)), float(g.evaluate(y))
            if math.hypot(u, v) <= 1e-12:
                continue
            cand = abs(math.remainder(math.atan2(v, u) - target, TWO_PI))
            if cand < best:
                best, x, moved = cand, y, True
                if best <= tol:
                    return best
        if not moved:
            step *= 0.6
            if step < 1e-6:
                break
    return best


def _search_inputs(path, seed=DEFAULT_SEED, count=None):
    """(pair, summary, f, g, d, X, dirs, clearance) as convexity_probe sets them up."""
    problem = load_problem(path)
    f, g = problem.pair()
    pair = SampledPair.draw(f, g, problem.dilation, count, seed)
    pts = pair.joint_values
    keep = np.hypot(pts[:, 0], pts[:, 1]) > 1e-12 * pair.scale
    dirs = np.arctan2(pts[keep, 1], pts[keep, 0])
    clearance = GAP_FACTOR * TWO_PI / pair.count
    return pair, pair.image(), f, g, problem.dilation, pair.X[keep], dirs, clearance


def _targets(summary, f, g, d, per_gap=4, attained=8):
    """Directions inside each confirmed gap, where searches run out of
    steps, and image directions of unsampled sphere points, which a
    search can attain."""
    out = [a + (b - a) * (i + 0.5) / per_gap for a, b in summary.gaps for i in range(per_gap)]
    Y = d.project(np.random.default_rng(5).normal(size=(attained, d.n)))
    out += list(np.arctan2(g.evaluate(Y), f.evaluate(Y)))
    return [math.remainder(float(t), TWO_PI) for t in out]


@pytest.mark.parametrize("path", IMAGE_PROBLEMS, ids=lambda p: p.stem)
def test_batched_search_matches_the_one_row_search(path):
    _, summary, f, g, d, X, dirs, clearance = _search_inputs(path)
    attained = exhausted = 0
    for target in _targets(summary, f, g, d):
        # tol = 1e-9 keeps nearly every search going until it runs out of steps
        for tol in (clearance, clearance / 50, 1e-9):
            args = (f, g, d, X, dirs, target, tol, DEFAULT_SEED)
            got = _direction_miss(*args)
            assert got == _reference_direction_miss(*args), (target, tol)
            attained += got <= tol
            exhausted += got > tol
    assert attained and exhausted


@pytest.mark.parametrize("name", ["cubic_shared_zero", "sector_sextic_wide"])
def test_probe_lists_match_the_one_row_search_across_seeds(name, monkeypatch):
    path = ROOT / "problems" / f"{name}.json"
    for seed in range(1, 21):
        pair, summary = _search_inputs(path, seed=seed, count=1024)[:2]
        got = pair.convexity_probe(summary, trials=60)
        with monkeypatch.context() as m:
            m.setattr(image_analysis, "_direction_miss", _reference_direction_miss)
            want = pair.convexity_probe(summary, trials=60)
        assert got and got == want, seed


def test_batched_search_makes_fewer_evaluate_calls(monkeypatch):
    _, summary, f, g, d, X, dirs, clearance = _search_inputs(
        ROOT / "problems" / "cubic_shared_zero.json")
    calls = [0]
    evaluate = GeneralizedPolynomial.evaluate

    def counting(self, pts):
        calls[0] += 1
        return evaluate(self, pts)

    monkeypatch.setattr(GeneralizedPolynomial, "evaluate", counting)
    counts = []
    for search in (_direction_miss, _reference_direction_miss):
        calls[0] = 0
        for target in _targets(summary, f, g, d):
            search(f, g, d, X, dirs, target, clearance, DEFAULT_SEED)
        counts.append(calls[0])
    assert 0 < counts[0] < counts[1] / 2, counts


class _FragileDilation(Dilation):
    """A dilation whose radius reads 0 at about one point in 256 (picked
    by the low bits of x_0), as if every entry had underflowed: projecting
    such a point raises.  `zeros` counts the zero radii it has returned."""

    zeros = [0]

    def radius(self, x):
        fragile = np.asarray(x, dtype=float)[..., 0].view(np.uint64) % 256 == 0
        self.zeros[0] += int(np.sum(fragile))
        return super().radius(x) * ~fragile


def test_underflowing_proposal_raises_only_where_the_one_row_search_reaches_it():
    raised = passed_over = 0
    for name in ("cubic_shared_zero", "sector_sextic_wide"):
        _, summary, f, g, d, X, dirs, clearance = _search_inputs(
            ROOT / "problems" / f"{name}.json")
        fragile = _FragileDilation(d.weights, d.l)
        for target, tol in itertools.product(
                _targets(summary, f, g, d, per_gap=8, attained=16),
                (clearance, clearance / 50, 1e-9)):
            args = (f, g, fragile, X, dirs, target, tol, DEFAULT_SEED)
            try:
                want = _reference_direction_miss(*args)
            except ValueError as e:
                want = str(e)
            fragile.zeros[0] = 0
            try:
                got = _direction_miss(*args)
            except ValueError as e:
                got = str(e)
            assert got == want, (name, target, tol)
            raised += isinstance(got, str)
            # the batch built a zero-radius proposal that the scan never reached
            passed_over += isinstance(got, float) and fragile.zeros[0] > 0
    assert raised and passed_over
