"""Image-set sampling, sector angles, zero margins, and the mixing curve."""

import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slemma.image_analysis as image_analysis
from slemma import Dilation, GeneralizedPolynomial
from slemma.homog_core import (
    DEFAULT_SEED,
    TWO_PI,
    Parity,
    overflow_guard,
    sphere_samples,
    theta_grid,
    theta_point_scalar,
)
from slemma.image_analysis import (
    GAP_FACTOR,
    DegenerateImageError,
    ImageClass,
    REFINE_BUDGET,
    REFINE_WIDTH_FLOOR,
    SampledPair,
    _axis_points,
    _common_zero_n2,
    _cover,
    _inside_gap,
    _proportional,
    _refine_directions,
    _uncovered,
    mixing_curve,
)
from slemma.cli import main
from slemma.problems import load_problem

from conftest import quad_form, quadratic_image, quadratic_pairs, random_symmetric

GP = GeneralizedPolynomial


# ------------------------------------------------------------ sector angles


def test_sector_gallery_angles(sector_gallery, d2):
    p1, p2, p3, p4 = sector_gallery
    s1 = SampledPair.draw(*p1, d2).image()
    assert s1.phi == pytest.approx(np.pi, abs=0.05)
    assert s1.classification is ImageClass.ANGULAR_SECTOR

    s2 = SampledPair.draw(*p2, d2).image()
    assert np.pi < s2.phi < 1.5 * np.pi
    assert s2.phi == pytest.approx(1.095677 * np.pi, abs=0.01)

    s3 = SampledPair.draw(*p3, d2).image()
    assert 1.5 * np.pi < s3.phi < 2.0 * np.pi
    assert s3.phi == pytest.approx(1.560830 * np.pi, abs=0.01)

    s4 = SampledPair.draw(*p4, d2).image()
    assert s4.phi == pytest.approx(2.0 * np.pi)
    assert s4.classification is ImageClass.FULL_PLANE


def test_sextic_pair_sector_below_pi(sextic_pair, d2):
    s = SampledPair.draw(*sextic_pair, d2).image()
    assert s.classification is ImageClass.ANGULAR_SECTOR
    assert s.phi < np.pi


def test_phi_plus_gap_is_full_circle(sector_gallery, sextic_pair, d2):
    for pair in (*sector_gallery, sextic_pair):
        s = SampledPair.draw(*pair, d2).image()
        if s.classification is ImageClass.ANGULAR_SECTOR:
            assert s.phi + s.largest_gap == pytest.approx(2.0 * np.pi, abs=1e-9)
        elif s.classification is ImageClass.FULL_PLANE:
            # a sub-tolerance residual gap is absorbed into phi = 2*pi
            assert s.phi == pytest.approx(2.0 * np.pi)
            assert s.largest_gap <= 3.0 * 2.0 * np.pi / s.sample_count


def test_full_plane_needs_refinement(sector_gallery, d2):
    # the raw grid keeps a spurious gap that adaptive refinement closes
    _, _, _, p4 = sector_gallery
    pair = SampledPair.draw(*p4, d2)
    nz = np.hypot(pair.F, pair.G) > 1e-12 * pair.scale
    raw = np.sort(np.arctan2(pair.G[nz], pair.F[nz]))
    raw_gap = np.max(np.diff(np.append(raw, raw[0] + TWO_PI)))
    assert raw_gap > GAP_FACTOR * TWO_PI / pair.count  # so unrefined, phi < 2 pi
    refined = pair.image()
    assert refined.phi == pytest.approx(2.0 * np.pi)
    assert 0 < refined.refinement_evals <= REFINE_BUDGET


def test_phi_invariant_under_positive_scaling(sector_gallery, d2):
    f, g = sector_gallery[1]
    base = SampledPair.draw(f, g, d2).image()
    scaled = SampledPair.draw(3.7 * f, 3.7 * g, d2).image()
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


def test_line_through_origin(d2):
    d1 = Dilation.standard(1)
    cube = GP.from_terms(1, [(1, (3,))])
    s = SampledPair.draw(cube, cube, d1).image()
    assert s.classification is ImageClass.LINE_THROUGH_ORIGIN
    # the class is read off the coefficients (g = 2f); a line is convex,
    # so the probe finds nothing either
    f = GP.from_terms(2, [(1, (2, 0)), (-1, (0, 2))])
    pair = SampledPair.draw(f, 2.0 * f, d2)
    s = pair.image()
    assert s.classification is ImageClass.LINE_THROUGH_ORIGIN
    assert pair.convexity_probe(s) == []
    # with f > 0 off the origin, g = 2f is a ray: one direction, one gap
    f = GP.from_terms(2, [(1, (4, 0)), (1, (0, 4))])
    s = SampledPair.draw(f, 2.0 * f, d2).image()
    assert len(s.gaps) == 1
    assert s.classification is ImageClass.ANGULAR_SECTOR


def test_proportional_reads_the_coefficients():
    f = GP.from_terms(2, [(0.1, (4, 0)), (0.3, (2, 2)), (0.9, (0, 4))])
    # 3 * 0.1 != 0.3 in float64: decimal multiples are within the tolerance
    assert _proportional(f, GP.from_terms(2, [(0.3, (4, 0)), (0.9, (2, 2)), (2.7, (0, 4))]))
    assert _proportional(f, -1e6 * f) and _proportional(-1e-6 * f, f)
    assert not _proportional(f, GP.from_terms(2, [(0.3, (4, 0)), (0.9, (2, 2)), (2.6, (0, 4))]))
    # a term of one that the other lacks, whichever of the two has it
    extra = 2.0 * f + GP.from_terms(2, [(1e-3, (1, 3))])
    assert not _proportional(f, extra) and not _proportional(extra, f)


def test_full_plane_odd_pair(d2):
    f = GP.from_terms(2, [(1, (3, 0))])
    g = GP.from_terms(2, [(1, (0, 3))])
    s = SampledPair.draw(f, g, d2).image()
    assert s.classification is ImageClass.FULL_PLANE


def test_singleton_for_constants(d2):
    f = GP.constant(2, 2.0)
    g = GP.constant(2, -1.0)
    s = SampledPair.draw(f, g, d2).image()
    assert s.classification is ImageClass.SINGLETON


def test_degenerate_when_all_samples_vanish(d2):
    # both vanish on the axes; a 4-point aligned grid sees only zeros
    p = GP.from_terms(2, [(2, (3, 1)), (2, (1, 3))])
    with pytest.raises(DegenerateImageError):
        SampledPair.draw(p, p, d2, count=4).image()


def test_zero_pair_rejected(d2):
    with pytest.raises(ValueError):
        SampledPair.draw(GP.zero(2), GP.zero(2), d2).image()


def test_cubic_pair_boundary_slopes(cubic_pair, d2):
    # sector boundary rays have slopes 1/2 and 7/6 in the image plane
    s = SampledPair.draw(*cubic_pair, d2).image()
    targets = (np.arctan(0.5), np.arctan(7.0 / 6.0))
    assert len(s.boundary_angles) == 4
    for ang in s.boundary_angles:
        err = min(abs((ang - t + np.pi / 2) % np.pi - np.pi / 2) for t in targets)
        assert err < 0.02


# -------------------------------------------------------------- zero margin


def test_zero_margin_cubic_pair(cubic_pair, d2):
    zm = SampledPair.draw(*cubic_pair, d2).zero_margin()
    assert zm.margin < 1e-6
    assert not zm.refined
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    err = min(np.linalg.norm(zm.witness - diag), np.linalg.norm(zm.witness + diag))
    assert err < 1e-2


def test_zero_margin_trivial_one_dimensional():
    d1 = Dilation.standard(1)
    p = GP.from_terms(1, [(1, (2,))])
    zm = SampledPair.draw(p, p, d1).zero_margin()
    assert zm.margin == pytest.approx(1.0)
    assert zm.refined


def test_zero_margin_sextic_pair_certified(sextic_pair, d2):
    zm = SampledPair.draw(*sextic_pair, d2).zero_margin()
    assert zm.margin > 0.25
    assert zm.refined
    assert not _common_zero_n2(*sextic_pair)


@pytest.mark.parametrize("sigma, tau", itertools.product((1, -1), repeat=2))
def test_exact_common_zero_in_each_sign_case(sigma, tau):
    # f vanishes wherever |x2| = |x1|; g only at (sigma, tau) of those,
    # through its sign flags: 4 - 2*(tau*t + sigma*s) at (s, t)
    f = GP.from_terms(2, [(1, (2, 0)), (-1, (0, 2))])
    g = GP.from_terms(2, [(3, (2, 0)), (1, (0, 2)), (-2 * tau, (1, 1), (False, True)),
                          (-2 * sigma, (1, 1), (True, False))])
    assert f((sigma, tau)) == g((sigma, tau)) == 0.0
    assert _common_zero_n2(f, g)
    shifted = g + GP.from_terms(2, [(1, (2, 0))])
    assert not _common_zero_n2(f, shifted)


@pytest.mark.parametrize("tau", (1, -1))
def test_exact_common_zero_where_x1_is_zero(tau):
    # f(s, u) = 1 + u^2 + tau*u*|u| vanishes only at (0, -tau)
    f = GP.from_terms(2, [(1, (2, 0)), (1, (0, 2)), (tau, (0, 2), (False, True))])
    g = f + GP.from_terms(2, [(1, (1, 1))])
    assert f((0.0, -tau)) == g((0.0, -tau)) == 0.0
    assert _common_zero_n2(f, g)
    assert not _common_zero_n2(f, g + GP.from_terms(2, [(1, (0, 2))]))


def test_exact_common_zero_where_x2_is_zero():
    # f(s, u) = u*(s + u) and g(s, u) = u*(s - 2u) share only u = 0
    f = GP.from_terms(2, [(1, (1, 1)), (1, (0, 2))])
    g = GP.from_terms(2, [(1, (1, 1)), (-2, (0, 2))])
    assert _common_zero_n2(f, g)
    assert not _common_zero_n2(f, g + GP.from_terms(2, [(1, (2, 0))]))


def test_exact_common_zero_with_fractional_x2_powers():
    # weights (1, 3), q = 3: at (s, t*w^3), f = 1 - 8w^6 and g = 1 - 2w^2,
    # whose gcd 1 - 2w^2 vanishes at w = 2^(-1/2), off every float grid
    d = Dilation((1.0, 3.0))
    f = GP.from_terms(2, [(1, (6, 0)), (-8, (0, 2))])
    g = GP.from_terms(2, [(1, (6, 0)), (-2, (4, (2, 3)))])
    assert f.homogeneity_degree(d) == g.homogeneity_degree(d) == 6.0
    assert _common_zero_n2(f, g)
    assert not _common_zero_n2(f, g + GP.from_terms(2, [(-1, (4, (2, 3)))]))


def test_exact_common_zero_at_a_double_root():
    square = GP.from_terms(2, [(1, (2, 0)), (-2, (1, 1)), (1, (0, 2))])  # (x2 - x1)^2
    f = square * GP.from_terms(2, [(1, (2, 0)), (1, (0, 2))])
    g = square * GP.from_terms(2, [(2, (2, 0)), (1, (0, 2))])
    assert _common_zero_n2(f, g)
    assert not _common_zero_n2(f, g + GP.from_terms(2, [(1e-3, (4, 0))]))


def test_exact_common_factor_without_a_zero_off_the_origin():
    # f and g share the factor |x1| + |x2|, whose root w = -1 in every
    # sign case is not a point of the plane
    positive = GP.from_terms(2, [(1, (1, 0), (False, False)), (1, (0, 1), (False, False))])
    f = positive * GP.from_terms(2, [(1, (2, 0)), (1, (0, 2))])
    g = positive * GP.from_terms(2, [(2, (2, 0)), (-1, (1, 1)), (1, (0, 2))])
    assert f((1.0, -1.0)) == 4.0 and g((1.0, -1.0)) == 8.0
    assert not _common_zero_n2(f, g)


def test_exact_common_zero_reads_the_float_coefficients(d2):
    # x1^2 - x2^2 and x1^2 - c*x1*x2 share (1, 1) when c = 1; one ulp more
    # moves g's root to 1/c, so those floats share no zero, however
    # small the sampled margin, and the exact verdict says so
    f = GP.from_terms(2, [(1, (2, 0)), (-1, (0, 2))])
    g = GP.from_terms(2, [(1, (2, 0)), (-1, (1, 1))])
    nudged = GP.from_terms(2, [(1, (2, 0)), (-math.nextafter(1.0, 2.0), (1, 1))])
    assert _common_zero_n2(f, g)
    assert not _common_zero_n2(f, nudged)
    zm = SampledPair.draw(f, nudged, d2).zero_margin()
    assert zm.margin < 1e-9
    assert not zm.common_zero and zm.refined


# `refined` at the default threshold and seed, as the interval branch and
# bound that the exact test replaced reported it
REFINED = {
    "cubic_shared_zero": False, "sector_quartic_pi": True, "sector_quartic_wide": True,
    "sector_sextic_full": True, "sector_sextic_wide": True, "switch_fractional": True,
    "switch_sextic": True, "sector_quartic_wide_l3": True, "mixed_quartic_l3": True,
}


@pytest.mark.parametrize("name", sorted(REFINED))
def test_zero_margin_refined_on_the_shipped_pairs(name):
    path = ROOT / "problems" / f"{name}.json"
    problem = load_problem(path if path.exists() else ROOT / "tests" / "fixtures" / f"{name}.json")
    f, g = problem.pair()
    assert SampledPair.draw(f, g, problem.dilation).zero_margin().refined is REFINED[name]
    assert _common_zero_n2(f, g) is not REFINED[name]


def test_zero_margin_scales_linearly(sextic_pair, d2):
    f, g = sextic_pair
    base = SampledPair.draw(f, g, d2).zero_margin()
    scaled = SampledPair.draw(2.5 * f, 2.5 * g, d2).zero_margin()
    assert scaled.margin == pytest.approx(2.5 * base.margin, rel=1e-9)


def test_zero_margin_higher_dimension_not_refined():
    d3 = Dilation.standard(3)
    f = GP.from_terms(3, [(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))])
    g = GP.from_terms(3, [(1, (2, 0, 0)), (-1, (0, 2, 0))])
    zm = SampledPair.draw(f, g, d3, count=4096).zero_margin()
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


ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
IMAGE_PROBLEMS = [ROOT / "problems" / f"{name}.json" for name in (
    "cubic_shared_zero", "sector_quartic_pi", "sector_quartic_wide",
    "sector_sextic_full", "sector_sextic_wide", "switch_fractional",
    "switch_sextic")] + [ROOT / "tests" / "fixtures" / "quartic3_pair.json"]


def test_probe_finds_cubic_pair_violation(cubic_pair, d2):
    pair = SampledPair.draw(*cubic_pair, d2)
    violations = pair.convexity_probe(pair.image())
    assert violations
    first = violations[0]
    assert first["midpoint"] == pytest.approx([0.0, 0.25], abs=1e-12)
    assert first["u"] == pytest.approx([-1.0, -0.5])
    assert first["v"] == pytest.approx([1.0, 1.0])


def test_probe_empty_for_proportional_pair(d2):
    f = GP.from_terms(2, [(1, (4, 0)), (1, (0, 4))])
    pair = SampledPair.draw(f, f, d2)
    assert pair.convexity_probe(pair.image()) == []


def test_probe_empty_for_quadratic_forms():
    # joint images of quadratic-form pairs are convex, so midpoints stay
    # inside; only pairs with a clear zero margin count as valid draws
    rng = np.random.default_rng(41)
    d2 = Dilation.standard(2)
    checked = 0
    while checked < 50:
        f = quad_form(random_symmetric(rng, 2))
        g = quad_form(random_symmetric(rng, 2))
        if SampledPair.draw(f, g, d2, count=512).zero_margin().margin < 1e-3:
            continue
        pair = SampledPair.draw(f, g, d2, count=1024)
        assert pair.convexity_probe(pair.image()) == []
        checked += 1


def test_probe_empty_for_higher_dimension_quadratics():
    rng = np.random.default_rng(42)
    for n in (3, 4):
        d = Dilation.standard(n)
        checked = 0
        while checked < 3:
            f = quad_form(random_symmetric(rng, n))
            g = quad_form(random_symmetric(rng, n))
            if SampledPair.draw(f, g, d, count=4096).zero_margin().margin < 1e-2:
                continue
            pair = SampledPair.draw(f, g, d, count=8192)
            assert pair.convexity_probe(pair.image()) == []
            checked += 1


@pytest.mark.parametrize("count", [None, 1024])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2])
def test_probe_is_nonempty_exactly_when_phi_lies_between_pi_and_two_pi(seed, count):
    # with no common zero the direction set is one arc, and the cone over
    # it is convex exactly when the arc spans at most pi or the whole circle
    read = set()
    for path in sorted((ROOT / "problems").glob("*.json")):
        problem = load_problem(path)
        if "f" not in problem.functions or problem.function("f").homogeneity_degree(
                problem.dilation) is None:
            continue
        pair = SampledPair.draw(*problem.pair(), problem.dilation, count, seed)
        if pair.zero_margin().common_zero:
            continue
        summary = pair.image()
        nonconvex = math.pi < summary.phi < TWO_PI
        assert bool(pair.convexity_probe(summary)) == nonconvex, path.stem
        read.add(nonconvex)
    assert read == {False, True}


@pytest.mark.parametrize("path", [ROOT / "problems" / f"{name}.json" for name in (
    "cubic_shared_zero", "sector_quartic_wide", "sector_sextic_wide")] + [
    ROOT / "tests" / "fixtures" / "sector_quartic_wide_l3.json"], ids=lambda p: p.stem)
def test_probe_witnesses_are_image_values_whose_midpoints_lie_in_the_gap(path):
    problem = load_problem(path)
    f, g = problem.pair()
    pair = SampledPair.draw(f, g, problem.dilation)
    summary = pair.image()
    clearance = GAP_FACTOR * TWO_PI / pair.count
    points = np.concatenate([pair.X, _axis_points(problem.n)])
    values = np.column_stack([[f(x) for x in points], [g(x) for x in points]])
    violations = pair.convexity_probe(summary)
    assert violations
    for violation in violations:
        u, v = np.array(violation["u"]), np.array(violation["v"])
        for w in (u, v):
            assert np.any(np.all(np.abs(values - w) <= 1e-12 * pair.scale, axis=1)), w
        assert violation["midpoint"] == (0.5 * (u + v)).tolist()
        a, b = violation["gap"]
        assert (a, b) in summary.gaps
        direction = math.atan2(violation["midpoint"][1], violation["midpoint"][0])
        assert (direction - a) % TWO_PI > clearance
        assert (b - direction) % TWO_PI > clearance
        assert (direction - a) % TWO_PI < b - a


def test_a_line_through_the_origin_carries_no_violations(tmp_path):
    # at 64 samples cubic_shared_zero's two lobes look like narrow
    # antipodal clusters, yet midpoints of its image points leave the image;
    # its g is no multiple of f, so at no sample count is it a line
    problem = load_problem(ROOT / "problems" / "cubic_shared_zero.json")
    line = load_problem(FIXTURES / "line_quartic.json")
    for count in (16, 32, 48, 64, 96, 128):
        pair = SampledPair.draw(*problem.pair(), problem.dilation, count)
        assert pair.image().classification is not ImageClass.LINE_THROUGH_ORIGIN, count
        pair = SampledPair.draw(*line.pair(), line.dilation, count)
        summary = pair.image()
        assert summary.classification is ImageClass.LINE_THROUGH_ORIGIN, count
        assert pair.convexity_probe(summary) == [], count
    assert main(["image", str(problem.path), "--samples", "64",
                 "--out-dir", str(tmp_path)]) == 0
    result = json.loads((tmp_path / "image_cubic_shared_zero.json").read_text())["result"]
    assert result["classification"] == "angular_sector"
    assert result["convexity_violations"]


def test_an_n2_probe_never_searches(monkeypatch):
    # the probe evaluates f and g at the axis points and nowhere else
    calls = []
    evaluate_many = image_analysis.evaluate_many

    def counting(polys, pts):
        calls.append(len(pts))
        return evaluate_many(polys, pts)

    found = 0
    planar = IMAGE_PROBLEMS[:-1] + [ROOT / "tests" / "fixtures" / "sector_quartic_wide_l3.json"]
    for path in planar:
        problem = load_problem(path)
        for count in (None, 1024):
            pair = SampledPair.draw(*problem.pair(), problem.dilation, count)
            summary = pair.image()
            monkeypatch.setattr(image_analysis, "evaluate_many", counting)
            violations = pair.convexity_probe(summary)
            monkeypatch.undo()
            assert calls in ([], [2 * problem.n]), (path.stem, calls)
            found += len(violations)
            calls.clear()
    assert found


def test_a_spurious_gap_beside_the_largest_is_not_read():
    # a pair with no common zero admits only its largest gap: a narrower
    # confirmed gap inside the image arc holds no violation
    problem = load_problem(ROOT / "problems" / "sector_sextic_wide.json")
    pair = SampledPair.draw(*problem.pair(), problem.dilation)
    summary = pair.image()
    (a, b), = summary.gaps
    inside = a - 0.5 * (TWO_PI - (b - a))
    spurious = (inside - 0.3, inside + 0.3)
    want = pair.convexity_probe(summary)
    assert want and all(v["gap"] == [a, b] for v in want)
    for gaps in ([spurious, (a, b)], [(a, b), spurious]):
        assert pair.convexity_probe(dataclasses.replace(summary, gaps=gaps)) == want


def _homogeneous_pairs():
    """The shipped problems and fixtures whose f and g are homogeneous."""
    for path in sorted((ROOT / "problems").glob("*.json")) + sorted(FIXTURES.glob("*.json")):
        problem = load_problem(path)
        if {"f", "g"} <= problem.functions.keys() and all(
                problem.function(name).homogeneity_degree(problem.dilation) is not None
                for name in "fg"):
            yield problem


def test_image_and_the_shs_condition_never_call_the_probe(monkeypatch):
    def probe(self, summary):
        raise AssertionError("convexity_probe was called")

    monkeypatch.setattr(SampledPair, "convexity_probe", probe)
    classes = []
    for problem in _homogeneous_pairs():
        f, g = problem.pair()
        pair = SampledPair.draw(f, g, problem.dilation)
        classes.append(pair.image().classification)
        if f.parity() is Parity.EVEN and g.parity() is Parity.EVEN:
            pair.shs_condition()
    assert classes.count(ImageClass.LINE_THROUGH_ORIGIN) == 2
    assert len(classes) >= 16


def _image_class(tmp_path, raw, samples=None):
    """The class that `image` reports for the problem `raw`."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(raw))
    argv = ["image", str(path), "--out-dir", str(tmp_path)]
    if samples is not None:
        argv += ["--samples", str(samples)]
    assert main(argv) == 0
    return json.loads((tmp_path / "image_pair.json").read_text())["result"]["classification"]


@pytest.mark.parametrize("name, factor", [("f", 1e-6), ("g", 1e6)])
def test_the_units_of_f_or_g_do_not_make_a_line(tmp_path, name, factor):
    # scaled so, cubic_shared_zero's two lobes narrow to antipodal clusters
    raw = json.loads((ROOT / "problems" / "cubic_shared_zero.json").read_text())
    for term in raw["functions"][name]:
        term["coeff"] *= factor
    assert _image_class(tmp_path, raw) == "angular_sector"


def test_a_pair_near_a_line_is_no_line_at_coarse_samples(tmp_path):
    # g = -2f + 1e-9 x1^2 x2^2, against g = -2f exactly
    raw = json.loads((FIXTURES / "line_quartic.json").read_text())
    assert _image_class(tmp_path, raw, 64) == "line_through_origin"
    (term,) = [t for t in raw["functions"]["g"] if [p["num"] for p in t["powers"]] == [2, 2]]
    term["coeff"] += 1e-9
    assert _image_class(tmp_path, raw, 64) == "angular_sector"


# ------------------------------------------------ the probe's reference rule


def _reference_probe(pair, summary):
    """convexity_probe by its rule, one candidate at a time: every pair of
    axis samples, then for each admitted gap (all confirmed gaps of an
    n = 2 pair with a common zero, else the largest) the last sample at or
    before it and the first at or after it."""
    f, g, d = pair.f, pair.g, pair.d
    clearance = GAP_FACTOR * TWO_PI / pair.count
    gaps = summary.gaps
    if len(gaps) > 1 and not (d.n == 2 and _common_zero_n2(f, g)):
        gaps = [max(gaps, key=lambda gap: gap[1] - gap[0])]
    axis = _axis_points(d.n)
    pts_axis = np.column_stack([f.evaluate(axis), g.evaluate(axis)])
    pts = np.column_stack([pair.F, pair.G])
    keep = np.hypot(pts[:, 0], pts[:, 1]) > 1e-12 * pair.scale
    pts = pts[keep]
    dirs = np.arctan2(pts[:, 1], pts[:, 0])
    pairs = list(itertools.combinations(pts_axis, 2))
    for a, b in gaps:
        # the nearest sample on either side of the gap's center, the first
        # in sample order where an even pair's x and -x tie
        center = 0.5 * (a + b)
        back = [(center - t) % TWO_PI for t in dirs.tolist()]
        ahead = [(t - center) % TWO_PI for t in dirs.tolist()]
        pairs.append((pts[back.index(min(back))], pts[ahead.index(min(ahead))]))
    violations = []
    for u, v in pairs:
        mid = 0.5 * (u + v)
        if math.hypot(mid[0], mid[1]) <= 1e-9 * pair.scale:
            continue
        direction = math.atan2(mid[1], mid[0])
        hit = _inside_gap(direction, gaps, clearance)
        if hit is not None:
            violations.append({"u": [float(u[0]), float(u[1])],
                               "v": [float(v[0]), float(v[1])],
                               "midpoint": [float(mid[0]), float(mid[1])],
                               "direction": direction, "gap": [hit[0], hit[1]]})
    return violations


@pytest.mark.parametrize("name", ["cubic_shared_zero", "sector_sextic_wide"])
def test_probe_lists_match_the_reference_rule_across_counts(name):
    # an n = 2 probe reads no seed; the sample count moves the gap edges
    problem = load_problem(ROOT / "problems" / f"{name}.json")
    for count in (64, 100, 128, 256, 333, 512, 1000, 1024, 2048, 4096):
        pair = SampledPair.draw(*problem.pair(), problem.dilation, count)
        summary = pair.image()
        got = pair.convexity_probe(summary)
        assert got and got == _reference_probe(pair, summary), count


def test_a_midpoint_overflow_raises_what_the_pair_order_scan_raises():
    # Scaled to near the float64 limit, cubic_shared_zero's midpoints
    # overflow; the probe raises what a scan of its candidates in order
    # raises.
    problem = load_problem(ROOT / "problems" / "cubic_shared_zero.json")
    d = problem.dilation
    f, g = problem.pair()
    factor = 1.7e308 / 1.5 / max(abs(c) for p in (f, g) for c in p.terms.values())
    f, g = (GP(p.n, {key: c * factor for key, c in p.terms.items()}) for p in (f, g))
    pair = SampledPair.draw(f, g, d, 1024)
    summary = pair.image()
    with pytest.raises(FloatingPointError) as got:
        pair.convexity_probe(summary)
    with pytest.raises(FloatingPointError) as want, overflow_guard("convexity probe"):
        _reference_probe(pair, summary)
    assert str(got.value) == str(want.value)


# ------------------------------------------------------------ n >= 3 covers


def _turned(A, B, alpha):
    """The pair of forms whose image is that of (A, B) turned by alpha."""
    c, s = math.cos(alpha), math.sin(alpha)
    return c * A - s * B, s * A + c * B


def _quadratic_cases():
    """`quadratic_pairs(7)`, with each sector also turned so that its arc,
    and then its gap, is centered on the negative f axis, where the
    directions wrap from pi to -pi."""
    cases = []
    for A, B in quadratic_pairs(7):
        cases.append((A, B))
        center = quadratic_image(A, B)[2]
        if center is not None:
            cases += [_turned(A, B, math.pi - center), _turned(A, B, -center)]
    return cases


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
def test_quadratic_images_for_n_at_least_3_are_the_exact_ones(seed):
    # the image of two quadratic forms on R^n, n >= 3, is convex (Dines),
    # so phi never lies in (pi, 2 pi)
    read = set()
    for A, B in _quadratic_cases():
        phi = quadratic_image(A, B)[0]
        summary = SampledPair.draw(quad_form(A), quad_form(B), Dilation.standard(len(A)),
                                   seed=seed).image()
        want = ImageClass.FULL_PLANE if phi == TWO_PI else ImageClass.ANGULAR_SECTOR
        assert summary.classification is want, (A, B)
        assert summary.phi == pytest.approx(phi, abs=0.01), (A, B)
        assert not math.pi < summary.phi < TWO_PI
        read.add(want)
    assert read == {ImageClass.FULL_PLANE, ImageClass.ANGULAR_SECTOR}


@pytest.mark.parametrize("c", [0.08, 0.15])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
@pytest.mark.parametrize("k", [1.0, 0.0])
def test_a_narrow_gap_of_an_n3_image_stays_open(k, seed, c):
    # p = x1^2 - x2^2 and q = k*x3^2 + c*(x1^2 + x2^2) have the image
    # {(u, v) : v >= c|u|}; f + ig = (p + iq)^2 doubles its directions,
    # which leaves a gap of 4*atan(c) (0.32 rad at c = 0.08), narrower than
    # JOIN_TURN.  With k = 1 the pair shares no zero, and only the join
    # distance keeps the gap open.  With k = 0 the x3 axis is a common zero
    # near which the direction turns the long way round the gap between
    # samples that are near and turn little the short way; their joins'
    # midpoints keep it open.
    f = GP.from_terms(3, [(1 - c * c, (4, 0, 0)), (-2 - 2 * c * c, (2, 2, 0)),
                          (1 - c * c, (0, 4, 0)), (-k * k, (0, 0, 4)),
                          (-2 * k * c, (2, 0, 2)), (-2 * k * c, (0, 2, 2))])
    g = GP.from_terms(3, [(2 * c, (4, 0, 0)), (-2 * c, (0, 4, 0)),
                          (2 * k, (2, 0, 2)), (-2 * k, (0, 2, 2))])
    pair = SampledPair.draw(f, g, Dilation.standard(3), seed=seed)
    summary = pair.image()
    assert summary.classification is ImageClass.ANGULAR_SECTOR
    assert summary.phi == pytest.approx(TWO_PI - 4 * math.atan(c), abs=0.01)
    assert len(summary.gaps) == 1
    # pi < phi < 2 pi and one arc of directions: midpoints leave the image
    assert pair.convexity_probe(summary)


def _chain(dirs, steps=None, mids=None):
    """(X, F, G, pair_at) of samples on the x_0 axis of R^3, 0.01 apart (or
    `steps` hundredths from the first) in order, with image directions
    `dirs` (None for a zero of f and g).  `pair_at` gives each midpoint
    the direction halfway along the short way between its samples', or
    mids[i] between samples i and i + 1 (None for a zero)."""
    X = np.zeros((len(dirs), 3))
    X[:, 0] = -0.9 + 0.01 * (np.arange(len(dirs)) if steps is None else steps)

    def at(d):
        return (0.0, 0.0) if d is None else (math.cos(d), math.sin(d))

    def mid(i):
        if mids is not None and i in mids:
            return mids[i]
        return dirs[i] + 0.5 * (((dirs[i + 1] - dirs[i] + math.pi) % TWO_PI) - math.pi)

    def pair_at(M):
        i = np.searchsorted(X[:, 0], M[:, 0]) - 1
        F, G = zip(*(at(mid(j)) for j in i.tolist())) if len(i) else ((), ())
        return np.array(F), np.array(G)

    F, G = (np.array(v) for v in zip(*map(at, dirs)))
    return X, F, G, pair_at


def _gaps(dirs, cover):
    """The gaps of the directions and cover arcs wider than 1e-9, as
    (start, end) rounded."""
    widths, starts = _uncovered(dirs, cover)
    return [(round(float(a), 6), round(float(a + w), 6))
            for a, w in zip(starts, widths) if w > 1e-9]


def _covered(X, F, G, pair_at):
    """The gaps left by the directions of a chain of samples and its cover."""
    return _gaps(np.arctan2(G, F)[np.hypot(F, G) > 0], _cover(X, F, G, 0.0, pair_at))


def test_a_cover_joins_near_samples_whose_directions_turn_a_little():
    dirs = list(np.linspace(0.0, 0.5, 11)) + [0.5 + 0.7, 1.2 + 0.1]
    assert _covered(*_chain(dirs)) == [(1.3, round(TWO_PI, 6))]
    # a step of 1.5 rad is more than JOIN_TURN, so it leaves its arc open
    dirs = list(np.linspace(0.0, 0.5, 11)) + [2.0, 2.1]
    assert _covered(*_chain(dirs)) == [(0.5, 2.0), (2.1, round(TWO_PI, 6))]


def test_a_cover_leaves_far_steps_and_zeros_open():
    # steps of 1 but one of 10, over 4 median steps: its arc stays open
    steps = np.array([0, 1, 2, 3, 4, 5, 15, 16, 17, 18, 19, 20], dtype=float)
    dirs = [0.1 * k for k in range(6)] + [0.6 + 0.1 * k for k in range(6)]
    assert _covered(*_chain(dirs, steps)) == [(0.5, 0.6), (1.1, round(TWO_PI, 6))]
    dirs = [0.0, 0.1, 0.2, None, 0.3, 0.4, 0.5]
    assert _covered(*_chain(dirs)) == [(0.2, 0.3), (0.5, round(TWO_PI, 6))]


def test_a_cover_leaves_a_join_open_when_its_midpoint_leaves_its_arc():
    dirs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    # the direction passes a zero between samples 0 and 1 (whose atan2, 0,
    # is on the arc), and turns the long way round between samples 2 and 3
    assert _covered(*_chain(dirs, mids={0: None, 2: 3.0})) == [
        (0.0, 0.1), (0.2, 0.3), (0.5, round(TWO_PI, 6))]
    # a midpoint at an end of its arc, or on the arc of a turn clockwise,
    # keeps the join
    assert _covered(*_chain(dirs[::-1], mids={0: 0.5, 1: 0.35})) == [(0.5, round(TWO_PI, 6))]


def test_a_cover_takes_the_short_way_across_pi():
    # from 3.0 up through pi to -3.0 (3.283), not down through 0
    dirs = [3.0, 3.1, 3.1 + 0.08 - TWO_PI, -3.0]
    assert _covered(*_chain(dirs)) == [(-3.0, 3.0)]
    # an arc that ends past pi covers directions beyond -pi
    assert _gaps(np.array([-3.1, -3.05]), np.array([[3.0, 3.3]])) == [
        (round(3.3 - TWO_PI, 6), 3.0)]


# ------------------------------------------------------- direction refinement


def _circ_diff(a: float, b: float) -> float:
    """Shortest angular distance between two directions, in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _reference_refine_directions(f, g, d, theta, F, G, ztol, gap_tol):
    """Refinement as it was before directions were carried on the stack:
    every split test takes math.hypot and math.atan2 of both ends again,
    and f and g at a midpoint are `__call__`'s.  `_refine_directions`
    must match it bit for bit."""
    m = len(theta)

    def needs_split(fa, ga, fb, gb):
        ra, rb = math.hypot(fa, ga), math.hypot(fb, gb)
        if ra <= ztol or rb <= ztol:
            return True
        return _circ_diff(math.atan2(ga, fa), math.atan2(gb, fb)) > gap_tol

    stack = []
    for i in range(m):
        j = (i + 1) % m
        tb = theta[j] + (TWO_PI if j == 0 else 0.0)
        if needs_split(F[i], G[i], F[j], G[j]):
            stack.append((theta[i], F[i], G[i], tb, F[j], G[j]))

    extras = []
    evals = 0
    while stack and evals < image_analysis.REFINE_BUDGET:
        ta, fa, ga, tb, fb, gb = stack.pop()
        tm = 0.5 * (ta + tb)
        x = theta_point_scalar(tm, d)
        fm, gm = f(x), g(x)
        evals += 1
        if math.hypot(fm, gm) > ztol:
            extras.append(math.atan2(gm, fm))
        if tb - ta <= 2.0 * REFINE_WIDTH_FLOOR:
            continue
        if needs_split(fa, ga, fm, gm):
            stack.append((ta, fa, ga, tm, fm, gm))
        if needs_split(fm, gm, fb, gb):
            stack.append((tm, fm, gm, tb, fb, gb))
    return np.array(extras), evals, not stack


def _assert_refines_as_reference(*args):
    """Run both refinements on (f, g, d, theta, F, G, ztol, gap_tol);
    return (evals, complete)."""
    got = _refine_directions(*args)
    want = _reference_refine_directions(*args)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]
    return got[1:]


def _ztol(F, G):
    """The zero tolerance of a pair with sample values F, G."""
    return 1e-12 * max(1.0, float(np.max(np.abs(F))), float(np.max(np.abs(G))))


def _grid_inputs(problem, count, offset=0.0):
    """(f, g, d, theta, F, G, ztol, gap_tol) for the theta grid rotated by
    `offset` grid spacings, as `SampledPair.image` passes them at 0."""
    f, g = problem.pair()
    d = problem.dilation
    theta = theta_grid(count) + offset * (TWO_PI / count)
    X = sphere_samples(d, count, offset=offset)
    F, G = f.evaluate(X), g.evaluate(X)
    return f, g, d, theta, F, G, _ztol(F, G), GAP_FACTOR * TWO_PI / count


# the planar pairs of IMAGE_PROBLEMS, and two on a sphere with l = 3
REFINE_PROBLEMS = IMAGE_PROBLEMS[:-1] + [
    ROOT / "tests" / "fixtures" / f"{name}.json"
    for name in ("sector_quartic_wide_l3", "mixed_quartic_l3")]


@pytest.mark.parametrize("path", REFINE_PROBLEMS, ids=lambda p: p.stem)
def test_refinement_matches_the_reference_on_every_planar_pair(path):
    # the n = 2 grid is the same at every seed, so seeds 1-3 rotate it by
    # a quarter spacing each; seed 0 is the grid every command uses
    problem = load_problem(path)
    for count in (64, 1024):
        for seed in range(4):
            evals, complete = _assert_refines_as_reference(
                *_grid_inputs(problem, count, offset=seed / 4))
            assert evals > 0 and complete


def test_refinement_stops_mid_stack_where_the_reference_does(monkeypatch):
    for name in ("sector_quartic_wide", "cubic_shared_zero"):
        inputs = _grid_inputs(load_problem(ROOT / "problems" / f"{name}.json"), 64)
        for budget in (1, 2, 17, 40):
            monkeypatch.setattr(image_analysis, "REFINE_BUDGET", budget)
            assert _assert_refines_as_reference(*inputs) == (budget, False)


def test_nan_inf_and_zero_samples_refine_as_the_reference_does(monkeypatch):
    # A NaN end is not a zero, and its NaN direction never splits a
    # segment by itself: not at 5, and not in the halves of the segment
    # that the zero at 21 splits.  An infinite sample makes every end a
    # zero, so those runs split until the budget, lowered for them, ends.
    monkeypatch.setattr(image_analysis, "REFINE_BUDGET", 3000)
    f, g, d, theta, F0, G0, _, gap_tol = _grid_inputs(
        load_problem(ROOT / "problems" / "switch_sextic.json"), 64)
    cases = {
        "nan f": {5: (math.nan, None)},
        "nan g beside a zero": {20: (None, math.nan), 21: (0.0, 0.0)},
        "nan beside nan": {30: (math.nan, math.nan), 31: (math.nan, 1.0)},
        "zeros": {40: (0.0, 0.0), 41: (-0.0, 0.0), 63: (0.0, -0.0)},
        "inf": {50: (math.inf, None), 51: (None, -math.inf)},
        "nan and inf": {10: (math.nan, math.inf)},
    }
    for name, entries in cases.items():
        F, G = F0.copy(), G0.copy()
        for i, (u, v) in entries.items():
            F[i] = F[i] if u is None else u
            G[i] = G[i] if v is None else v
        evals, complete = _assert_refines_as_reference(f, g, d, theta, F, G, _ztol(F, G),
                                                       gap_tol)
        assert complete == (name not in ("inf", "nan and inf")), name


def test_a_direction_difference_on_the_split_threshold_splits_as_the_reference_does(
        monkeypatch, d2):
    # Two samples with gap_tol at their math.atan2 direction difference,
    # and one ulp below it: directions that round differently from
    # math.atan2 (NumPy's arctan2 does in a few percent of entries) move
    # the difference across the threshold.  Whether the samples split is
    # what counts here, so a low budget keeps small tolerances short.
    monkeypatch.setattr(image_analysis, "REFINE_BUDGET", 40)
    f, g = load_problem(ROOT / "problems" / "switch_sextic.json").pair()
    theta = theta_grid(2)
    rng = np.random.default_rng(23)
    splits = 0
    for F, G in rng.normal(size=(200, 2, 2)) * 10.0 ** rng.integers(-3, 4, size=(200, 2, 1)):
        diff = _circ_diff(math.atan2(G[0], F[0]), math.atan2(G[1], F[1]))
        for gap_tol in (diff, math.nextafter(diff, 0.0)):
            evals, _ = _assert_refines_as_reference(f, g, d2, theta, F, G, _ztol(F, G), gap_tol)
            splits += evals > 0
    assert 0 < splits < 400


def test_midpoints_that_straight_line_code_cannot_give_are_called(monkeypatch):
    # On the sphere no |x_i| exceeds 1, so no power overflows; with the
    # largest coefficient at the float64 maximum the sums do, near the sample whose
    # value was infinite (set to a zero here, so that refinement goes
    # there).  Those midpoints are not finite, and `__call__` gives them.
    calls = [0]
    call = GP.__call__

    def counted(self, x):
        calls[0] += 1
        return call(self, x)

    for name in ("cubic_shared_zero", "sector_quartic_wide"):
        problem = load_problem(ROOT / "problems" / f"{name}.json")
        f, g = problem.pair()
        top = max(abs(c) for p in (f, g) for c in p.terms.values())
        f, g = (GP(p.n, {key: c / top * np.finfo(float).max for key, c in p.terms.items()})
                for p in (f, g))
        X = sphere_samples(problem.dilation, 64)
        with np.errstate(over="ignore", invalid="ignore"):
            F, G = f.evaluate(X), g.evaluate(X)
        lost = ~(np.isfinite(F) & np.isfinite(G))
        assert lost.any()
        F[lost] = G[lost] = 0.0
        args = (f, g, problem.dilation, theta_grid(64), F, G, _ztol(F, G),
                GAP_FACTOR * TWO_PI / 64)
        with monkeypatch.context() as patch:
            patch.setattr(GP, "__call__", counted)
            got = _refine_directions(*args)
        assert calls[0] > 0
        calls[0] = 0
        want = _reference_refine_directions(*args)
        assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]


@pytest.mark.parametrize("compiled", ["overflows", "not finite", "too long"])
def test_refinement_falls_back_to_call_where_straight_line_code_fails(monkeypatch, compiled):
    # straight-line code that raises OverflowError, gives NaN, or could not
    # be compiled, at every midpoint
    def broken(*x):
        if compiled == "overflows":
            raise OverflowError("math range error")
        return math.nan, 0.0

    monkeypatch.setattr(image_analysis, "_compile_function",
                        lambda source, slow: slow if compiled == "too long" else broken)
    for name in ("sector_quartic_wide_l3", "switch_fractional"):
        path = ROOT / ("tests/fixtures" if name.endswith("l3") else "problems") / f"{name}.json"
        _assert_refines_as_reference(*_grid_inputs(load_problem(path), 64))


class _NanWhereX0Positive:
    """A polynomial whose `__call__` gives NaN where x0 > 0; its sample
    values come from the polynomial itself."""

    def __init__(self, p):
        self.p = p

    def expression(self, names):
        return self.p.expression(names)

    def __call__(self, x):
        return math.nan if x[0] > 0.0 else self.p(x)


def test_nan_midpoints_refine_as_the_reference_does(monkeypatch):
    # through `__call__` alone, as for a polynomial too long to compile; a
    # NaN midpoint is not a zero and never splits a half by itself
    monkeypatch.setattr(image_analysis, "_compile_function", lambda source, slow: slow)
    for name, nan_f in (("sector_quartic_wide", True), ("switch_sextic", False)):
        f, g, *rest = _grid_inputs(load_problem(ROOT / "problems" / f"{name}.json"), 64)
        if nan_f:
            f = _NanWhereX0Positive(f)
        else:
            g = _NanWhereX0Positive(g)
        evals, complete = _assert_refines_as_reference(f, g, *rest)
        assert evals > 0 and complete


# ------------------------------------ the row-wise rounding the batches rely on


# with a (1, 2)-weight dilation, whose one heavy weight NumPy may square
SHIPPED = [load_problem(p) for p in sorted((ROOT / "problems").glob("*.json"))] + [
    load_problem(ROOT / "tests" / "fixtures" / f"{name}.json")
    for name in ("quartic3_pair", "mixed_quartic_l3")]


# (m, rows): m random points and the rows of the stack, drawn from them
_STACKS = st.integers(1, 40).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.integers(0, m - 1), min_size=1, max_size=3 * m)))


@settings(max_examples=60, deadline=None)
@given(problem=st.sampled_from(SHIPPED), seed=st.integers(0, 2 ** 32 - 1), stack=_STACKS)
# stacks on which a (1, 2) dilation's `scale` split its rounding when it
# raised a whole stack to the weight vector, not a column of eps
@example(problem=SHIPPED[-1], seed=0, stack=(2, [0, 1]))
@example(problem=SHIPPED[-1], seed=0, stack=(2, [1, 0, 0]))
@example(problem=SHIPPED[-1], seed=6, stack=(3, [2, 2, 0, 1]))
def test_stacked_rows_round_as_single_rows(problem, seed, stack):
    """`evaluate`, `radius` and `scale` of a stacked array equal the one-row
    results bit for bit, whatever the other rows and their order."""
    d = problem.dilation
    rng = np.random.default_rng(seed)
    m, rows = stack
    X = rng.normal(size=(m, d.n)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
    X[rng.random(size=X.shape) < 0.1] = 0.0
    Y, eps = X[rows], rng.random(size=m)[rows]
    stacked = [d.radius(Y), d.scale(eps, Y)] + [
        p.evaluate(Y) for p in problem.functions.values()]
    single = [[d.radius(y) for y in Y], [d.scale(e, y) for e, y in zip(eps, Y)]] + [
        [p.evaluate(y) for y in Y] for p in problem.functions.values()]
    for got, want in zip(stacked, single):
        assert got.tobytes() == np.array(want).tobytes()
