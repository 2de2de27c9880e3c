"""Joint image sets U = {(f(x), g(x)) : x on the generalized sphere}.

For homogeneous f, g the image of R^n \\ {0} is the cone of rays through
U, so everything about it is encoded in the set of directions
atan2(g, f).  This module samples that direction set, measures the
sector angle, classifies the image (singleton, line through the origin,
angular sector, full plane), certifies the absence of common zeros, and
probes midpoint convexity.  All of these, and the copositivity and SHS
checks of the multiplier searches, are methods of a `SampledPair`, which
evaluates f and g once on one sample set.  Only `zero_margin` here and
`is_copositive` and `shs_condition` in `s_lemma` draw a pair for the
caller: the `zeros`, `copositive` and `shs-check` commands call them,
and the traced benchmark times them by name.

Direction gaps are the load-bearing quantity.  A gap in the sampled set
can be real (the pair of rays is genuinely missing) or an artifact of
fast direction motion between neighboring samples.  Since the direction
set of a continuous image is path-connected between consecutive sphere
samples, bisecting the sphere parameter must close an artifact gap,
while a real gap survives down to the width floor.  For n = 2 the
sampler therefore adaptively refines every steep jump before trusting a
gap; without this, steep-but-continuous pairs are misread as sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .homog_core import (
    DEFAULT_SEED,
    TWO_PI,
    Dilation,
    GeneralizedPolynomial,
    Parity,
    UsageError,
    _compile_function,
    _function_source,
    overflow_guard,
    sphere_samples,
    theta_grid,
    theta_point_scalar,
)

DEFAULT_COUNT_N2 = 4096
DEFAULT_COUNT_HIGHD = 65536

# Gaps are trusted only above 3x the expected sample spacing.
GAP_FACTOR = 3.0

REFINE_WIDTH_FLOOR = 1e-9
REFINE_BUDGET = 200000

BNB_MAX_CELLS = 20000
BNB_WIDTH_FLOOR = 1e-7


class ImageClass(Enum):
    SINGLETON = "singleton"
    LINE_THROUGH_ORIGIN = "line_through_origin"
    FULL_PLANE = "full_plane"
    ANGULAR_SECTOR = "angular_sector"


class DegenerateImageError(ValueError):
    """Raised when every sample maps to (0, 0) and no direction exists."""


@dataclass
class ImageSummary:
    classification: ImageClass
    phi: float
    largest_gap: float
    directions: np.ndarray
    sample_count: int
    seed: int
    degree: float
    gaps: list[tuple[float, float]] = field(default_factory=list)
    boundary_angles: list[float] = field(default_factory=list)
    refinement_evals: int = 0
    refinement_complete: bool = True
    scatter: np.ndarray | None = None


@dataclass
class ZeroMargin:
    margin: float
    refined: bool
    witness: np.ndarray
    threshold: float
    sample_count: int
    seed: int
    certified_bound: float | None = None


@dataclass
class CopositivityReport:
    holds: bool
    strict: bool
    min_value: float | None
    witness: np.ndarray | None
    vacuous: bool
    threshold: float
    sample_count: int
    seed: int


@dataclass
class ShsConditionReport:
    holds: bool
    symmetrized_gap: float
    witness_direction: tuple[float, float] | None
    gap_interval: tuple[float, float] | None
    image: ImageSummary
    sample_count: int
    seed: int


def _default_count(n: int) -> int:
    return DEFAULT_COUNT_N2 if n <= 2 else DEFAULT_COUNT_HIGHD


def _pos_threshold(scale: float) -> float:
    return 1e-8 * max(1.0, scale)


def _nonneg_tol(scale: float) -> float:
    return 1e-9 * max(1.0, scale)


def _common_degree(f: GeneralizedPolynomial, g: GeneralizedPolynomial, d: Dilation) -> float:
    if f.n != g.n or f.n != d.n:
        raise ValueError("f, g, and the dilation must share one dimension")
    kf = f.homogeneity_degree(d)
    kg = g.homogeneity_degree(d)
    if kf is None or kg is None:
        raise UsageError("f and g must both be homogeneous for image analysis")
    if abs(kf - kg) > 1e-9 * max(1.0, abs(kf)):
        raise UsageError(f"degrees differ: {kf} vs {kg}")
    return kf


def _circ_diff(a: float, b: float) -> float:
    """Shortest angular distance between two directions, in [0, pi]."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _gap_list(dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Circular gaps of a sorted direction array: (gap widths, gap starts)."""
    gaps = np.diff(np.append(dirs, dirs[0] + TWO_PI))
    return gaps, dirs


def _sample_splits(theta, F, G, ztol, gap_tol) -> list:
    """Refinement's first stack: (theta_i, direction_i, theta_j,
    direction_j) for each sample pair i, j = i + 1 (mod m) that splits,
    in order of i, with None for the direction of a zero.

    Each direction is math.atan2 (np.arctan2 may round differently) and
    each zero test math.hypot <= ztol; the pairs are compared in NumPy
    with `_circ_diff`'s `abs`, `%` and `minimum`, which round alike in
    NumPy and on Python floats."""
    m = len(theta)
    # memoryviews yield Python floats one at a time, without a list per sample
    Fv, Gv = memoryview(F), memoryview(G)
    dirs = np.fromiter(map(math.atan2, Gv, Fv), float, m)
    zero = np.fromiter(map(ztol.__ge__, map(math.hypot, Fv, Gv)), bool, m)
    diff = np.abs(dirs - np.roll(dirs, -1))
    with np.errstate(invalid="ignore"):  # a NaN direction stays NaN
        np.remainder(diff, TWO_PI, out=diff)
    cut = np.minimum(diff, TWO_PI - diff, out=diff) > gap_tol
    cut |= zero
    cut |= np.roll(zero, -1)

    def end(i):
        return None if zero[i] else float(dirs[i])

    stack = []
    for i in np.flatnonzero(cut).tolist():
        j = (i + 1) % m
        tb = float(theta[j]) + (TWO_PI if j == 0 else 0.0)
        stack.append((float(theta[i]), end(i), tb, end(j)))
    return stack


def _refine_directions(f, g, d, theta, F, G, gap_tol):
    """Bisect steep direction jumps between consecutive theta samples.

    Returns extra direction samples, the evaluation count, and whether the
    work queue drained within budget.  Segments whose endpoints include an
    image zero are refined unconditionally: the zero severs the direction
    path, and the bisection pins down the limiting directions on each side.

    Each sample's and each midpoint's direction is taken once with
    math.atan2, and its zero test math.hypot(f, g) <= ztol once; a stack
    entry carries (theta, direction) for each end, with None for a zero.
    A segment splits when an end is a zero or its ends lie more than
    `gap_tol` apart by `_circ_diff`, so an end whose value is NaN (not a
    zero, direction NaN) never splits a segment by itself.  f and g at a
    midpoint come from straight-line code of their `expression`s, and
    through `__call__` where that code raises OverflowError or is not
    finite, so each value is `__call__`'s.
    """
    scale = max(1.0, float(np.max(np.abs(F))), float(np.max(np.abs(G))))
    ztol = 1e-12 * scale
    names = ("x0", "x1")
    pair = _compile_function(
        _function_source(names, [f"return ({f.expression(names)}, {g.expression(names)})"]),
        lambda *x: (f(x), g(x)))
    stack = _sample_splits(theta, F, G, ztol, gap_tol)
    extras = []
    evals = 0
    while stack and evals < REFINE_BUDGET:
        ta, da, tb, db = stack.pop()
        tm = 0.5 * (ta + tb)
        x = theta_point_scalar(tm, d)
        try:
            fm, gm = pair(*x)
        except OverflowError:
            fm = gm = math.nan
        if not (math.isfinite(fm) and math.isfinite(gm)):
            fm, gm = f(x), g(x)
        evals += 1
        r = math.hypot(fm, gm)
        dm = None if r <= ztol else math.atan2(gm, fm)
        if r > ztol:
            extras.append(dm)
        if tb - ta <= 2.0 * REFINE_WIDTH_FLOOR:
            continue
        if da is None or dm is None or _circ_diff(da, dm) > gap_tol:
            stack.append((ta, da, tm, dm))
        if dm is None or db is None or _circ_diff(dm, db) > gap_tol:
            stack.append((tm, dm, tb, db))
    return np.array(extras), evals, not stack


def _wrap_angle(a: float) -> float:
    """Map to (-pi, pi]."""
    w = (a + math.pi) % TWO_PI - math.pi
    return math.pi if w == -math.pi else w


class SampledPair:
    """f and g evaluated once on one sample set, shared by every check.

    The hypotheses of the S-lemma variants all read the same evidence
    about a pair: the values (f(x), g(x)) at sample points.  A pair holds
    that evidence once, so the zero margin, copositivity, the image
    classification, the solvability-gap condition and the convexity
    probe of one report agree on the points they saw.  `draw` samples
    the sphere of a homogeneous pair; the constructor takes any point
    set (the non-homogeneous search samples a box), and then the zero
    margin stays at sampled resolution.
    """

    def __init__(self, f, g, X, count, seed, d=None, degree=None):
        self.f, self.g, self.d, self.degree = f, g, d, degree
        self.X, self.count, self.seed = X, count, seed
        with overflow_guard("sample evaluation"):
            self.F = f.evaluate(X)
            self.G = g.evaluate(X)
        self.scale_f = float(np.max(np.abs(self.F))) if len(X) else 0.0
        self.scale_g = float(np.max(np.abs(self.G))) if len(X) else 0.0
        self.scale = max(1.0, self.scale_f, self.scale_g)

    @classmethod
    def draw(
        cls,
        f: GeneralizedPolynomial,
        g: GeneralizedPolynomial,
        d: Dilation,
        count: int | None = None,
        seed: int = DEFAULT_SEED,
    ) -> "SampledPair":
        k = _common_degree(f, g, d)
        if count is None:
            count = _default_count(d.n)
        return cls(f, g, sphere_samples(d, count, seed), count, seed, d, k)

    @property
    def joint_values(self) -> np.ndarray:
        """The (m, 2) array of image points (f(x), g(x))."""
        return np.column_stack([self.F, self.G])

    def image(self, refine: bool = True) -> ImageSummary:
        """Classify the direction set of the sampled image.

        The sector angle is phi = 2*pi minus the largest direction gap when
        that gap is confirmed (above 3x sample spacing, surviving adaptive
        refinement for n = 2), else 2*pi.
        """
        k, n, count, seed = self.degree, self.d.n, self.count, self.seed
        F, G = self.F, self.G
        if abs(k) <= 1e-12:
            u, v = float(F[0]), float(G[0])
            dirs = np.array([math.atan2(v, u)]) if math.hypot(u, v) > 0 else np.array([])
            return ImageSummary(
                classification=ImageClass.SINGLETON,
                phi=0.0,
                largest_gap=TWO_PI,
                directions=dirs,
                sample_count=count,
                seed=seed,
                degree=k,
                scatter=np.array([[0.0, u, v]]),
            )

        if n == 2:
            params = theta_grid(count)
        else:
            params = np.arange(len(self.X), dtype=float)
        scatter = np.column_stack([params[: len(F)], F, G])

        with overflow_guard("image classification"):
            ztol = 1e-12 * self.scale
            nz = np.hypot(F, G) > ztol
            if not np.any(nz):
                raise DegenerateImageError("every sample maps to (0, 0)")

            dirs = np.arctan2(G[nz], F[nz])
            gap_tol = GAP_FACTOR * TWO_PI / count

            evals, complete = 0, True
            if refine and n == 2:
                extras, evals, complete = _refine_directions(
                    self.f, self.g, self.d, params, F, G, gap_tol
                )
                if len(extras):
                    dirs = np.concatenate([dirs, extras])

            dirs = np.sort(dirs)
            gaps, starts = _gap_list(dirs)
            largest = float(np.max(gaps))

        confirmed = [
            (float(starts[i]), float(starts[i] + gaps[i]))
            for i in np.nonzero(gaps > gap_tol)[0]
        ]
        boundary = sorted({_wrap_angle(edge) for a, b in confirmed for edge in (a, b)})

        if largest <= gap_tol:
            phi = TWO_PI
            cls = ImageClass.FULL_PLANE
        else:
            phi = TWO_PI - largest
            cls = ImageClass.ANGULAR_SECTOR
            if len(confirmed) == 2:
                # two narrow antipodal clusters are a line through the origin
                (a1, b1), (a2, b2) = confirmed
                arc1 = a2 - b1
                arc2 = TWO_PI - (b2 - a1)
                centers = (b1 + arc1 / 2.0, b2 + arc2 / 2.0)
                narrow = max(arc1, arc2) <= 5.0 * TWO_PI / count
                antipodal = abs(_circ_diff(centers[0], centers[1]) - math.pi) <= 5.0 * TWO_PI / count
                if narrow and antipodal:
                    cls = ImageClass.LINE_THROUGH_ORIGIN

        return ImageSummary(
            classification=cls,
            phi=float(phi),
            largest_gap=largest,
            directions=dirs,
            sample_count=count,
            seed=seed,
            degree=float(k),
            gaps=confirmed,
            boundary_angles=boundary,
            refinement_evals=evals,
            refinement_complete=complete,
            scatter=scatter,
        )

    def zero_margin(self, threshold: float = 1e-9) -> ZeroMargin:
        """min over the samples of max(|f|, |g|), with optional certification.

        A margin at zero scale is a finding (common zero), not an error.  When
        the sampled margin clears the threshold on a drawn sphere sample, an
        interval subdivision pass (n = 2) attempts to certify the bound on
        the whole sphere; n = 1 is exact because the sphere is {+1, -1};
        higher n stays at sampled resolution and reports refined=False.
        """
        vals = np.maximum(np.abs(self.F), np.abs(self.G))
        idx = int(np.argmin(vals))
        margin = float(vals[idx])

        refined = False
        cert = None
        if margin > threshold and self.degree is not None:
            k = self.degree
            if self.d.n == 1:
                refined, cert = True, margin
            elif self.d.n == 2:
                refined, cert = _certify_no_common_zero_n2(
                    self.f, self.g, self.d, k, threshold
                )
        return ZeroMargin(
            margin=margin,
            refined=refined,
            witness=self.X[idx],
            threshold=threshold,
            sample_count=len(self.X),
            seed=self.seed,
            certified_bound=cert,
        )

    def is_copositive(self, strict: bool = False) -> CopositivityReport:
        """Test min of f over the samples where g >= 0.

        The strict test keeps samples with g within noise of zero: a shared
        boundary zero must count against strict positivity.  The non-strict
        test drops that noisy boundary so that a pair which merely touches
        zero along {g = 0} is not misread as a violation.
        """
        g_noise = 1e-12 * max(1.0, self.scale_g)
        mask = self.G >= (-g_noise if strict else g_noise)
        if not np.any(mask):
            return CopositivityReport(
                holds=True, strict=strict, min_value=None, witness=None,
                vacuous=True, threshold=0.0, sample_count=len(self.X), seed=self.seed,
            )
        vals = self.F[mask]
        pts = self.X[mask]
        i = int(np.argmin(vals))
        mn = float(vals[i])
        if strict:
            threshold = _pos_threshold(self.scale_f)
            holds = mn > threshold
        else:
            threshold = _nonneg_tol(self.scale_f)
            holds = mn >= -threshold
        return CopositivityReport(
            holds=holds, strict=strict, min_value=mn, witness=pts[i],
            vacuous=False, threshold=threshold, sample_count=len(self.X), seed=self.seed,
        )

    def shs_condition(self) -> ShsConditionReport:
        """Solvability-gap condition: the symmetrized direction set of U
        leaves an uncovered arc, equivalently the sector angle of U is < pi.

        The witness direction (a, b) points into the uncovered arc: neither
        (f, g) = t(a, b) nor (f, g) = -t(a, b) appears attainable.
        """
        if self.f.parity() is not Parity.EVEN or self.g.parity() is not Parity.EVEN:
            raise UsageError("the condition is defined for even f and g")
        if self.degree <= 0:
            raise UsageError("degree must be positive")
        summary = self.image()

        dirs = summary.directions
        sym = np.sort(np.concatenate([dirs, ((dirs + math.pi + math.pi) % TWO_PI) - math.pi]))
        gaps, starts = _gap_list(sym)
        i = int(np.argmax(gaps))
        largest = float(gaps[i])
        gap_tol = GAP_FACTOR * TWO_PI / self.count
        holds = largest > gap_tol
        witness = None
        interval = None
        if holds:
            lo = float(starts[i])
            interval = (lo, lo + largest)
            w = lo + largest / 2.0
            witness = (math.cos(w), math.sin(w))
        return ShsConditionReport(
            holds=holds,
            symmetrized_gap=largest,
            witness_direction=witness,
            gap_interval=interval,
            image=summary,
            sample_count=self.count,
            seed=self.seed,
        )

    def convexity_probe(self, summary: ImageSummary, trials: int = 200) -> list[dict]:
        """Search for midpoints of image points that leave the image.

        Because U is a union of rays, a midpoint whose direction falls
        strictly inside a confirmed direction gap of `summary` (this pair's
        image) cannot be in U; each such pair is reported as a violation.
        Pairs are drawn from a seeded generator plus all pairs of
        coordinate-axis samples, which anchor the probe deterministically.
        Before a violation is reported, a local search tries to attain the
        midpoint direction on the sphere, which discards gaps that only
        reflect thin direction sampling.  Quadratic form pairs, whose image
        is convex, produce an empty list.  A float64 overflow anywhere in
        the probe raises FloatingPointError naming the stage.

        Midpoints whose directions round to one multiple of the clearance
        share one search, aimed at the first of them in pair order.  The
        pairs are scanned for these targets first; `_direction_misses`
        then runs the searches in lockstep on stacked proposals, relying
        on `evaluate`, `radius` and `scale` rounding each row alone, so
        the probe returns what a scan that searched in pair order would.
        """
        if not summary.gaps:
            return []
        f, g, d, seed = self.f, self.g, self.d, self.seed
        clearance = GAP_FACTOR * TWO_PI / self.count

        with overflow_guard("convexity probe"):
            pts = self.joint_values
            axis = _axis_points(d.n)
            pts_axis = np.column_stack([f.evaluate(axis), g.evaluate(axis)])

            scale = self.scale
            ztol = 1e-12 * scale
            keep = np.hypot(pts[:, 0], pts[:, 1]) > ztol
            pts = pts[keep]
            if len(pts) < 2:
                return []

            pairs = []
            na = len(pts_axis)
            for i in range(na):
                for j in range(i + 1, na):
                    pairs.append((pts_axis[i], pts_axis[j]))
            rng = np.random.default_rng(seed)
            for _ in range(trials):
                i, j = rng.integers(0, len(pts), size=2)
                if i != j:
                    pairs.append((pts[i], pts[j]))

            X_kept = self.X[keep]
            dirs = np.arctan2(pts[:, 1], pts[:, 0])

            # pairs whose midpoint falls in a gap, and the first midpoint
            # direction of each search key, which is that search's target
            in_gap, targets = [], {}
            for u, v in pairs:
                mid = 0.5 * (u + v)
                if math.hypot(mid[0], mid[1]) <= 1e-9 * scale:
                    continue
                direction = math.atan2(mid[1], mid[0])
                hit = _inside_gap(direction, summary.gaps, clearance)
                if hit is None:
                    continue
                key = int(round(direction / clearance))
                targets.setdefault(key, direction)
                in_gap.append((u, v, mid, direction, hit, key))
            misses = _direction_misses(
                f, g, d, X_kept, dirs, list(targets.values()), clearance, seed)
            attained = {key: miss <= clearance for key, miss in zip(targets, misses)}

            return [
                {
                    "u": [float(u[0]), float(u[1])],
                    "v": [float(v[0]), float(v[1])],
                    "midpoint": [float(mid[0]), float(mid[1])],
                    "direction": direction,
                    "gap": [hit[0], hit[1]],
                }
                for u, v, mid, direction, hit, key in in_gap
                if not attained[key]
            ]


# --------------------------------------------------------------- zero margin


def _quadrant_cells():
    cells = []
    for q in range(4):
        a = q * math.pi / 2.0
        step = (math.pi / 2.0) / 16
        for i in range(16):
            cells.append((a + i * step, a + (i + 1) * step))
    return cells

def _interval_bound_raw(p: GeneralizedPolynomial, d: Dilation, a: float, b: float):
    """Range bound of p on the raw theta arc [a, b] within one quadrant.

    On a quadrant, |cos| and |sin| are monotone and the signs of cos, sin
    are constant, so each term c*|cos|^(r1*p1)*|sin|^(r2*p2)*signs has an
    exact endpoint-product range; the term ranges are summed.
    """
    r1, r2 = d.weights
    ca, cb = abs(math.cos(a)), abs(math.cos(b))
    sa, sb = abs(math.sin(a)), abs(math.sin(b))
    clo, chi = min(ca, cb), max(ca, cb)
    slo, shi = min(sa, sb), max(sa, sb)
    tm = 0.5 * (a + b)
    sgn_c = 1.0 if math.cos(tm) >= 0 else -1.0
    sgn_s = 1.0 if math.sin(tm) >= 0 else -1.0

    lo_total, hi_total = 0.0, 0.0
    for (powers, signed), coeff in p.terms.items():
        q1, q2 = r1 * float(powers[0]), r2 * float(powers[1])
        lo = (clo ** q1) * (slo ** q2)
        hi = (chi ** q1) * (shi ** q2)
        c = coeff
        if signed[0]:
            c *= sgn_c
        if signed[1]:
            c *= sgn_s
        if c >= 0:
            lo_total += c * lo
            hi_total += c * hi
        else:
            lo_total += c * hi
            hi_total += c * lo
    return lo_total, hi_total


def _abs_lower_bound(lo: float, hi: float) -> float:
    if lo > 0:
        return lo
    if hi < 0:
        return -hi
    return 0.0


def _certify_no_common_zero_n2(f, g, d, k, threshold):
    """Branch and bound over theta cells; True when max(|f|,|g|) > threshold
    everywhere on the sphere, f and g being homogeneous of degree k.
    Returns (certified, worst certified bound)."""
    l = d.l
    r1, r2 = d.weights
    queue = _quadrant_cells()
    worst = math.inf
    processed = 0
    while queue:
        processed += 1
        if processed > BNB_MAX_CELLS:
            return False, None
        a, b = queue.pop()
        flo, fhi = _interval_bound_raw(f, d, a, b)
        glo, ghi = _interval_bound_raw(g, d, a, b)
        lbf = _abs_lower_bound(flo, fhi)
        lbg = _abs_lower_bound(glo, ghi)
        if l != 2.0:
            # off the l=2 parametrization, points get projected by
            # eps^k; bound eps below via the radius range on the cell
            ca, cb = abs(math.cos(a)), abs(math.cos(b))
            sa, sb = abs(math.sin(a)), abs(math.sin(b))
            rad_hi = max(ca, cb) ** l + max(sa, sb) ** l
            eps_lo = rad_hi ** (-1.0 / l)
            lbf *= eps_lo ** k
            lbg *= eps_lo ** k
        bound = max(lbf, lbg)
        if bound > threshold:
            worst = min(worst, bound)
            continue
        if b - a <= BNB_WIDTH_FLOOR:
            return False, None
        m = 0.5 * (a + b)
        queue.append((a, m))
        queue.append((m, b))
    return True, worst


def zero_margin(
    f: GeneralizedPolynomial,
    g: GeneralizedPolynomial,
    d: Dilation,
    threshold: float = 1e-9,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
) -> ZeroMargin:
    """min over sphere samples of max(|f|, |g|), with optional certification
    (`SampledPair.zero_margin`)."""
    return SampledPair.draw(f, g, d, count, seed).zero_margin(threshold)


# -------------------------------------------------------------- mixing curve


def mixing_curve(
    f: GeneralizedPolynomial,
    g: GeneralizedPolynomial,
    d: Dilation,
    z1,
    z2,
    steps: int = 256,
) -> np.ndarray:
    """Image of the closed curve x(t) = z1*|cos t|^r*sgn + z2*|sin t|^r*sgn.

    Returns an (steps+1, 2) array of (f, g) values with the last point
    repeating the first.  For odd f and g the curve in the image plane is
    centrally symmetric: point(t + pi) = -point(t).  A float64 overflow
    or invalid value raises FloatingPointError naming the mixing curve.
    """
    if steps < 4:
        raise UsageError("steps must be at least 4")
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    if z1.shape != (d.n,) or z2.shape != (d.n,):
        raise ValueError("anchor points must match the dilation dimension")
    t = np.linspace(0.0, TWO_PI, steps + 1)
    r = np.array(d.weights)
    c, s = np.cos(t)[:, None], np.sin(t)[:, None]
    with overflow_guard("mixing curve"):
        X = z1 * np.abs(c) ** r * np.sign(c) + z2 * np.abs(s) ** r * np.sign(s)
        return np.column_stack([f.evaluate(X), g.evaluate(X)])


# ----------------------------------------------------------- convexity probe


def _axis_points(n: int) -> np.ndarray:
    pts = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        pts.append(e.copy())
        e[i] = -1.0
        pts.append(e.copy())
    return np.array(pts)


def _inside_gap(direction: float, gaps, clearance: float) -> tuple[float, float] | None:
    for a, b in gaps:
        for cand in (direction, direction + TWO_PI, direction - TWO_PI):
            if a + clearance < cand < b - clearance:
                return (a, b)
    return None


class _Search:
    """One local direction search between speculative batches: its point
    x, step length, sweeps taken and the six proposals of the current
    sweep, of which those from index k on are still to be tried."""

    def __init__(self, index: int, target: float, x: np.ndarray, seed):
        self.index, self.target, self.x = index, target, x
        self.rng = np.random.default_rng([abs(int(seed)), int(round(target * 1e6)) % (2 ** 32)])
        self.step, self.sweeps = 0.3, 0
        self.new_sweep()

    def new_sweep(self):
        self.props = self.rng.normal(size=(6, len(self.x)))
        self.k, self.moved = 0, False


def _direction_misses(f, g, d, X, dirs, targets, tol: float, seed) -> list[float]:
    """Local searches for sphere points whose image directions hit targets.

    Returns, for each target, the smallest angular distance to it that its
    search reached; a search stops as soon as that distance is <= tol.  A
    confirmed gap can be spurious where the pushforward density of
    directions vanishes (sector boundaries without the n = 2 adaptive
    refinement); a gap direction reachable by a short descent is not
    evidence that the midpoint left the image.

    Each search starts at the sample whose direction is nearest its
    target and draws its steps from its own generator, seeded by (seed,
    target).  A sweep draws six proposals x + step*scale*prop with one
    `rng.normal(size=(6, n))` and moves x to the first one, in index
    order, that improves the miss; a sweep without a move shrinks the
    step.  The proposals are projected and evaluated speculatively: every
    proposal after an accepted one is built again from the new x, and the
    rest of the old batch is discarded.  The searches run in lockstep:
    each round stacks the pending proposals of every live search and
    calls `radius`, `scale` and `f.evaluate`/`g.evaluate` once on the
    stack.  This takes the same draws and the same steps, and reaches bit
    for bit the same points, as running the searches one after another
    and projecting and evaluating one proposal at a time
    (tests/test_image_analysis.py keeps that one-row search as its
    reference), because
    - NumPy's array `**`, `abs`, `sign` and sum over the last axis in
      `radius`, `scale` and `evaluate` round each row the same whatever
      the other rows of the array are (checked with NumPy 2.4 on AVX-512,
      and by a property test over the shipped problems);
    - the projection factor rad**(-1/l) is still taken one row at a time
      on NumPy scalars, as `Dilation.project` takes it for a single point
      (the array `**` rounds it differently in about 5% of rows);
    - the miss is still scalar `math.atan2` and `math.remainder`
      (`np.arctan2` rounds differently);
    - a proposal whose radius is 0, exactly or by underflow, cannot be
      projected, and both pass over it.
    An overflow under the caller's `overflow_guard` raises from the round
    it happens in.
    """
    misses, live = [], []
    for index, target in enumerate(targets):
        gap = np.abs(np.remainder(dirs - target + math.pi, TWO_PI) - math.pi)
        nearest = int(np.argmin(gap))
        misses.append(float(gap[nearest]))
        if misses[index] > tol:
            live.append(_Search(index, target, X[nearest].copy(), seed))
    scale = max(1.0, float(np.max(np.abs(X))))
    power = -1.0 / d.l
    while live:
        Y = np.concatenate([s.x + s.step * scale * s.props[s.k:] for s in live])
        ks = np.concatenate([np.arange(s.k, len(s.props)) for s in live])
        rad = d.radius(Y)
        rows = np.flatnonzero(rad > 0)
        P = d.scale(np.array([v ** power for v in rad[rows]]), Y[rows])
        U, V = f.evaluate(P), g.evaluate(P)
        # each search's projected rows end where its proposal rows of Y end
        ends = np.searchsorted(rows, np.cumsum([len(s.props) - s.k for s in live]))
        still, start = [], 0
        for s, end in zip(live, ends):
            next_k, done = len(s.props), False
            for j in range(start, end):
                u, v = float(U[j]), float(V[j])
                if math.hypot(u, v) <= 1e-12:
                    continue
                cand = abs(math.remainder(math.atan2(v, u) - s.target, TWO_PI))
                if cand < misses[s.index]:
                    misses[s.index], s.x, s.moved = cand, P[j].copy(), True
                    done = cand <= tol
                    next_k = int(ks[rows[j]]) + 1
                    break
            start = end
            if done:
                continue
            s.k = next_k
            if s.k == len(s.props):
                if not s.moved:
                    s.step *= 0.6
                s.sweeps += 1
                if s.step < 1e-6 or s.sweeps == 60:
                    continue
                s.new_sweep()
            still.append(s)
        live = still
    return misses
