"""Joint image sets U = {(f(x), g(x)) : x on the generalized sphere}.

For homogeneous f, g the image of R^n \\ {0} is the cone of rays through
U, so everything about it is encoded in the set of directions
atan2(g, f).  This module samples that direction set, measures the
sector angle, classifies the image (singleton, line through the origin,
angular sector, full plane), decides exactly for n = 2 whether f and g
share a zero off the origin, and probes midpoint convexity.  All of
these, and the copositivity and SHS checks of the multiplier searches,
are methods of a `SampledPair`, which evaluates f and g once on one
sample set.  The pair also owns the directions of its values and the
tolerances that read them (no direction within 1e-12 of the scale, a
trusted gap above GAP_FACTOR sample spacings), for every check.

Direction gaps are the load-bearing quantity.  A gap in the sampled set
can be real (the pair of rays is genuinely missing) or an artifact of
fast direction motion between neighboring samples.  Since the direction
set of a continuous image is path-connected between consecutive sphere
samples, bisecting the sphere parameter must close an artifact gap,
while a real gap survives down to the width floor.  For n = 2 the
sampler therefore adaptively refines every steep jump before trusting a
gap; without this, steep-but-continuous pairs are misread as sectors.

For n >= 3 the samples are not spread evenly, so the gaps are read off
the arcs that `_cover` joins between near samples, whose directions are
swept by continuity; a join it leaves out can only keep a gap open.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .homog_core import (
    DEFAULT_SEED,
    TWO_PI,
    Dilation,
    GeneralizedPolynomial,
    Parity,
    UsageError,
    Verdict,
    _compile_function,
    _function_source,
    _power_source,
    evaluate_many,
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

MORTON_BITS = 10
JOIN_DISTANCE = 4.0
JOIN_TURN = math.pi / 4


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
    common_zero: bool
    refined: bool
    witness: np.ndarray
    threshold: float
    sample_count: int
    seed: int
    verdict = property(lambda self: Verdict.FAILS if self.common_zero else Verdict.HOLDS)


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
    verdict = property(lambda self: Verdict.HOLDS if self.holds else Verdict.FAILS)


@dataclass
class ShsConditionReport:
    holds: bool
    symmetrized_gap: float
    witness_direction: tuple[float, float] | None
    gap_interval: tuple[float, float] | None
    image: ImageSummary
    sample_count: int
    seed: int
    verdict = property(lambda self: Verdict.HOLDS if self.holds else Verdict.FAILS)


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


def _proportional(f: GeneralizedPolynomial, g: GeneralizedPolynomial) -> bool:
    """Whether g = c*f: the same terms, and with c = g/f at f's largest
    coefficient, every coefficient of g within 1e-12 * max|g coeff| of c
    times f's."""
    if f.terms.keys() != g.terms.keys():
        return False
    top = max(f.terms, key=lambda key: abs(f.terms[key]))
    c = g.terms[top] / f.terms[top]
    tol = 1e-12 * max(map(abs, g.terms.values()))
    return all(abs(g.terms[key] - c * a) <= tol for key, a in f.terms.items())


def _uncovered(dirs: np.ndarray, cover: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(widths, starts) of the gaps left by the directions `dirs` and the
    arcs [start, end] of `cover`, start in [-pi, pi], after each direction
    or arc in order of start: width 0 where the next one starts inside the
    union so far.  An arc past pi also covers beyond -pi."""
    arcs = np.concatenate([cover[cover[:, 1] > math.pi] - TWO_PI,
                           np.column_stack([dirs, dirs]), cover])
    order = np.argsort(arcs[:, 0], kind="stable")
    starts, ends = arcs[order, 0], np.maximum.accumulate(arcs[order, 1])
    return np.maximum(np.append(starts[1:], starts[0] + TWO_PI) - ends, 0.0), ends


def _cover(X: np.ndarray, F: np.ndarray, G: np.ndarray, ztol: float, pair_at) -> np.ndarray:
    """The arcs [start, end] (counterclockwise, end + 2 pi across pi) from
    direction to direction of joined samples X (entries in [-1, 1]) with
    image values F, G: consecutive along a Z-order curve, at most
    JOIN_DISTANCE median steps apart, turning at most JOIN_TURN, and with
    no zero at either end or at the midpoint, whose direction must lie on
    the arc.  `pair_at(M)` is (f, g) at the rows of M; a direction is
    constant along dilation orbits, so the midpoints are not projected."""
    if len(X) < 2:
        return np.empty((0, 2))
    # the Z-order curve: interleaved bits of the coordinates, high bits first
    q = np.clip((X + 1.0) * (1 << MORTON_BITS - 1), 0, (1 << MORTON_BITS) - 1).astype(np.uint16)
    bits = np.empty((len(X), MORTON_BITS, X.shape[1]), np.uint8)
    for k in range(MORTON_BITS):
        bits[:, k] = q >> MORTON_BITS - 1 - k & 1
    order = np.lexsort(np.packbits(bits.reshape(len(X), -1), axis=1).T[::-1])
    F, G, X = F[order], G[order], X[order]
    dirs = np.arctan2(G, F)
    step = np.linalg.norm(np.diff(X, axis=0), axis=1)
    turn = np.remainder(np.diff(dirs) + math.pi, TWO_PI) - math.pi
    live = np.hypot(F, G) > ztol
    # np.median's bytes without its import of numpy.ma
    h = len(step) // 2
    mid = np.partition(step, [h - 1, h])
    median = mid[h] if len(step) % 2 else (mid[h - 1] + mid[h]) / 2.0
    join = np.flatnonzero(live[:-1] & live[1:] & (step <= JOIN_DISTANCE * median)
                          & (np.abs(turn) <= JOIN_TURN))
    # near a common zero the direction can turn the long way round between
    # near samples; then the midpoint's direction leaves the arc
    Fm, Gm = pair_at(0.5 * (X[join] + X[join + 1]))
    off = np.remainder(np.arctan2(Gm, Fm) - dirs[join] + math.pi, TWO_PI) - math.pi
    turn = turn[join]
    keep = (np.hypot(Fm, Gm) > ztol) & (off * (turn - off) >= 0.0)
    join, turn = join[keep], turn[keep]
    arcs = np.column_stack([dirs[join], dirs[join + 1]])
    arcs[turn < 0.0] = arcs[turn < 0.0, ::-1]
    arcs[arcs[:, 1] < arcs[:, 0], 1] += TWO_PI
    return arcs


def _sample_splits(theta, F, G, ztol, gap_tol) -> list:
    """Refinement's first stack: (theta_i, direction_i, theta_j,
    direction_j) for each sample pair i, j = i + 1 (mod m) that splits,
    in order of i, with None for the direction of a zero.

    Each direction is math.atan2 (np.arctan2 may round differently) and
    each zero test math.hypot <= ztol; the pairs are compared the shorter
    way round with `abs`, `%` and `minimum`, which round alike in NumPy
    and on Python floats."""
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


def _refine_directions(f, g, d, theta, F, G, ztol, gap_tol):
    """Bisect steep direction jumps between consecutive theta samples.

    Returns extra direction samples, the evaluation count, and whether the
    work queue drained within budget.  Segments whose endpoints include an
    image zero are refined unconditionally: the zero severs the direction
    path, and the bisection pins down the limiting directions on each side.

    Each sample's and each midpoint's direction is taken once with
    math.atan2, and its zero test math.hypot(f, g) <= ztol once; a stack
    entry carries (theta, direction) for each end, with None for a zero.
    A segment splits when an end is a zero or its ends lie more than
    `gap_tol` apart the shorter way round, so an end whose value
    is NaN (not a zero, direction NaN) never splits a segment by itself.
    f and g at a midpoint come from `_midpoint_source`'s straight-line
    code, and through `__call__` where that code raises OverflowError, is
    not finite or could not be compiled, so each value is `__call__`'s.
    """
    pair = _compile_function(_midpoint_source(f, g, d), lambda c, s: (math.nan, math.nan))
    stack = _sample_splits(theta, F, G, ztol, gap_tol)
    extras = []
    evals = 0
    while stack and evals < REFINE_BUDGET:
        ta, da, tb, db = stack.pop()
        tm = 0.5 * (ta + tb)
        try:
            fm, gm = pair(math.cos(tm), math.sin(tm))
        except OverflowError:
            fm = gm = math.nan
        if not (math.isfinite(fm) and math.isfinite(gm)):
            x = theta_point_scalar(tm, d)
            fm, gm = f(x), g(x)
        evals += 1
        r = math.hypot(fm, gm)
        dm = None if r <= ztol else math.atan2(gm, fm)
        if r > ztol:
            extras.append(dm)
        if tb - ta <= 2.0 * REFINE_WIDTH_FLOOR:
            continue
        if da is None or dm is None or (
                (w := abs(da - dm) % TWO_PI) > gap_tol and TWO_PI - w > gap_tol):
            stack.append((ta, da, tm, dm))
        if dm is None or db is None or (
                (w := abs(dm - db) % TWO_PI) > gap_tol and TWO_PI - w > gap_tol):
            stack.append((tm, dm, tb, db))
    return np.array(extras), evals, not stack


def _midpoint_source(f, g, d) -> str:
    """Source of (f, g) at `theta_point_scalar(t, d)` as a function of
    (cos t, sin t), with that point's operations written out; a power
    of exponent 1 is written as its base, which float `**` returns."""
    (r1, r2), names, pw = d.weights, ("x0", "x1"), _power_source
    lines = [f"{x} = {pw(f'abs({c})', r)} * (1.0 if {c} > 0.0 else -1.0 if {c} < 0.0 else 0.0)"
             for x, c, r in (("x0", "c", r1), ("x1", "s", r2))]
    if d.l != 2.0:
        lines += [f"rad = {pw('abs(x0)', d.l / r1)} + {pw('abs(x1)', d.l / r2)}",
                  f"eps = rad ** {-1.0 / d.l!r}",
                  f"x0, x1 = {pw('eps', r1)} * x0, {pw('eps', r2)} * x1"]
    lines.append(f"return ({f.expression(names)}, {g.expression(names)})")
    return _function_source(("c", "s"), lines)


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
    margin stays at sampled resolution.  A value no longer than `ztol` =
    1e-12 * scale has no direction, and a gap between directions wider
    than `gap_tol` = GAP_FACTOR * 2 pi / count is trusted.
    """

    def __init__(self, f, g, X, count, seed, d=None, degree=None):
        self.f, self.g, self.d, self.degree = f, g, d, degree
        self.X, self.count, self.seed = X, count, seed
        with overflow_guard("sample evaluation"):
            self.F, self.G = evaluate_many((f, g), X)
        self.scale_f = float(np.max(np.abs(self.F))) if len(X) else 0.0
        self.scale_g = float(np.max(np.abs(self.G))) if len(X) else 0.0
        self.scale = max(1.0, self.scale_f, self.scale_g)
        self.ztol = 1e-12 * self.scale
        self.gap_tol = GAP_FACTOR * TWO_PI / count

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

    def directions(self, ztol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The angles atan2(g, f) of the sample values longer than `ztol`
        (the pair's own by default), in sample order, and the mask of those
        values; taken when called, not kept.  A float64 overflow raises
        FloatingPointError naming the image classification."""
        with overflow_guard("image classification"):
            live = np.hypot(self.F, self.G) > (self.ztol if ztol is None else ztol)
            return np.arctan2(self.G[live], self.F[live]), live

    def image(self) -> ImageSummary:
        """Classify the direction set of the sampled image.

        The sector angle is phi = 2*pi minus the largest direction gap when
        that gap is confirmed (above 3x sample spacing, surviving adaptive
        refinement for n = 2, left open by `cover` for n >= 3), else 2*pi.
        The image is a line through the origin exactly when g is a multiple
        of f by their coefficients (`_proportional`) and two gaps are
        confirmed, so f takes both signs.
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

        params = theta_grid(count) if n == 2 else np.arange(len(self.X), dtype=float)
        scatter = np.column_stack([params[: len(F)], F, G])

        dirs = self.directions()[0]
        if not len(dirs):
            raise DegenerateImageError("every sample maps to (0, 0)")

        with overflow_guard("image classification"):
            evals, complete = 0, True
            if n == 2:
                extras, evals, complete = _refine_directions(
                    self.f, self.g, self.d, params, F, G, self.ztol, self.gap_tol)
                dirs = np.concatenate([dirs, extras])

            dirs = np.sort(dirs)
            gaps, starts = _uncovered(dirs, self.cover)
            largest = float(np.max(gaps))

        confirmed = [
            (float(starts[i]), float(starts[i] + gaps[i]))
            for i in np.nonzero(gaps > self.gap_tol)[0]
        ]
        boundary = sorted({_wrap_angle(edge) for a, b in confirmed for edge in (a, b)})
        summary = ImageSummary(
            classification=ImageClass.ANGULAR_SECTOR if confirmed else ImageClass.FULL_PLANE,
            phi=TWO_PI - largest if confirmed else TWO_PI,
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
        if len(confirmed) == 2 and _proportional(self.f, self.g):
            summary.classification = ImageClass.LINE_THROUGH_ORIGIN
        return summary

    def zero_margin(self, threshold: float = 1e-9) -> ZeroMargin:
        """min over the samples of max(|f|, |g|), the verdict whether f and
        g share a zero off the origin (`common_zero`), and whether that
        verdict is exact (`refined`).

        On a drawn sphere sample, n = 2 is decided by `_common_zero_n2`
        whatever the margin, and n = 1, whose sphere is {+1, -1}, by the
        margin, exactly.  Elsewhere a margin at or under the threshold is a
        common zero; higher n and box samples stay sampled.
        """
        vals = np.maximum(np.abs(self.F), np.abs(self.G))
        idx = int(np.argmin(vals))
        margin = float(vals[idx])
        exact = self.degree is not None and self.d.n <= 2
        common_zero = self._exact_common_zero if exact and self.d.n == 2 else margin <= threshold
        return ZeroMargin(
            margin=margin,
            common_zero=common_zero,
            refined=exact and not common_zero,
            witness=self.X[idx],
            threshold=threshold,
            sample_count=len(self.X),
            seed=self.seed,
        )

    @functools.cached_property
    def cover(self) -> np.ndarray:
        """`_cover` of an n >= 3 pair's samples (none for n <= 2), made once."""
        if self.d.n <= 2:
            return np.empty((0, 2))
        return _cover(self.X, self.F, self.G, self.ztol,
                      lambda M: evaluate_many((self.f, self.g), M))

    @functools.cached_property
    def _exact_common_zero(self) -> bool:
        """`_common_zero_n2` of the pair, computed once however often it is read."""
        return _common_zero_n2(self.f, self.g)

    def is_copositive(self, strict: bool = False) -> CopositivityReport:
        """Test min of f over the samples where g >= 0.

        The strict test keeps samples with g within noise of zero: a shared
        boundary zero must count against strict positivity.  A common zero
        is a point where g = 0 and f = 0, so a strict test that the samples
        pass still fails when `zero_margin` finds one, and its witness is
        then the zero margin's.  The non-strict test drops that noisy
        boundary so that a pair which merely touches zero along {g = 0} is
        not misread as a violation.
        """
        g_noise = 1e-12 * max(1.0, self.scale_g)
        mask = self.G >= (-g_noise if strict else g_noise)
        holds, mn, witness, threshold = True, None, None, 0.0
        if np.any(mask):
            vals = self.F[mask]
            i = int(np.argmin(vals))
            mn, witness = float(vals[i]), self.X[mask][i]
            if strict:
                threshold = _pos_threshold(self.scale_f)
                holds = mn > threshold
            else:
                threshold = _nonneg_tol(self.scale_f)
                holds = mn >= -threshold
        if strict and holds:
            zm = self.zero_margin()
            if zm.common_zero:
                holds, witness = False, zm.witness
        return CopositivityReport(
            holds=holds, strict=strict, min_value=mn, witness=witness,
            vacuous=mn is None, threshold=threshold, sample_count=len(self.X), seed=self.seed,
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

        dirs, turned = summary.directions, self.cover + math.pi
        turned[turned[:, 0] > math.pi] -= TWO_PI
        sym = np.concatenate([dirs, ((dirs + math.pi + math.pi) % TWO_PI) - math.pi])
        gaps, starts = _uncovered(sym, np.concatenate([self.cover, turned]))
        i = int(np.argmax(gaps))
        largest = float(gaps[i])
        holds = largest > self.gap_tol
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

    def convexity_probe(self, summary: ImageSummary) -> list[dict]:
        """Midpoints of image points that leave the image.

        The image is the cone over its direction set, so a midpoint whose
        direction lies inside a gap, beyond the clearance `gap_tol`, is not in it.
        The largest gap is admitted, or every confirmed gap of an n = 2
        pair with an exact common zero, whose direction set can be several
        arcs.  With no common zero the set is one arc, and the list is
        non-empty exactly when pi < phi < 2 pi (unless a coarse sample's
        clearance covers the edge midpoint).  A float64 overflow in its own
        arithmetic raises FloatingPointError naming the probe.
        """
        gaps = summary.gaps
        if len(gaps) > 1 and not (self.d.n == 2 and self._exact_common_zero):
            gaps = [max(gaps, key=lambda gap: gap[1] - gap[0])]
        if not gaps:
            return []

        dirs, keep = self.directions()
        with overflow_guard("convexity probe"):
            pts_axis = np.column_stack(evaluate_many((self.f, self.g), _axis_points(self.d.n)))
            pts = np.column_stack([self.F[keep], self.G[keep]])
            if len(pts) < 2:
                return []

            # all pairs of axis samples, then the samples that bound each
            # gap, nearest its center on either side
            first, second = np.triu_indices(len(pts_axis), 1)
            centers = np.array([[0.5 * (a + b)] for a, b in gaps])
            before = np.argmin(np.remainder(centers - dirs, TWO_PI), axis=1)
            after = np.argmin(np.remainder(dirs - centers, TWO_PI), axis=1)
            U = np.concatenate([pts_axis[first], pts[before]])
            V = np.concatenate([pts_axis[second], pts[after]])

            violations = []
            for u, v, mid in zip(U.tolist(), V.tolist(), (0.5 * (U + V)).tolist()):
                if math.hypot(mid[0], mid[1]) <= 1e-9 * self.scale:
                    continue
                direction = math.atan2(mid[1], mid[0])
                hit = _inside_gap(direction, gaps, self.gap_tol)
                if hit is not None:
                    violations.append({"u": u, "v": v, "midpoint": mid,
                                       "direction": direction, "gap": list(hit)})
            return violations


# --------------------------------------------------------------- zero margin


def _restrict(p: GeneralizedPolynomial, sigma: int, tau: int, q: int) -> list[int]:
    """p(sigma, tau*w^q) for w >= 0, as a primitive integer polynomial in w
    (highest power first): each float coefficient is read as the exact
    rational it is, and the sum is scaled by a positive integer."""
    coeffs = {}
    for (powers, signed), c in p.terms.items():
        e = int(powers[1] * q)
        sign = (sigma if signed[0] else 1) * (tau if signed[1] else 1)
        coeffs[e] = coeffs.get(e, 0) + sign * Fraction(c)
    scale = math.lcm(*(c.denominator for c in coeffs.values()))
    return _primitive([int(coeffs.get(e, 0) * scale)
                       for e in range(max(coeffs, default=-1), -1, -1)])


def _primitive(p: list[int]) -> list[int]:
    """p without leading zeros, divided by the gcd of its coefficients."""
    while p and p[0] == 0:
        p = p[1:]
    c = math.gcd(*p)
    return [x // c for x in p] if c > 1 else p


def _prem(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a divided by b, times a positive integer (a
    pseudo-remainder, which keeps the division in the integers)."""
    lc, sgn = abs(b[0]), 1 if b[0] > 0 else -1
    while len(a) >= len(b):
        c = sgn * a[0]
        a = [lc * x - c * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
        while a and a[0] == 0:
            a = a[1:]
    return a


def _sturm(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b and each negated primitive pseudo-remainder of the last two,
    down to the last one that is not zero.  With b = a' this is a Sturm
    sequence of a; its last entry is gcd(a, b) up to a constant factor."""
    seq = [a, b]
    while seq[-1]:
        seq.append([-x for x in _primitive(_prem(seq[-2], seq[-1]))])
    return seq[:-1]


def _vanishes_off_origin(h: list[int]) -> bool:
    """Whether h (highest power first) has a root w >= 0: h(0) = 0, or
    by Sturm's theorem the sign changes of its Sturm sequence drop from
    w -> 0+ to w -> inf.  The zero polynomial vanishes everywhere."""
    if not h or h[-1] == 0:
        return True
    seq = _sturm(h, [c * (len(h) - 1 - i) for i, c in enumerate(h[:-1])])
    ends = [(next(c for c in reversed(s) if c), s[0]) for s in seq]  # signs at 0+, inf
    return sum((a[0] * b[0] < 0) - (a[1] * b[1] < 0) for a, b in zip(ends, ends[1:])) > 0


def _common_zero_n2(f: GeneralizedPolynomial, g: GeneralizedPolynomial) -> bool:
    """Whether f and g, homogeneous under one dilation of R^2, share a zero
    off the origin, decided exactly for their float coefficients.

    Every point off the origin lies on the dilation orbit of an axis point
    (0, tau) or of a point (sigma, tau*w^q) with w >= 0, where q is the lcm
    of the denominators of the x2 exponents; there f and g are polynomials
    in w.  Those share a root w >= 0 exactly when their gcd, taken by a
    primitive integer remainder sequence, has one (Basu, Pollack & Roy,
    Algorithms in Real Algebraic Geometry, ch. 2).
    """
    for tau in (1, -1):
        if all(sum(Fraction(c) * (tau if signed[1] else 1)
                   for (powers, signed), c in p.terms.items() if powers[0] == 0) == 0
               for p in (f, g)):
            return True
    q = math.lcm(*(powers[1].denominator for p in (f, g) for powers, _ in p.terms))
    return any(_vanishes_off_origin(_sturm(_restrict(f, sigma, tau, q),
                                           _restrict(g, sigma, tau, q))[-1])
               for sigma in (1, -1) for tau in (1, -1))


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
        return np.column_stack(evaluate_many((f, g), X))


# ----------------------------------------------------------- convexity probe


def _axis_points(n: int) -> np.ndarray:
    """e_1, -e_1, e_2, -e_2, ... as the rows of a (2n, n) array."""
    pts = np.zeros((2 * n, n))
    pts[np.arange(2 * n), np.arange(2 * n) // 2] = np.tile([1.0, -1.0], n)
    return pts


def _inside_gap(direction: float, gaps, clearance: float) -> tuple[float, float] | None:
    for a, b in gaps:
        for cand in (direction, direction + TWO_PI, direction - TWO_PI):
            if a + clearance < cand < b - clearance:
                return (a, b)
    return None
