"""Copositivity tests and multiplier searches with margin-backed certificates.

The searches follow a two-phase protocol: derive a multiplier xi from
geometry (separating direction of the sampled image sector) and margin
maximization, then re-verify the margin on an independent sample set
before issuing a certificate.  The margin

    m(xi) = min over sphere samples of f(x) - xi*g(x)

is a pointwise minimum of affine functions of xi, hence concave, so a
log-grid scan plus golden-section refinement finds its global maximum.

Each search is one chain of checks run in a fixed order; the first check
that fails ends the search with a machine-readable reason code, and the
outcome, certificate or failure, lists the record of every check that
ran.  The hypothesis checks of one search read one `SampledPair`: f and
g are sampled and evaluated once, and only the re-verification draws a
second, independent sample set.

- strict (`find_strict_multiplier`): zero_margin, strict_copositivity,
  shs_condition, margin_maximization, fresh_verification.
- non-strict (`find_nonstrict_multiplier`): zero_margin, copositivity,
  image_lines (the sampled image fits a closed half-plane, phi <= pi,
  which with no common zero means at most one line), margin_maximization,
  fresh_verification.
- non-homogeneous (`find_nhs_multiplier`): affine_zero_margin and
  affine_copositivity on a box sample of the pair, top_zero_margin and
  top_copositivity on a sphere sample of its top-degree forms, the three
  antipodal-direction items, the non-strict chain on the homogenized
  lift, and t1_slice_verification.

The common-zero test comes first: a pair with a shared sphere zero fails
every variant for that one geometric reason, and the copositivity
sampler cannot distinguish a boundary zero from an honest interior
minimum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .homog_core import (
    DEFAULT_SEED,
    TWO_PI,
    Dilation,
    GeneralizedPolynomial,
    UsageError,
    Verdict,
    evaluate_many,
    overflow_guard,
    sphere_samples,
)
from .image_analysis import (
    CopositivityReport,
    SampledPair,
    ShsConditionReport,
    ZeroMargin,
    _common_degree,
    _default_count,
    _nonneg_tol,
    _pos_threshold,
    _uncovered,
)
from .stp_poly import homogenize

XI_GRID_LO = 1e-6
XI_GRID_HI = 1e6
XI_GRID_POINTS = 241
# Rows per block of the margin scan.  Sorted by F, a few blocks can hold
# the minimum at any one xi (about 2.2 of 58 and 2.7 of 82 on the two
# switch pairs at 4,096 samples), and the scan reads only those.
MARGIN_BLOCK = 32

CROSS_TOL = 1e-6

NHS_BOX_RADIUS = 10.0


class ReasonCode(Enum):
    NOT_COPOSITIVE = "NOT_COPOSITIVE"
    SECTOR_GE_PI = "SECTOR_GE_PI"
    COMMON_ZERO = "COMMON_ZERO"
    MULTIPLE_LINES = "MULTIPLE_LINES"
    NHS_ITEM_1 = "NHS_ITEM_1"
    NHS_ITEM_2 = "NHS_ITEM_2"
    NHS_ITEM_3 = "NHS_ITEM_3"
    VERIFICATION_FAILED = "VERIFICATION_FAILED"


@dataclass
class MultiplierCertificate:
    xi: float
    strict: bool
    margin: float
    sample_count: int
    seed: int
    dilation: dict
    threshold: float
    xi_initial: float | None = None
    margin_initial: float | None = None
    margin_derivation: float | None = None
    checks: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    ok: bool = True
    verdict = property(lambda self: Verdict.HOLDS if self.ok else Verdict.FAILS)


@dataclass
class MultiplierFailure:
    reason: ReasonCode
    message: str
    witness: list | None = None
    stage: str | None = None
    checks: list = field(default_factory=list)
    ok: bool = False
    # a certificate that failed its independent re-check leaves the question open
    verdict = property(lambda self: Verdict.INCONCLUSIVE
                       if self.reason is ReasonCode.VERIFICATION_FAILED else Verdict.FAILS)


# ----------------------------------------------------------------- sampling


def _fresh_samples(d: Dilation, count: int, seed: int) -> np.ndarray:
    """Independent sample set for re-verification.

    The n = 2 grid is seed-free, so independence comes from a seeded
    fractional rotation of the whole grid (other dimensions ignore the
    offset); n >= 3 reseeds the low-discrepancy engine.
    """
    offset = float(np.random.default_rng(seed + 1).random())
    return sphere_samples(d, count, seed + 1, offset=offset)


# ------------------------------------------------------------ margin search


def _margin_at(F: np.ndarray, G: np.ndarray, xi: float) -> float:
    return float((F - xi * G).min())


def _golden_max(fun, a: float, b: float) -> tuple[float, float]:
    """Golden-section maximization of a concave function on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = fun(c), fun(e)
    best_x, best_f = (c, fc) if fc >= fe else (e, fe)
    for _ in range(200):
        if b - a <= 1e-12 * max(1.0, abs(b)):
            break
        if fc >= fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = fun(e)
        if fc > best_f:
            best_x, best_f = c, fc
        if fe > best_f:
            best_x, best_f = e, fe
    return best_x, best_f


@functools.cache
def _xi_grid() -> list:
    """The xi grid as Python floats, which sort and hash faster than NumPy
    scalars; built on first use, as np.geomspace at import raises the
    peak RSS of runs that scan no margin."""
    return np.geomspace(XI_GRID_LO, XI_GRID_HI, XI_GRID_POINTS).tolist()


def _deciding_rows(F, G, xi_max):
    """The rows of (F, G) that can set min(F - xi*G) for 0 <= xi <= xi_max,
    in order of F, or None where the margin scan must read every row.

    A row j with some other row k at F_k <= F_j and G_k >= G_j never sets
    it: IEEE rounding is monotone, so fl(F_k - fl(xi*G_k)) <= fl(F_j -
    fl(xi*G_j)), and every minimum over the rest is bit-identical.  In
    the order of F, a row whose G does not exceed every G before it has
    such a k, and is dropped; ties in F may keep a dominated row, but
    never drop one that is not.  Two cases return None: an F - xi_max*G
    that leaves float64 (a non-finite F or G, or an overflow at some
    xi <= xi_max, which the scan must raise as the full one does), and
    an F of -0.0, the only way to a -0.0 result, since which signed zero
    `np.min` returns then depends on the rows it sees.  Otherwise each
    F - xi*G lies between F and F - xi_max*G, and each minimum is one
    value whichever rows a scan reads to find it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(F - xi_max * G).all() or np.any(np.signbit(F) & (F == 0)):
            return None
    order = np.argsort(F)
    Gs = G[order]
    order = order[np.append(True, Gs[1:] > np.maximum.accumulate(Gs)[:-1])]
    return F[order], G[order]


def _maximize_margin(F, G, extra_candidates=(), allow_zero=False):
    """Globally maximize m(xi) = min(F - xi*G) over the xi search space.

    The rows that can set a minimum (`_deciding_rows`, in order of F) are
    cut into blocks of MARGIN_BLOCK.  For xi >= 0, monotone rounding makes a
    block's bound fl(min F - fl(xi*max G)) at most every fl(F_j -
    fl(xi*G_j)) in it.  A grid xi reads the blocks whose bound is at most
    the least value of the blocks' first rows; the golden-section phase
    reads those whose bound over [lo, hi] (xi*max G at hi when max G >= 0,
    else at lo) is at most the least of the first rows' larger value at lo
    and at hi, which a row, monotone in xi, never exceeds between them.  A
    block left out holds no minimum, and with no -0.0 and no overflow a
    minimum is one value, so every margin, xi* and m* are the full scan's,
    bit for bit.  Where `_deciding_rows` returns None, the plain loop
    reads every row and raises the full scan's overflow at the same
    operation."""
    cands = _xi_grid() + [x for x in extra_candidates if x is not None and x > 0]
    if allow_zero:
        cands.append(0.0)
    xis = np.array(sorted(set(cands)))
    rows = _deciding_rows(F, G, xis[-1])
    if rows is None:
        margins = np.empty(len(xis))
        for s in range(0, len(xis), 32):
            blk = xis[s:s + 32]
            margins[s:s + 32] = np.min(F[None, :] - blk[:, None] * G[None, :], axis=1)
    else:
        pad = -len(rows[0]) % MARGIN_BLOCK
        Fb, Gb = (np.append(v, np.full(pad, v[-1])).reshape(-1, MARGIN_BLOCK) for v in rows)
        low, top, F0, G0 = Fb[:, 0], Gb.max(axis=1), Fb[:, :1], Gb[:, :1]
        with np.errstate(over="ignore"):  # a bound of -inf only keeps its block
            bound = low[:, None] - xis * top[:, None]
        k, b = np.nonzero((bound <= np.min(F0 - xis * G0, axis=0)).T)
        mins = np.min(Fb[b] - xis[k, None] * Gb[b], axis=1)
        margins = np.minimum.reduceat(mins, np.flatnonzero(np.diff(k, prepend=-1)))
    i = int(np.argmax(margins))
    lo = xis[max(i - 1, 0)]
    hi = xis[min(i + 1, len(xis) - 1)]
    if rows is not None:
        with np.errstate(over="ignore"):
            bound = low - np.where(top >= 0, hi, lo) * top
        live = bound <= np.min(np.maximum(F0 - lo * G0, F0 - hi * G0))
        F, G = Fb[live].ravel(), Gb[live].ravel()
    xi_star, m_star = _golden_max(lambda x: _margin_at(F, G, x), float(lo), float(hi))
    if margins[i] > m_star:
        xi_star, m_star = float(xis[i]), float(margins[i])
    return xi_star, m_star


def _geometric_xi(report: ShsConditionReport, F, G):
    """Initial xi from a separating direction in the uncovered arc.

    For w in the arc, the functional positive on the whole image is w
    rotated by a quarter turn, and normalizing it to (1, -xi) gives
    xi = cot(w); the same formula covers both rotations because cot is
    pi-periodic.  Sweep a few quantiles of the arc, keep positive
    candidates, and return the one with the best sampled margin.
    """
    if report.gap_interval is None:
        return None, None
    lo, hi = report.gap_interval
    width = hi - lo
    best = (None, None)
    for q in (0.5, 0.25, 0.75, 0.125, 0.875):
        w = lo + q * width
        s, c = math.sin(w), math.cos(w)
        if abs(s) < 1e-12:
            continue
        xi = c / s
        if xi <= 0:
            continue
        m = _margin_at(F, G, xi)
        if best[1] is None or m > best[1]:
            best = (xi, m)
    return best


# ------------------------------------------------------------- check chain


def _check(name, ok, reason, message, stage, witness=None, **data):
    """One check's record, and the failure it decides when it does not hold."""
    failure = None if ok else MultiplierFailure(reason, message, witness=witness, stage=stage)
    return {"check": name, "ok": ok, **data}, failure


def _zero_check(name, zm: ZeroMargin, message, stage, **data):
    return _check(name, not zm.common_zero, ReasonCode.COMMON_ZERO, message, stage,
                  witness=list(zm.witness), margin=zm.margin, **data)


def _copositivity_check(name, cop: CopositivityReport, message, stage):
    return _check(name, cop.holds, ReasonCode.NOT_COPOSITIVE, message, stage,
                  witness=None if cop.witness is None else list(cop.witness),
                  min_value=cop.min_value)


def _collision_check(name, A, B, reason, message, stage):
    counts, witness = _antipodes(A, B)
    hits = int(counts.sum())
    return _check(name, not hits, reason, message, stage, witness=witness, collisions=hits)


def _sphere_zero_check(pair: SampledPair):
    zm = pair.zero_margin()
    return _zero_check("zero_margin", zm, "f and g share a zero on the sphere",
                       "zero_margin", refined=zm.refined)


def _line_check(pair: SampledPair):
    """The `image_lines` check: the sample directions fit a closed half-plane."""
    dirs = pair.directions()[0]
    # with no direction the sampled image is the origin, in every half-plane
    phi = TWO_PI - float(np.max(_uncovered(dirs, np.empty((0, 2)))[0])) if len(dirs) else 0.0
    return _check("image_lines", phi <= math.pi + pair.gap_tol, ReasonCode.MULTIPLE_LINES,
                  "the sampled image directions fit no closed half-plane (sector "
                  "angle > pi), so the image holds more than one line through the origin",
                  "image_lines", phi=phi)


def _fresh_margin(pair: SampledPair, xi: float) -> float:
    """min of f - xi*g on an independent sample set of the pair's sphere."""
    Xv = _fresh_samples(pair.d, pair.count, pair.seed)
    F, G = evaluate_many((pair.f, pair.g), Xv)
    return float(np.min(F - xi * G))


FRESH_FAILED = "certificate failed re-verification on an independent sample set"


def _run_chain(chain):
    """Run a search's checks in order and stop at the first that fails.

    `chain` is a generator that yields one (record, failure) pair per
    check and returns the certificate once every check has passed.  The
    outcome, failure or certificate, carries the records of every check
    that ran.
    """
    records = []
    while True:
        try:
            record, failure = next(chain)
        except StopIteration as done:
            done.value.checks = records
            return done.value
        records.append(record)
        if failure is not None:
            failure.checks = records
            return failure


# ------------------------------------------------------- strict multiplier


def find_strict_multiplier(
    f: GeneralizedPolynomial,
    g: GeneralizedPolynomial,
    d: Dilation,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
):
    """Search for xi > 0 with f - xi*g > 0 away from the origin.

    Hypothesis order: common zero, strict copositivity, sector condition.
    On success the refined xi is re-verified on an independent sample set
    and the certificate records both sampled margins.
    """
    return _run_chain(_strict_chain(SampledPair.draw(f, g, d, count, seed)))


def _strict_chain(pair: SampledPair):
    yield _sphere_zero_check(pair)
    yield _copositivity_check("strict_copositivity", pair.is_copositive(strict=True),
                              "f is not strictly copositive with g", "copositivity")
    shs = pair.shs_condition()
    yield _check("shs_condition", shs.holds, ReasonCode.SECTOR_GE_PI,
                 "symmetrized image directions leave no uncovered arc "
                 "(sector angle >= pi)", "shs_condition",
                 symmetrized_gap=shs.symmetrized_gap, phi=shs.image.phi)

    # xi > 0 by construction: every candidate of the search is positive
    with overflow_guard("margin scan"):
        xi_init, m_init = _geometric_xi(shs, pair.F, pair.G)
        xi_star, m_star = _maximize_margin(pair.F, pair.G, extra_candidates=(xi_init,))
    threshold = _pos_threshold(pair.scale_f + abs(xi_star) * pair.scale_g)
    yield _check("margin_maximization", m_star > threshold, ReasonCode.VERIFICATION_FAILED,
                 "no positive xi reached a positive margin despite the "
                 "sector condition", "derivation",
                 xi=xi_star, margin=m_star, xi_initial=xi_init, margin_initial=m_init)

    mv = _fresh_margin(pair, xi_star)
    yield _check("fresh_verification", mv > threshold, ReasonCode.VERIFICATION_FAILED,
                 FRESH_FAILED, "verification", margin=mv)

    return MultiplierCertificate(
        xi=float(xi_star),
        strict=True,
        margin=mv,
        sample_count=len(pair.X),
        seed=pair.seed,
        dilation=pair.d.to_dict(),
        threshold=threshold,
        xi_initial=xi_init,
        margin_initial=m_init,
        margin_derivation=m_star,
    )


# --------------------------------------------------- direction collisions


def _antipodes(A: SampledPair, B: SampledPair) -> tuple[np.ndarray, list | None]:
    """For each sample value u of A, the number of values v of B pointing
    the opposite way, and the first such pair.

    Opposite means |cross(u, v)| <= CROSS_TOL and u . v < 0 on the unit
    vectors, i.e. the angle of v lies within asin(CROSS_TOL) of the angle
    of u plus pi.  Values no longer than the larger `ztol` of the two
    pairs have no direction.  B's angles, shifted by pi, are sorted once,
    with those near the +-pi seam copied across it, so two binary
    searches count the antipodes of every u.  The pair is the first
    walking up from angle -pi: the u of least angle and its v of least
    shifted angle, as unit vectors, or None when no u has an antipode.
    """
    ztol = max(A.ztol, B.ztol)
    a, live = A.directions(ztol)
    b, keep = (a, live) if B is A else B.directions(ztol)
    w = math.asin(CROSS_TOL)
    s = b + math.pi
    s[s > math.pi] -= TWO_PI
    order = np.argsort(s)
    s = s[order]
    below, above = s <= w - math.pi, s >= math.pi - w
    s = np.concatenate([s[above] - TWO_PI, s, s[below] + TWO_PI])
    lo = np.searchsorted(s, a - w, side="left")
    found = np.searchsorted(s, a + w, side="right") - lo
    counts = np.zeros(len(live), dtype=found.dtype)
    counts[live] = found
    hits = np.flatnonzero(found)
    if not len(hits):
        return counts, None
    k = int(hits[np.argmin(a[hits])])
    j = np.concatenate([order[above], order, order[below]])[lo[k]]
    i, j = int(np.flatnonzero(live)[k]), int(np.flatnonzero(keep)[j])
    return counts, [(np.array([P.F[m], P.G[m]]) / np.hypot(P.F[m], P.G[m])).tolist()
                    for P, m in ((A, i), (B, j))]


# ----------------------------------------------------- non-strict multiplier


def find_nonstrict_multiplier(
    f: GeneralizedPolynomial,
    g: GeneralizedPolynomial,
    d: Dilation | None = None,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
):
    """Search for xi >= 0 with f - xi*g >= 0 everywhere.

    Applies to integer-power homogeneous pairs of degree k >= 1 under the
    standard dilation.  Hypotheses: no common sphere zero, copositivity,
    and the sampled image fits a closed half-plane (phi <= pi), which
    with no common zero means at most one line through the origin: phi
    is 2*pi minus the largest gap between sampled directions, allowed
    3x the sample spacing above pi.  xi = 0 is
    returned whenever f is already nonnegative; otherwise the margin
    maximizer must reach a nonnegative margin, which forces xi > 0.
    """
    if d is None:
        d = Dilation.standard(f.n)
    if not d.is_standard:
        raise UsageError("the non-strict search is defined for the standard dilation")
    if not (f.has_integer_powers() and g.has_integer_powers()):
        raise UsageError("the non-strict search needs integer powers")
    if _common_degree(f, g, d) < 1.0 - 1e-12:
        raise UsageError("degree must be at least 1")
    return _run_chain(_nonstrict_chain(SampledPair.draw(f, g, d, count, seed)))


def _nonstrict_chain(pair: SampledPair):
    yield _sphere_zero_check(pair)
    yield _copositivity_check("copositivity", pair.is_copositive(),
                              "f is not copositive with g", "copositivity")
    yield _line_check(pair)

    min_f = float(np.min(pair.F))
    if min_f >= -_nonneg_tol(pair.scale_f):
        xi_star, m_star = 0.0, min_f
    else:
        with overflow_guard("margin scan"):
            xi_star, m_star = _maximize_margin(pair.F, pair.G, allow_zero=True)
    tol = _nonneg_tol(pair.scale_f + abs(xi_star) * pair.scale_g)
    yield _check("margin_maximization", m_star >= -tol, ReasonCode.VERIFICATION_FAILED,
                 "no xi >= 0 reached a nonnegative margin", "derivation",
                 xi=xi_star, margin=m_star)

    mv = _fresh_margin(pair, xi_star)
    yield _check("fresh_verification", mv >= -tol, ReasonCode.VERIFICATION_FAILED,
                 FRESH_FAILED, "verification", margin=mv)

    return MultiplierCertificate(
        xi=float(xi_star),
        strict=False,
        margin=mv,
        sample_count=len(pair.X),
        seed=pair.seed,
        dilation=pair.d.to_dict(),
        threshold=tol,
        margin_derivation=m_star,
    )


# ----------------------------------------------------------- NHS multiplier


def _affine_samples(n: int, count: int, seed: int) -> np.ndarray:
    """Deterministic point set spanning a box of radius NHS_BOX_RADIUS,
    mixing radial shells of sphere directions with the origin."""
    dirs = sphere_samples(Dilation.standard(n), count, seed)
    radii = np.geomspace(0.05, NHS_BOX_RADIUS, 16)
    X = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    return np.vstack([np.zeros((1, n)), X])


def find_nhs_multiplier(
    f: GeneralizedPolynomial,
    g: GeneralizedPolynomial,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
):
    """Multiplier search for non-homogeneous polynomial pairs.

    f and g need integer powers and plain monomials (no |x| factors);
    other pairs raise ValueError before any sampling.  Checks the
    copositivity and no-common-zero hypotheses for the pair itself and
    for its top-degree forms, then the four direction consistency items:
    no antipodal directions within the top image (item 1), within the
    affine image (item 2), or between the two (items 3 and 4, one
    symmetric test).  On success the homogeneous non-strict search runs
    on the pair homogenized with one auxiliary variable, and the
    resulting xi is re-verified on the t = 1 slice over a box.
    """
    if f.n != g.n:
        raise ValueError("variable counts differ")
    n = f.n
    k = int(max(f.total_degree() or 0, g.total_degree() or 0))
    lift = homogenize(f, k), homogenize(g, k)
    if k < 1:
        raise UsageError("degree must be at least 1")
    if count is None:
        count = min(_default_count(n), 16384)
    affine = SampledPair(f, g, _affine_samples(n, count, seed), count, seed)
    return _run_chain(_nhs_chain(lift, k, affine))


def _nhs_chain(lift, k, affine: SampledPair):
    n, seed = affine.f.n, affine.seed
    # zero thresholds relative to the sampled scale: box values grow like
    # NHS_BOX_RADIUS**k, so an absolute floor would mean nothing here
    yield _zero_check("affine_zero_margin", affine.zero_margin(1e-9 * affine.scale),
                      "f and g share a zero", "affine")
    yield _copositivity_check("affine_copositivity", affine.is_copositive(),
                              "f is not copositive with g", "affine")

    count_top = _default_count(n)
    top = SampledPair(affine.f.top_form(k), affine.g.top_form(k),
                      sphere_samples(Dilation.standard(n), count_top, seed),
                      count_top, seed)
    yield _zero_check("top_zero_margin", top.zero_margin(1e-9 * top.scale),
                      "the top-degree forms share a sphere zero", "top_form")
    yield _copositivity_check("top_copositivity", top.is_copositive(),
                              "the top-degree form of f is not copositive with that of g",
                              "top_form")

    yield _collision_check("item_1_top_antipodal", top, top,
                           ReasonCode.NHS_ITEM_1,
                           "the top-form image contains a pair of opposite directions",
                           "item_1")
    yield _collision_check("item_2_affine_antipodal", affine, affine,
                           ReasonCode.NHS_ITEM_2,
                           "the image of (f, g) contains collinear opposite-pointing values",
                           "item_2")
    yield _collision_check("item_3_4_cross_antipodal", affine, top,
                           ReasonCode.NHS_ITEM_3,
                           "an image value of (f, g) opposes a top-form image direction",
                           "item_3_4")

    lifted = find_nonstrict_multiplier(*lift, Dilation.standard(n + 1), seed=seed)
    failed = isinstance(lifted, MultiplierFailure)
    if failed:
        lifted.stage = f"homogenized:{lifted.stage}"
    *passed, last = lifted.checks
    for record in passed:
        yield record, None
    yield last, lifted if failed else None

    slice_vals = affine.F - lifted.xi * affine.G
    m_slice = float(np.min(slice_vals))
    tol_slice = _nonneg_tol(float(np.max(np.abs(slice_vals))))
    yield _check("t1_slice_verification", m_slice >= -tol_slice, ReasonCode.VERIFICATION_FAILED,
                 "the lifted multiplier failed on the t = 1 slice", "t1_slice",
                 witness=list(affine.X[int(np.argmin(slice_vals))]),
                 margin=m_slice, box_radius=NHS_BOX_RADIUS)

    return MultiplierCertificate(
        xi=lifted.xi,
        strict=False,
        margin=lifted.margin,
        sample_count=lifted.sample_count,
        seed=seed,
        dilation=lifted.dilation,
        threshold=lifted.threshold,
        margin_derivation=lifted.margin_derivation,
        details={"t1_margin": m_slice, "box_radius": NHS_BOX_RADIUS,
                 "lift_degree": k},
    )
