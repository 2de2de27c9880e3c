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
  image_lines, margin_maximization, fresh_verification.
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
)
from .stp_poly import homogenize

XI_GRID_LO = 1e-6
XI_GRID_HI = 1e6
XI_GRID_POINTS = 241

CROSS_TOL = 1e-6
NBINS = 1440

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


@dataclass
class MultiplierFailure:
    reason: ReasonCode
    message: str
    witness: list | None = None
    stage: str | None = None
    checks: list = field(default_factory=list)
    ok: bool = False


# ----------------------------------------------------------------- sampling


def _fresh_samples(d: Dilation, count: int, seed: int) -> np.ndarray:
    """Independent sample set for re-verification.

    The n = 2 grid is seed-free, so independence comes from a seeded
    fractional rotation of the whole grid (other dimensions ignore the
    offset); n >= 3 reseeds the low-discrepancy engine.
    """
    offset = float(np.random.default_rng(seed + 1).random())
    return sphere_samples(d, count, seed + 1, offset=offset)


# ------------------------------------------------- copositivity, SHS condition


def is_copositive(
    f: GeneralizedPolynomial,
    g: GeneralizedPolynomial,
    d: Dilation,
    strict: bool = False,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
) -> CopositivityReport:
    """Test min of f over the sampled part of the sphere where g >= 0
    (`SampledPair.is_copositive`)."""
    return SampledPair.draw(f, g, d, count, seed).is_copositive(strict)


def shs_condition(
    f: GeneralizedPolynomial,
    g: GeneralizedPolynomial,
    d: Dilation,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
) -> ShsConditionReport:
    """Solvability-gap condition: the sector angle of U is < pi
    (`SampledPair.shs_condition`)."""
    return SampledPair.draw(f, g, d, count, seed).shs_condition()


# ------------------------------------------------------------ margin search


def _margin_at(F: np.ndarray, G: np.ndarray, xi: float) -> float:
    return float(np.min(F - xi * G))


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


def _deciding_rows(F, G, xi_max):
    """The rows of (F, G) that can set min(F - xi*G) for 0 <= xi <= xi_max,
    in their original order.

    A row j with some other row k at F_k <= F_j and G_k >= G_j never sets
    it: IEEE rounding is monotone, so fl(F_k - fl(xi*G_k)) <= fl(F_j -
    fl(xi*G_j)), and every minimum over the rest is bit-identical.  In
    the order of F, a row whose G does not exceed every G before it has
    such a k, and is dropped; ties in F may keep a dominated row, but
    never drop one that is not.  Two cases keep all rows: a non-finite
    F or G, and an F of -0.0, the only way to a -0.0 result, since which
    signed zero `np.min` returns then depends on the rows it sees.  Rows
    with F - xi_max*G not finite are kept too: they are the only rows that
    overflow at any xi <= xi_max, so a scan raises where the full one does.
    """
    if not (np.isfinite(F).all() and np.isfinite(G).all()) or np.any(np.signbit(F) & (F == 0)):
        return F, G
    order = np.argsort(F)
    Gs = G[order]
    keep = np.zeros(len(F), dtype=bool)
    keep[order[:1]] = True
    keep[order[1:][Gs[1:] > np.maximum.accumulate(Gs)[:-1]]] = True
    with np.errstate(over="ignore"):
        keep |= ~np.isfinite(F - xi_max * G)
    return F[keep], G[keep]


def _maximize_margin(F, G, extra_candidates=(), allow_zero=False):
    """Globally maximize m(xi) = min(F - xi*G) over the xi search space.

    Only the rows that can set a minimum are scanned (`_deciding_rows`),
    so every margin is that of the full scan, bit for bit."""
    cands = list(np.geomspace(XI_GRID_LO, XI_GRID_HI, XI_GRID_POINTS))
    cands.extend(x for x in extra_candidates if x is not None and x > 0)
    if allow_zero:
        cands.append(0.0)
    xis = np.array(sorted(set(cands)))
    F, G = _deciding_rows(F, G, xis[-1])
    margins = np.empty(len(xis))
    for s in range(0, len(xis), 32):
        blk = xis[s:s + 32]
        margins[s:s + 32] = np.min(F[None, :] - blk[:, None] * G[None, :], axis=1)
    i = int(np.argmax(margins))
    lo = xis[max(i - 1, 0)]
    hi = xis[min(i + 1, len(xis) - 1)]
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
    return _check(name, zm.margin > zm.threshold, ReasonCode.COMMON_ZERO, message, stage,
                  witness=list(zm.witness), margin=zm.margin, **data)


def _copositivity_check(name, cop: CopositivityReport, message, stage):
    return _check(name, cop.holds, ReasonCode.NOT_COPOSITIVE, message, stage,
                  witness=None if cop.witness is None else list(cop.witness),
                  min_value=cop.min_value)


def _collision_check(name, hits, reason, message, stage):
    return _check(name, not hits, reason, message, stage,
                  witness=[list(h) for h in hits[0]] if hits else None,
                  collisions=len(hits))


def _sphere_zero_check(pair: SampledPair):
    zm = pair.zero_margin()
    return _zero_check("zero_margin", zm, "f and g share a zero on the sphere",
                       "zero_margin", refined=zm.refined)


def _fresh_margin(pair: SampledPair, xi: float) -> float:
    """min of f - xi*g on an independent sample set of the pair's sphere."""
    Xv = _fresh_samples(pair.d, pair.count, pair.seed)
    return float(np.min(pair.f.evaluate(Xv) - xi * pair.g.evaluate(Xv)))


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


def _bin_occupancy(U: np.ndarray, nbins: int, cap: int = 96) -> dict[int, np.ndarray]:
    """Rows of `np.round(U, 9)` grouped by the angle bin of U, at most
    `cap` per bin.

    A row is stored once per distinct value of (bin, rounded row).  Rows
    compare by value, so -0.0 and 0.0 are the same coordinate, and the
    stored row is the first occurrence, with its own sign of zero.  Each
    bin keeps its first `cap` distinct rows in the order they first occur
    in U.
    """
    if len(U) == 0:
        return {}
    ang = np.arctan2(U[:, 1], U[:, 0])
    bins = ((ang + math.pi) / TWO_PI * nbins).astype(int) % nbins
    R = np.round(U, 9)
    # stable, so equal rows keep their order; floats compare by value, -0.0 == 0.0
    order = np.lexsort((R[:, 1], R[:, 0], bins))
    b, x, y = bins[order], R[order, 0], R[order, 1]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (b[1:] != b[:-1]) | (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    # the first occurrences, ordered by bin and then by position in U
    firsts = order[first]
    key = np.sort(bins[firsts] * len(U) + firsts)
    rows, row_bins = key % len(U), key // len(U)
    starts = np.flatnonzero(np.diff(row_bins, prepend=-1))
    ends = np.append(starts[1:], len(rows))
    return {int(row_bins[s]): R[rows[s:min(e, s + cap)]] for s, e in zip(starts, ends)}


class _DirectionBins:
    """The unit directions of a planar point set, binned by angle.

    Rows no longer than the zero tolerance of a query have no direction.
    The tolerance depends on both sets of a query, so the occupancy is
    kept per set of surviving rows: a set that takes part in several
    queries is binned once for each distinct set of rows, usually once.
    """

    def __init__(self, P: np.ndarray):
        self.P = np.asarray(P, dtype=float)
        self.norms = np.hypot(self.P[:, 0], self.P[:, 1])
        self.peak = float(np.max(np.abs(self.P))) if len(self.P) else 0.0
        self._occupancy: dict[int, dict[int, np.ndarray]] = {}

    def occupancy(self, ztol: float) -> dict[int, np.ndarray]:
        keep = self.norms > ztol
        # the kept rows shrink as ztol grows, so their count identifies them
        kept = int(np.count_nonzero(keep))
        if kept not in self._occupancy:
            U = self.P[keep] / self.norms[keep, None]
            self._occupancy[kept] = _bin_occupancy(U, NBINS)
        return self._occupancy[kept]


def _direction_collisions(
    A: _DirectionBins,
    B: _DirectionBins,
    max_report: int | None = 64,
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Pairs u in A, v in B pointing in opposite directions.

    Opposite means |cross(u, v)| <= CROSS_TOL on unit vectors and
    u . v < 0, i.e. the rays are anti-parallel within tolerance.  Bins
    prefilter the candidates; the cross-product test decides.  The walk
    goes up from angle -pi and stops after `max_report` hits (None: no
    stop; the per-bin cap of the occupancy bounds the count).
    """
    ztol = 1e-12 * max(1.0, A.peak, B.peak)
    occ_a = A.occupancy(ztol)
    occ_b = B.occupancy(ztol)
    half = NBINS // 2
    hits = []
    for b, ua in sorted(occ_a.items()):
        for db in (-1, 0, 1):
            tb = (b + half + db) % NBINS
            vb = occ_b.get(tb)
            if vb is None:
                continue
            cross = np.abs(ua[:, 0:1] * vb[None, :, 1] - ua[:, 1:2] * vb[None, :, 0])
            dot = ua[:, 0:1] * vb[None, :, 0] + ua[:, 1:2] * vb[None, :, 1]
            ii, jj = np.nonzero((cross <= CROSS_TOL) & (dot < 0))
            for i, j in zip(ii, jj):
                hits.append(
                    ((float(ua[i, 0]), float(ua[i, 1])),
                     (float(vb[j, 0]), float(vb[j, 1])))
                )
                if max_report is not None and len(hits) >= max_report:
                    return hits
    return hits


def _count_lines(P: np.ndarray) -> tuple[int, list[float]]:
    """Number of distinct lines through the origin present in a point set,
    detected as clusters of antipodal direction collisions (angles mod pi).

    Every collision is clustered: a truncated list would hold only the
    lines met first in the walk over the bins.  A cluster spans at most
    0.02 rad from its first angle, so a continuum of directions counts as
    many lines, not one."""
    bins = _DirectionBins(P)
    colls = _direction_collisions(bins, bins, max_report=None)
    if not colls:
        return 0, []
    angles = sorted(math.atan2(u[1], u[0]) % math.pi for u, _ in colls)

    def mod_pi_dist(a, b):
        h = abs(a - b)
        return min(h, math.pi - h)

    clusters: list[list[float]] = []
    for a in angles:
        if clusters and mod_pi_dist(a, clusters[-1][0]) <= 0.02:
            clusters[-1].append(a)
        else:
            clusters.append([a])
    if len(clusters) > 1 and mod_pi_dist(clusters[0][-1], clusters[-1][0]) <= 0.02:
        clusters[0].extend(clusters.pop())
    return len(clusters), [float(np.mean(c)) for c in clusters]


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
    and at most one line through the origin in the image.  xi = 0 is
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
    nlines, line_angles = _count_lines(pair.joint_values)
    yield _check("image_lines", nlines <= 1, ReasonCode.MULTIPLE_LINES,
                 f"image contains {nlines} lines through the origin; "
                 "at most one is allowed", "image_lines",
                 count=nlines, angles=line_angles)

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

    A, T = _DirectionBins(affine.joint_values), _DirectionBins(top.joint_values)
    yield _collision_check("item_1_top_antipodal", _direction_collisions(T, T),
                           ReasonCode.NHS_ITEM_1,
                           "the top-form image contains a pair of opposite directions",
                           "item_1")
    yield _collision_check("item_2_affine_antipodal", _direction_collisions(A, A),
                           ReasonCode.NHS_ITEM_2,
                           "the image of (f, g) contains collinear opposite-pointing values",
                           "item_2")
    yield _collision_check("item_3_4_cross_antipodal", _direction_collisions(A, T),
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
