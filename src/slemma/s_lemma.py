"""Copositivity tests and multiplier searches with margin-backed certificates.

The searches follow a two-phase protocol: derive a multiplier xi from
geometry (separating direction of the sampled image sector) and margin
maximization, then re-verify the margin on an independent sample set
before issuing a certificate.  The margin

    m(xi) = min over sphere samples of f(x) - xi*g(x)

is a pointwise minimum of affine functions of xi, hence concave, so a
log-grid scan plus golden-section refinement finds its global maximum.

Failures carry machine-readable reason codes.  Hypothesis checks run in
a fixed order with the common-zero test first: a pair with a shared
sphere zero fails every variant for that one geometric reason, and the
copositivity sampler cannot distinguish a boundary zero from an honest
interior minimum.
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
    sphere_samples,
)
from .image_analysis import (
    ImageSummary,
    _common_degree,
    _default_count,
    _gap_list,
    sample_image,
    zero_margin,
)
from .stp_poly import CoeffVecPolynomial, homogenize

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


class VerificationError(RuntimeError):
    """An issued certificate failed its own re-verification."""


def _pos_threshold(scale: float) -> float:
    return 1e-8 * max(1.0, scale)


def _nonneg_tol(scale: float) -> float:
    return 1e-9 * max(1.0, scale)


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

    def __bool__(self):
        return self.holds

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "strict": self.strict,
            "min_value": self.min_value,
            "witness": None if self.witness is None else list(self.witness),
            "vacuous": self.vacuous,
            "threshold": self.threshold,
            "sample_count": self.sample_count,
            "seed": self.seed,
        }


@dataclass
class ShsConditionReport:
    holds: bool
    symmetrized_gap: float
    witness_direction: tuple[float, float] | None
    gap_interval: tuple[float, float] | None
    image: ImageSummary
    sample_count: int
    seed: int

    def __bool__(self):
        return self.holds

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "symmetrized_gap": self.symmetrized_gap,
            "witness_direction": self.witness_direction,
            "gap_interval": self.gap_interval,
            "image": self.image.to_dict(),
            "sample_count": self.sample_count,
            "seed": self.seed,
        }


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

    def to_json(self) -> dict:
        return {
            "ok": True,
            "xi": self.xi,
            "strict": self.strict,
            "margin": self.margin,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "dilation": self.dilation,
            "threshold": self.threshold,
            "xi_initial": self.xi_initial,
            "margin_initial": self.margin_initial,
            "margin_derivation": self.margin_derivation,
            "checks": self.checks,
            "details": self.details,
        }


@dataclass
class MultiplierFailure:
    reason: ReasonCode
    message: str
    witness: list | None = None
    stage: str | None = None
    checks: list = field(default_factory=list)
    ok: bool = False

    def to_json(self) -> dict:
        return {
            "ok": False,
            "reason": self.reason.value,
            "message": self.message,
            "witness": self.witness,
            "stage": self.stage,
            "checks": self.checks,
        }


# ----------------------------------------------------------------- sampling


def _fresh_samples(d: Dilation, count: int, seed: int) -> np.ndarray:
    """Independent sample set for re-verification.

    The n = 2 grid is seed-free, so independence comes from a seeded
    fractional rotation of the whole grid; other dimensions reseed the
    low-discrepancy engine.
    """
    if d.n == 2:
        offset = float(np.random.default_rng(seed + 1).random())
        return sphere_samples(d, count, seed + 1, offset=offset)
    return sphere_samples(d, count, seed + 1)


# -------------------------------------------------------------- copositivity


def is_copositive(
    f: GeneralizedPolynomial,
    g: GeneralizedPolynomial,
    d: Dilation,
    strict: bool = False,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
) -> CopositivityReport:
    """Test min of f over the sampled part of the sphere where g >= 0.

    The strict test keeps samples with g within noise of zero: a shared
    boundary zero must count against strict positivity.  The non-strict
    test drops that noisy boundary so that a pair which merely touches
    zero along {g = 0} is not misread as a violation.
    """
    _common_degree(f, g, d)
    if count is None:
        count = _default_count(d.n)
    X = sphere_samples(d, count, seed)
    F = f.evaluate(X)
    G = g.evaluate(X)
    scale_f = float(np.max(np.abs(F))) if len(F) else 0.0
    scale_g = float(np.max(np.abs(G))) if len(G) else 0.0
    g_noise = 1e-12 * max(1.0, scale_g)

    mask = G >= (-g_noise if strict else g_noise)
    if not np.any(mask):
        return CopositivityReport(
            holds=True, strict=strict, min_value=None, witness=None,
            vacuous=True, threshold=0.0, sample_count=len(X), seed=seed,
        )
    vals = F[mask]
    pts = X[mask]
    i = int(np.argmin(vals))
    mn = float(vals[i])
    if strict:
        threshold = _pos_threshold(scale_f)
        holds = mn > threshold
    else:
        threshold = _nonneg_tol(scale_f)
        holds = mn >= -threshold
    return CopositivityReport(
        holds=holds, strict=strict, min_value=mn, witness=pts[i],
        vacuous=False, threshold=threshold, sample_count=len(X), seed=seed,
    )


# ------------------------------------------------------------ SHS condition


def shs_condition(
    f: GeneralizedPolynomial,
    g: GeneralizedPolynomial,
    d: Dilation,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
) -> ShsConditionReport:
    """Solvability-gap condition: the symmetrized direction set of U
    leaves an uncovered arc, equivalently the sector angle of U is < pi.

    The witness direction (a, b) points into the uncovered arc: neither
    (f, g) = t(a, b) nor (f, g) = -t(a, b) appears attainable.
    """
    if f.parity() is not Parity.EVEN or g.parity() is not Parity.EVEN:
        raise ValueError("the condition is defined for even f and g")
    k = _common_degree(f, g, d)
    if k <= 0:
        raise ValueError("degree must be positive")
    if count is None:
        count = _default_count(d.n)
    summary = sample_image(f, g, d, count=count, seed=seed)

    dirs = summary.directions
    sym = np.sort(np.concatenate([dirs, ((dirs + math.pi + math.pi) % TWO_PI) - math.pi]))
    gaps, starts = _gap_list(sym)
    i = int(np.argmax(gaps))
    largest = float(gaps[i])
    gap_tol = 3.0 * TWO_PI / count
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
        sample_count=count,
        seed=seed,
    )


# ------------------------------------------------------------ margin search


def multiplier_margin(
    f: GeneralizedPolynomial,
    g: GeneralizedPolynomial,
    xi: float,
    d: Dilation,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
    offset: float = 0.0,
) -> tuple[float, np.ndarray]:
    """min over sphere samples of f - xi*g, with the minimizing point."""
    _common_degree(f, g, d)
    if count is None:
        count = _default_count(d.n)
    X = sphere_samples(d, count, seed, offset=offset)
    vals = f.evaluate(X) - xi * g.evaluate(X)
    i = int(np.argmin(vals))
    return float(vals[i]), X[i]


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


def _maximize_margin(F, G, extra_candidates=(), allow_zero=False):
    """Globally maximize m(xi) = min(F - xi*G) over the xi search space."""
    cands = list(np.geomspace(XI_GRID_LO, XI_GRID_HI, XI_GRID_POINTS))
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
    _common_degree(f, g, d)
    if count is None:
        count = _default_count(d.n)
    checks = []

    zm = zero_margin(f, g, d, count=count, seed=seed)
    checks.append({"check": "zero_margin", "ok": zm.margin > zm.threshold,
                   "margin": zm.margin, "refined": zm.refined})
    if zm.margin <= zm.threshold:
        return MultiplierFailure(
            ReasonCode.COMMON_ZERO,
            "f and g share a zero on the sphere",
            witness=list(zm.witness),
            stage="zero_margin",
            checks=checks,
        )

    cop = is_copositive(f, g, d, strict=True, count=count, seed=seed)
    checks.append({"check": "strict_copositivity", "ok": cop.holds,
                   "min_value": cop.min_value})
    if not cop.holds:
        return MultiplierFailure(
            ReasonCode.NOT_COPOSITIVE,
            "f is not strictly copositive with g",
            witness=None if cop.witness is None else list(cop.witness),
            stage="copositivity",
            checks=checks,
        )

    shs = shs_condition(f, g, d, count=count, seed=seed)
    checks.append({"check": "shs_condition", "ok": shs.holds,
                   "symmetrized_gap": shs.symmetrized_gap,
                   "phi": shs.image.phi})
    if not shs.holds:
        return MultiplierFailure(
            ReasonCode.SECTOR_GE_PI,
            "symmetrized image directions leave no uncovered arc "
            "(sector angle >= pi)",
            stage="shs_condition",
            checks=checks,
        )

    X = sphere_samples(d, count, seed)
    F = f.evaluate(X)
    G = g.evaluate(X)
    xi_init, m_init = _geometric_xi(shs, F, G)
    xi_star, m_star = _maximize_margin(F, G, extra_candidates=(xi_init,))
    scale = float(np.max(np.abs(F)) + abs(xi_star) * np.max(np.abs(G)))
    threshold = _pos_threshold(scale)
    checks.append({"check": "margin_maximization", "ok": m_star > threshold,
                   "xi": xi_star, "margin": m_star,
                   "xi_initial": xi_init, "margin_initial": m_init})
    if not (xi_star > 0 and m_star > threshold):
        return MultiplierFailure(
            ReasonCode.VERIFICATION_FAILED,
            "no positive xi reached a positive margin despite the "
            "sector condition",
            stage="derivation",
            checks=checks,
        )

    Xv = _fresh_samples(d, count, seed)
    mv = float(np.min(f.evaluate(Xv) - xi_star * g.evaluate(Xv)))
    checks.append({"check": "fresh_verification", "ok": mv > threshold,
                   "margin": mv})
    if mv <= threshold:
        return MultiplierFailure(
            ReasonCode.VERIFICATION_FAILED,
            "certificate failed re-verification on an independent sample set",
            stage="verification",
            checks=checks,
        )

    return MultiplierCertificate(
        xi=float(xi_star),
        strict=True,
        margin=mv,
        sample_count=len(X),
        seed=seed,
        dilation=d.to_dict(),
        threshold=threshold,
        xi_initial=xi_init,
        margin_initial=m_init,
        margin_derivation=m_star,
        checks=checks,
    )


# --------------------------------------------------- direction collisions


def _unit_rows(P: np.ndarray, ztol: float) -> np.ndarray:
    norms = np.hypot(P[:, 0], P[:, 1])
    keep = norms > ztol
    return P[keep] / norms[keep, None]


def _bin_occupancy(U: np.ndarray, nbins: int, cap: int = 96) -> dict[int, np.ndarray]:
    ang = np.arctan2(U[:, 1], U[:, 0])
    bins = ((ang + math.pi) / TWO_PI * nbins).astype(int) % nbins
    occ: dict[int, list] = {}
    seen: set = set()
    for b, u in zip(bins, np.round(U, 9)):
        key = (b, u[0], u[1])
        if key in seen:
            continue
        seen.add(key)
        lst = occ.setdefault(int(b), [])
        if len(lst) < cap:
            lst.append(u)
    return {b: np.array(lst) for b, lst in occ.items()}


def _direction_collisions(
    A: np.ndarray,
    B: np.ndarray,
    cross_tol: float = CROSS_TOL,
    max_report: int = 64,
) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Pairs u in A, v in B pointing in opposite directions.

    Opposite means |cross(u, v)| <= cross_tol on unit vectors and
    u . v < 0, i.e. the rays are anti-parallel within tolerance.  Bins
    prefilter the candidates; the cross-product test decides.
    """
    if len(A) == 0 or len(B) == 0:
        return []
    scale = max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(B))))
    ztol = 1e-12 * scale
    UA = _unit_rows(np.asarray(A, dtype=float), ztol)
    UB = _unit_rows(np.asarray(B, dtype=float), ztol)
    if len(UA) == 0 or len(UB) == 0:
        return []
    occ_a = _bin_occupancy(UA, NBINS)
    occ_b = _bin_occupancy(UB, NBINS)
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
            ii, jj = np.nonzero((cross <= cross_tol) & (dot < 0))
            for i, j in zip(ii, jj):
                hits.append(
                    ((float(ua[i, 0]), float(ua[i, 1])),
                     (float(vb[j, 0]), float(vb[j, 1])))
                )
                if len(hits) >= max_report:
                    return hits
    return hits


def _count_lines(P: np.ndarray) -> tuple[int, list[float]]:
    """Number of distinct lines through the origin present in a point set,
    detected as clusters of antipodal direction collisions (angles mod pi)."""
    colls = _direction_collisions(P, P)
    if not colls:
        return 0, []
    angles = sorted(math.atan2(u[1], u[0]) % math.pi for u, _ in colls)

    def mod_pi_dist(a, b):
        h = abs(a - b)
        return min(h, math.pi - h)

    clusters: list[list[float]] = []
    for a in angles:
        if clusters and mod_pi_dist(a, clusters[-1][-1]) <= 0.02:
            clusters[-1].append(a)
        else:
            clusters.append([a])
    if len(clusters) > 1 and mod_pi_dist(clusters[0][0], clusters[-1][-1]) <= 0.02:
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
        raise ValueError("the non-strict search is defined for the standard dilation")
    if not (f.has_integer_powers() and g.has_integer_powers()):
        raise ValueError("the non-strict search needs integer powers")
    k = _common_degree(f, g, d)
    if k < 1.0 - 1e-12:
        raise ValueError("degree must be at least 1")
    if count is None:
        count = _default_count(d.n)
    checks = []

    zm = zero_margin(f, g, d, count=count, seed=seed)
    checks.append({"check": "zero_margin", "ok": zm.margin > zm.threshold,
                   "margin": zm.margin, "refined": zm.refined})
    if zm.margin <= zm.threshold:
        return MultiplierFailure(
            ReasonCode.COMMON_ZERO,
            "f and g share a zero on the sphere",
            witness=list(zm.witness),
            stage="zero_margin",
            checks=checks,
        )

    cop = is_copositive(f, g, d, strict=False, count=count, seed=seed)
    checks.append({"check": "copositivity", "ok": cop.holds,
                   "min_value": cop.min_value})
    if not cop.holds:
        return MultiplierFailure(
            ReasonCode.NOT_COPOSITIVE,
            "f is not copositive with g",
            witness=None if cop.witness is None else list(cop.witness),
            stage="copositivity",
            checks=checks,
        )

    X = sphere_samples(d, count, seed)
    F = f.evaluate(X)
    G = g.evaluate(X)
    P = np.column_stack([F, G])
    nlines, line_angles = _count_lines(P)
    checks.append({"check": "image_lines", "ok": nlines <= 1,
                   "count": nlines, "angles": line_angles})
    if nlines > 1:
        return MultiplierFailure(
            ReasonCode.MULTIPLE_LINES,
            f"image contains {nlines} lines through the origin; "
            "at most one is allowed",
            stage="image_lines",
            checks=checks,
        )

    scale_f = float(np.max(np.abs(F)))
    tol0 = _nonneg_tol(scale_f)
    min_f = float(np.min(F))
    if min_f >= -tol0:
        xi_star, m_star = 0.0, min_f
    else:
        xi_star, m_star = _maximize_margin(F, G, allow_zero=True)
    scale = float(np.max(np.abs(F)) + abs(xi_star) * np.max(np.abs(G)))
    tol = _nonneg_tol(scale)
    checks.append({"check": "margin_maximization", "ok": m_star >= -tol,
                   "xi": xi_star, "margin": m_star})
    if m_star < -tol:
        return MultiplierFailure(
            ReasonCode.VERIFICATION_FAILED,
            "no xi >= 0 reached a nonnegative margin",
            stage="derivation",
            checks=checks,
        )

    Xv = _fresh_samples(d, count, seed)
    mv = float(np.min(f.evaluate(Xv) - xi_star * g.evaluate(Xv)))
    checks.append({"check": "fresh_verification", "ok": mv >= -tol, "margin": mv})
    if mv < -tol:
        return MultiplierFailure(
            ReasonCode.VERIFICATION_FAILED,
            "certificate failed re-verification on an independent sample set",
            stage="verification",
            checks=checks,
        )

    return MultiplierCertificate(
        xi=float(xi_star),
        strict=False,
        margin=mv,
        sample_count=len(X),
        seed=seed,
        dilation=d.to_dict(),
        threshold=tol,
        margin_derivation=m_star,
        checks=checks,
    )


# ----------------------------------------------------------- NHS multiplier


def _affine_samples(n: int, radius: float, count: int, seed: int) -> np.ndarray:
    """Deterministic point set spanning a box, mixing radial shells of
    sphere directions with the origin."""
    dirs = sphere_samples(Dilation.standard(n), count, seed)
    radii = np.geomspace(0.05, radius, 16)
    X = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, n)
    return np.vstack([np.zeros((1, n)), X])


def find_nhs_multiplier(
    f: CoeffVecPolynomial,
    g: CoeffVecPolynomial,
    count: int | None = None,
    seed: int = DEFAULT_SEED,
    box_radius: float = NHS_BOX_RADIUS,
):
    """Multiplier search for non-homogeneous polynomial pairs.

    Checks the copositivity and no-common-zero hypotheses for the pair
    itself and for its top-degree forms, then the four direction
    consistency items: no antipodal directions within the top image
    (item 1), within the affine image (item 2), or between the two
    (items 3 and 4, one symmetric test).  On success the pair is
    homogenized with one auxiliary variable, the homogeneous non-strict
    search runs on the lift, and the resulting xi is re-verified on the
    t = 1 slice over a box.
    """
    if f.n != g.n:
        raise ValueError("variable counts differ")
    n = f.n
    gf = f.to_generalized()
    gg = g.to_generalized()
    k = max(f.degree, g.degree)
    if k < 1:
        raise ValueError("degree must be at least 1")
    checks = []

    if count is None:
        count = min(_default_count(n), 16384)
    Xa = _affine_samples(n, box_radius, count, seed)
    Fa = gf.evaluate(Xa)
    Ga = gg.evaluate(Xa)
    scale_a = max(1.0, float(np.max(np.abs(Fa))), float(np.max(np.abs(Ga))))

    both = np.maximum(np.abs(Fa), np.abs(Ga))
    i = int(np.argmin(both))
    affine_zero_margin = float(both[i])
    ok = affine_zero_margin > 1e-9 * scale_a
    checks.append({"check": "affine_zero_margin", "ok": ok,
                   "margin": affine_zero_margin})
    if not ok:
        return MultiplierFailure(
            ReasonCode.COMMON_ZERO,
            "f and g share a zero",
            witness=list(Xa[i]),
            stage="affine",
            checks=checks,
        )

    g_noise = 1e-12 * max(1.0, float(np.max(np.abs(Ga))))
    mask = Ga >= g_noise
    tol_a = _nonneg_tol(float(np.max(np.abs(Fa))))
    min_fa = float(np.min(Fa[mask])) if np.any(mask) else None
    ok = min_fa is None or min_fa >= -tol_a
    checks.append({"check": "affine_copositivity", "ok": ok, "min_value": min_fa})
    if not ok:
        j = int(np.nonzero(mask)[0][int(np.argmin(Fa[mask]))])
        return MultiplierFailure(
            ReasonCode.NOT_COPOSITIVE,
            "f is not copositive with g",
            witness=list(Xa[j]),
            stage="affine",
            checks=checks,
        )

    d_top = Dilation.standard(n)
    ft = gf.top_form(k)
    gt = gg.top_form(k)
    count_top = _default_count(n)
    Xt = sphere_samples(d_top, count_top, seed)
    Ft = ft.evaluate(Xt) if not ft.is_zero else np.zeros(len(Xt))
    Gt = gt.evaluate(Xt) if not gt.is_zero else np.zeros(len(Xt))
    scale_t = max(1.0, float(np.max(np.abs(Ft))), float(np.max(np.abs(Gt))))

    both_t = np.maximum(np.abs(Ft), np.abs(Gt))
    it = int(np.argmin(both_t))
    top_zero_margin = float(both_t[it])
    ok = top_zero_margin > 1e-9 * scale_t
    if ok and n == 2 and not ft.is_zero and not gt.is_zero:
        zm_top = zero_margin(ft, gt, d_top, count=count_top, seed=seed)
        ok = zm_top.margin > zm_top.threshold
    checks.append({"check": "top_zero_margin", "ok": ok, "margin": top_zero_margin})
    if not ok:
        return MultiplierFailure(
            ReasonCode.COMMON_ZERO,
            "the top-degree forms share a sphere zero",
            witness=list(Xt[it]),
            stage="top_form",
            checks=checks,
        )

    g_noise_t = 1e-12 * max(1.0, float(np.max(np.abs(Gt))))
    mask_t = Gt >= g_noise_t
    tol_t = _nonneg_tol(float(np.max(np.abs(Ft))))
    min_ft = float(np.min(Ft[mask_t])) if np.any(mask_t) else None
    ok = min_ft is None or min_ft >= -tol_t
    checks.append({"check": "top_copositivity", "ok": ok, "min_value": min_ft})
    if not ok:
        jt = int(np.nonzero(mask_t)[0][int(np.argmin(Ft[mask_t]))])
        return MultiplierFailure(
            ReasonCode.NOT_COPOSITIVE,
            "the top-degree form of f is not copositive with that of g",
            witness=list(Xt[jt]),
            stage="top_form",
            checks=checks,
        )

    A = np.column_stack([Fa, Ga])
    T = np.column_stack([Ft, Gt])

    hits = _direction_collisions(T, T)
    checks.append({"check": "item_1_top_antipodal", "ok": not hits,
                   "collisions": len(hits)})
    if hits:
        return MultiplierFailure(
            ReasonCode.NHS_ITEM_1,
            "the top-form image contains a pair of opposite directions",
            witness=[list(hits[0][0]), list(hits[0][1])],
            stage="item_1",
            checks=checks,
        )

    hits = _direction_collisions(A, A)
    checks.append({"check": "item_2_affine_antipodal", "ok": not hits,
                   "collisions": len(hits)})
    if hits:
        return MultiplierFailure(
            ReasonCode.NHS_ITEM_2,
            "the image of (f, g) contains collinear opposite-pointing values",
            witness=[list(hits[0][0]), list(hits[0][1])],
            stage="item_2",
            checks=checks,
        )

    hits = _direction_collisions(A, T)
    checks.append({"check": "item_3_4_cross_antipodal", "ok": not hits,
                   "collisions": len(hits)})
    if hits:
        return MultiplierFailure(
            ReasonCode.NHS_ITEM_3,
            "an image value of (f, g) opposes a top-form image direction",
            witness=[list(hits[0][0]), list(hits[0][1])],
            stage="item_3_4",
            checks=checks,
        )

    fh = homogenize(f, k)
    gh = homogenize(g, k)
    lifted = find_nonstrict_multiplier(fh, gh, Dilation.standard(n + 1), seed=seed)
    if isinstance(lifted, MultiplierFailure):
        lifted.checks = checks + lifted.checks
        lifted.stage = f"homogenized:{lifted.stage}"
        return lifted
    checks.extend(lifted.checks)

    xi = lifted.xi
    slice_vals = Fa - xi * Ga
    m_slice = float(np.min(slice_vals))
    tol_slice = _nonneg_tol(float(np.max(np.abs(slice_vals))))
    checks.append({"check": "t1_slice_verification", "ok": m_slice >= -tol_slice,
                   "margin": m_slice, "box_radius": box_radius})
    if m_slice < -tol_slice:
        return MultiplierFailure(
            ReasonCode.VERIFICATION_FAILED,
            "the lifted multiplier failed on the t = 1 slice",
            witness=list(Xa[int(np.argmin(slice_vals))]),
            stage="t1_slice",
            checks=checks,
        )

    return MultiplierCertificate(
        xi=xi,
        strict=False,
        margin=lifted.margin,
        sample_count=lifted.sample_count,
        seed=seed,
        dilation=lifted.dilation,
        threshold=lifted.threshold,
        margin_derivation=lifted.margin_derivation,
        checks=checks,
        details={"t1_margin": m_slice, "box_radius": box_radius,
                 "lift_degree": k},
    )
