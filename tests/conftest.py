"""Shared fixtures: the recurring polynomial pairs and switched systems.

The sextic pair is the derivative pair of the two-subsystem cubic switched
system; the quartic/sextic sector gallery spans sector angles from pi to a
full plane; the cubic pair shares a zero along the diagonal.  All of them
are exercised repeatedly across the test modules, so they live here.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from slemma import Dilation, GeneralizedPolynomial, SwitchedSystem

GP = GeneralizedPolynomial


def quad_form(Q):
    """Quadratic form x^T Q x as a polynomial (Q symmetric)."""
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    terms = []
    for i in range(n):
        for j in range(i, n):
            c = Q[i, i] if i == j else Q[i, j] + Q[j, i]
            powers = [0] * n
            powers[i] += 1
            powers[j] += 1
            terms.append((c, tuple(powers)))
    return GP.from_terms(n, terms)


def random_symmetric(rng, n):
    A = rng.normal(size=(n, n))
    return (A + A.T) / 2.0


# angles t of the pencil cos t*A + sin t*B, 3.2e-4 rad apart
PENCIL_T = np.linspace(-np.pi, np.pi, 20000, endpoint=False)


def pencil_min_eigenvalues(A, B):
    """lambda_min(cos t*A + sin t*B) at each t of PENCIL_T."""
    c, s = np.cos(PENCIL_T)[:, None, None], np.sin(PENCIL_T)[:, None, None]
    return np.linalg.eigvalsh(c * A + s * B)[:, 0]


def quadratic_image(A, B):
    """(phi, margin, center) of the joint image of x^T A x and x^T B x on
    R^n, n >= 3, exact up to the grid of PENCIL_T.

    The image is convex (Dines 1941).  It is the whole plane exactly when
    margin = max_t lambda_min(cos t*A + sin t*B) < 0.  Otherwise the set T
    of t where the pencil is positive semidefinite is an arc, the image is
    the sector of angle phi = pi - |T| dual to it, and both are centered
    at the angle `center` (None for the whole plane)."""
    lam = pencil_min_eigenvalues(A, B)
    margin = float(lam.max())
    if margin < 0:
        return 2 * np.pi, margin, None
    t = PENCIL_T[lam >= 0]
    center = float(np.arctan2(np.sin(t).sum(), np.cos(t).sum()))
    return np.pi - 2 * np.pi * len(t) / len(PENCIL_T), margin, center


def quadratic_pairs(seed, per_n=6):
    """Pairs (A, B) of symmetric matrices for n = 3 and 4, every other one
    planted with A = B + 3I (so that A - B is positive definite), keeping
    those whose `quadratic_image` margin is more than 0.01 from 0."""
    rng = np.random.default_rng(seed)
    pairs = []
    for n in (3, 4):
        for k in range(per_n):
            A, B = random_symmetric(rng, n), random_symmetric(rng, n)
            if k % 2:
                A = B + 3.0 * np.eye(n)
            if abs(quadratic_image(A, B)[1]) > 0.01:
                pairs.append((A, B))
    return pairs


# Coefficients clear of the 1e-15 relative cutoff that drops negligible terms.
COEFFS = st.builds(lambda m, s: m * s, st.floats(0.1, 10.0), st.sampled_from([-1.0, 1.0]))


def coordinates(hi):
    """Zero or at least 0.01 in magnitude, so that no power underflows."""
    return st.one_of(st.just(0.0), st.floats(0.01, hi), st.floats(-hi, -0.01))


@pytest.fixture(scope="session")
def d2():
    return Dilation.standard(2)


@pytest.fixture(scope="session")
def sextic_pair():
    """(-Vdot|S1, Vdot|S2) for the cubic two-subsystem benchmark."""
    f = GP.from_terms(2, [(-7, (6, 0)), (-2, (3, 3)), (5, (0, 6)), (-2, (4, 2))])
    g = GP.from_terms(2, [(-5, (6, 0)), (-1, (3, 3)), (1, (0, 6)), (-1, (4, 2))])
    return f, g


@pytest.fixture(scope="session")
def cubic_pair():
    """Odd cubic pair with a shared zero along the (1, 1) diagonal."""
    f = GP.from_terms(2, [(-1, (3, 0)), (1, (0, 3))])
    g = GP.from_terms(2, [(1, (0, 3)), (-0.5, (3, 0)), (-0.5, (1, 2))])
    return f, g


@pytest.fixture(scope="session")
def sector_gallery():
    """Four same-degree pairs with sector angles pi, ~1.1pi, ~1.56pi, 2pi."""
    p1 = (GP.from_terms(2, [(1, (4, 0)), (-1, (0, 4)), (-1, (2, 2))]),
          GP.from_terms(2, [(-1, (4, 0)), (1, (0, 4))]))
    p2 = (GP.from_terms(2, [(-1, (4, 0)), (1, (0, 4)), (-1, (1, 3))]),
          GP.from_terms(2, [(1, (4, 0)), (-1, (0, 4)), (1, (3, 1))]))
    p3 = (GP.from_terms(2, [(1, (6, 0)), (-1, (0, 6)), (20, (5, 1)), (-20, (3, 3))]),
          GP.from_terms(2, [(-1, (6, 0)), (1, (0, 6)), (-10, (1, 5))]))
    p4 = (GP.from_terms(2, [(1, (6, 0)), (-1, (0, 6))]),
          GP.from_terms(2, [(-1, (6, 0)), (1, (0, 6)), (-1, (3, 3))]))
    return p1, p2, p3, p4


@pytest.fixture(scope="session")
def wide_copositive_pair():
    """Strictly copositive quartic pair whose sector is wider than pi.

    Built from circle harmonics f + i*g = c0 + c2 e^{2it} + c4 e^{4it};
    the direction set spans about 1.017*pi, so a positive multiplier
    cannot exist even though f > 0 on all of {g >= 0}.
    """
    f = GP.from_terms(2, [(1.07, (4, 0)), (3.40, (3, 1)), (-0.18, (2, 2)),
                          (-0.04, (1, 3)), (0.19, (0, 4))])
    g = GP.from_terms(2, [(-1.81, (4, 0)), (1.60, (3, 1)), (1.50, (2, 2)),
                          (0.16, (1, 3)), (-0.13, (0, 4))])
    return f, g


@pytest.fixture(scope="session")
def sextic_system():
    """Two cubic planar subsystems, individually unstable."""
    s1 = (GP.from_terms(2, [(7, (3, 0)), (-3, (0, 3)), (2, (1, 2))]),
          GP.from_terms(2, [(5, (3, 0)), (-5, (0, 3))]))
    s2 = (GP.from_terms(2, [(-5, (3, 0)), (-1, (1, 2))]),
          GP.from_terms(2, [(-1, (3, 0)), (1, (0, 3))]))
    return SwitchedSystem((s1, s2))


@pytest.fixture(scope="session")
def sextic_V():
    return GP.from_terms(2, [(0.25, (4, 0)), (0.25, (0, 4))])


@pytest.fixture(scope="session")
def frac_dilation():
    return Dilation((3, 1))


@pytest.fixture(scope="session")
def frac_system():
    """Planar pair with fractional signed powers, weights (3, 1)."""
    s1 = (GP.from_terms(2, [(-4, (1, 0))]),
          GP.from_terms(2, [(4, ((2, 3), 1)), (4, (0, 3))]))
    s2 = (GP.from_terms(2, [(2, (1, 0)), (1, ((1, 3), 2))]),
          GP.from_terms(2, [(-8, (0, 3))]))
    return SwitchedSystem((s1, s2))


@pytest.fixture(scope="session")
def frac_V():
    return GP.from_terms(2, [(3, ((4, 3), 0)), (1, (0, 2))])


@pytest.fixture(scope="session")
def linear3_matrices():
    r3 = np.sqrt(3.0)
    A1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    A2 = np.array([[-r3, -1.0], [-1.0, r3]])
    A3 = np.array([[-r3, 1.0], [1.0, r3]])
    return [A1, A2, A3]


@pytest.fixture(scope="session")
def linear3_system(linear3_matrices):
    def field(A):
        return tuple(
            GP.from_terms(2, [(A[i, 0], (1, 0)), (A[i, 1], (0, 1))])
            for i in range(2)
        )

    return SwitchedSystem(tuple(field(A) for A in linear3_matrices))


@pytest.fixture(scope="session")
def norm_V():
    return GP.from_terms(2, [(0.5, (2, 0)), (0.5, (0, 2))])


@pytest.fixture(scope="session")
def problems_dir():
    from pathlib import Path

    return Path(__file__).resolve().parent.parent / "problems"
