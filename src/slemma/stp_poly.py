"""The coefficient-vector file format and integer-power homogenization.

A polynomial of degree <= k in n variables can be written

    f(x) = f_0 + f_1 x + f_2 x^2 + ... + f_k x^k

where x^m is the m-fold semi-tensor power of the column vector x (length
n^m) and each f_m is a row vector.  The flat position of a coefficient is
the base-n expansion of the factor sequence, e.g. for n = 2, m = 6 the
monomial x1^3 x2^3 can sit at index 0b000111 = 7 (digits read left to
right pick the variable of each factor).  The encoding is redundant for
m >= 2: permuting digits with the same content addresses the same
monomial, so coefficient vectors are one representative, not unique.

Problem files may give a function in this form, as {"degree:index":
coeff}; it is parsed into the term form (`GeneralizedPolynomial`), which
is the only polynomial type the rest of the package works with.
`homogenize` pads each term of an integer-power polynomial with a power
of an auxiliary last variable.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .homog_core import GeneralizedPolynomial, UsageError


def index_to_multidegree(index: int, n: int, m: int) -> tuple[int, ...]:
    """Count of each variable in the length-m base-n digit string of index."""
    if not 0 <= index < n ** m:
        raise ValueError(f"index {index} out of range for n={n}, degree {m}")
    counts = [0] * n
    for _ in range(m):
        counts[index % n] += 1
        index //= n
    return tuple(counts)


class CoeffVecPolynomial:
    """Polynomial stored as sparse coefficient vectors, one per degree."""

    def __init__(self, n: int, layers: dict[int, dict[int, float]]):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = int(n)
        self.layers: dict[int, dict[int, float]] = {}
        for m, coeffs in layers.items():
            m = int(m)
            if m < 0:
                raise ValueError("degrees must be nonnegative")
            clean: dict[int, float] = {}
            for idx, c in coeffs.items():
                idx, c = int(idx), float(c)
                if not 0 <= idx < self.n ** m:
                    raise ValueError(f"index {idx} out of range for degree {m}")
                if c != 0.0:
                    clean[idx] = clean.get(idx, 0.0) + c
            if not all(math.isfinite(c) for c in clean.values()):
                raise ValueError("coefficients must be finite")
            if clean:
                self.layers[m] = clean

    @classmethod
    def from_json(cls, n: int, coeffs: dict) -> "CoeffVecPolynomial":
        """Parse the flat {"<degree>:<index>": coeff} key form: each key is
        two runs of ASCII digits, and each coeff a number (not a bool)."""
        layers: dict[int, dict[int, float]] = {}
        for key, coeff in coeffs.items():
            if not re.fullmatch(r"[0-9]+:[0-9]+", key):
                raise ValueError(f"key {key!r} is not of the form 'degree:index'")
            if not isinstance(coeff, (int, float)) or isinstance(coeff, bool):
                raise ValueError(f"coefficient of {key!r} must be a number")
            deg_s, _, idx_s = key.partition(":")
            layer = layers.setdefault(int(deg_s), {})
            idx = int(idx_s)
            layer[idx] = layer.get(idx, 0.0) + float(coeff)
        return cls(n, layers)

    def to_generalized(self) -> GeneralizedPolynomial:
        entries = []
        for m, coeffs in self.layers.items():
            for idx, c in coeffs.items():
                multi = index_to_multidegree(idx, self.n, m)
                entries.append((c, tuple(Fraction(q) for q in multi)))
        return GeneralizedPolynomial.from_terms(self.n, entries)


def homogenize(p: GeneralizedPolynomial, k: int) -> GeneralizedPolynomial:
    """Homogenize to degree k with one auxiliary variable t appended.

    Each term of degree j is multiplied by t^(k - j).  The result is
    homogeneous of degree k under the trivial dilation on n + 1 variables
    and restricts back to p at t = 1.  Needs integer powers and plain
    monomials (no |x| factors), and k at least the degree of p.
    """
    terms = {}
    for (powers, signed), coeff in p.terms.items():
        if any(q.denominator != 1 for q in powers):
            raise UsageError("homogenization needs integer powers")
        if signed != tuple(q.numerator % 2 == 1 for q in powers):
            raise UsageError("homogenization needs plain monomials, not |x| factors")
        pad = k - sum(powers, Fraction(0))
        terms[(powers + (pad,), signed + (pad % 2 == 1,))] = coeff
    degree = p.total_degree()
    if degree is not None and degree > k:
        raise ValueError(f"target degree {k} is below the degree {degree}")
    return GeneralizedPolynomial(p.n + 1, terms)
