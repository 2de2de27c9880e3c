"""Coefficient-vector polynomials via the semi-tensor product.

A polynomial of degree <= k in n variables can be written

    f(x) = f_0 + f_1 x + f_2 x^2 + ... + f_k x^k

where x^m is the m-fold semi-tensor power of the column vector x (length
n^m) and each f_m is a row vector.  The flat position of a coefficient is
the base-n expansion of the factor sequence, e.g. for n = 2, m = 6 the
monomial x1^3 x2^3 can sit at index 0b000111 = 7 (digits read left to
right pick the variable of each factor).  The encoding is redundant for
m >= 2: permuting digits with the same content addresses the same
monomial, so coefficient vectors are one representative, not unique.

Layers are stored sparsely as {degree: {index: coeff}}; homogenization
pads each layer with powers of an auxiliary last variable.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .homog_core import GeneralizedPolynomial


def stp(u, v) -> np.ndarray:
    """Semi-tensor product of two column vectors.

    For u of length m and v of length q the result is the length m*q
    stacking (u_1 v^T, u_2 v^T, ..., u_m v^T)^T, i.e. the Kronecker
    product; only the column-vector case is needed here.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    return np.kron(u, v)


def stp_power(x, m: int) -> np.ndarray:
    """m-fold semi-tensor power x^m of a column vector, x^0 = (1)."""
    if m < 0:
        raise ValueError("power must be nonnegative")
    x = np.asarray(x, dtype=float).reshape(-1)
    out = np.array([1.0])
    for _ in range(m):
        out = stp(out, x)
    return out


def index_to_multidegree(index: int, n: int, m: int) -> tuple[int, ...]:
    """Count of each variable in the length-m base-n digit string of index."""
    if not 0 <= index < n ** m:
        raise ValueError(f"index {index} out of range for n={n}, degree {m}")
    counts = [0] * n
    for _ in range(m):
        counts[index % n] += 1
        index //= n
    return tuple(counts)


def multidegree_to_index(multi: tuple[int, ...], n: int) -> int:
    """Canonical flat index for a monomial: sorted digits, lowest value."""
    digits = []
    for var, count in enumerate(multi):
        digits.extend([var] * count)
    idx = 0
    for dig in digits:
        idx = idx * n + dig
    return idx


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
        """Parse the flat {"<degree>:<index>": coeff} key form."""
        layers: dict[int, dict[int, float]] = {}
        for key, coeff in coeffs.items():
            deg_s, _, idx_s = key.partition(":")
            if not idx_s:
                raise ValueError(f"key {key!r} is not of the form 'degree:index'")
            layer = layers.setdefault(int(deg_s), {})
            idx = int(idx_s)
            layer[idx] = layer.get(idx, 0.0) + float(coeff)
        return cls(n, layers)

    def to_json(self) -> dict[str, float]:
        out = {}
        for m in sorted(self.layers):
            for idx in sorted(self.layers[m]):
                out[f"{m}:{idx}"] = self.layers[m][idx]
        return out

    @property
    def degree(self) -> int:
        return max(self.layers, default=0)

    @property
    def is_homogeneous(self) -> bool:
        return len(self.layers) <= 1

    def evaluate(self, X) -> np.ndarray:
        """Evaluate by accumulating monomial products (vectorized over rows)."""
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.n:
            raise ValueError(f"points have {X.shape[1]} coordinates, expected {self.n}")
        out = np.zeros(X.shape[0])
        for m, coeffs in self.layers.items():
            for idx, c in coeffs.items():
                multi = index_to_multidegree(idx, self.n, m)
                t = np.full(X.shape[0], c)
                for var, count in enumerate(multi):
                    if count:
                        t = t * X[:, var] ** count
                out += t
        return out[0] if single else out

    def evaluate_stp(self, x) -> float:
        """Evaluate one point literally as sum_m f_m x^m (dense path).

        Exponential in the degree, so only sensible for small problems; it
        exists as an independent check that the sparse path agrees with the
        defining semi-tensor form.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        total = 0.0
        for m, coeffs in self.layers.items():
            xs = stp_power(x, m)
            vec = np.zeros(self.n ** m)
            for idx, c in coeffs.items():
                vec[idx] += c
            total += float(vec @ xs)
        return total

    def to_generalized(self) -> GeneralizedPolynomial:
        entries = []
        for m, coeffs in self.layers.items():
            for idx, c in coeffs.items():
                multi = index_to_multidegree(idx, self.n, m)
                entries.append((c, tuple(Fraction(q) for q in multi)))
        if not entries:
            return GeneralizedPolynomial.zero(self.n)
        return GeneralizedPolynomial.from_terms(self.n, entries)

    def top_layer(self, k: int | None = None) -> "CoeffVecPolynomial":
        """The homogeneous layer of degree k (default: the leading layer)."""
        if k is None:
            k = self.degree
        return CoeffVecPolynomial(self.n, {k: dict(self.layers.get(k, {}))})

    def homogenize(self, k: int | None = None) -> "CoeffVecPolynomial":
        """Lift to a single degree-k layer in n + 1 variables.

        Each degree-j layer is multiplied by t^(k-j) with t the new last
        variable; restricting t = 1 recovers the original polynomial.
        """
        dmax = self.degree
        if k is None:
            k = dmax
        if k < dmax:
            raise ValueError(f"target degree {k} is below the degree {dmax}")
        m = self.n + 1
        out: dict[int, float] = {}
        for j, coeffs in self.layers.items():
            pad = k - j
            for idx, c in coeffs.items():
                multi = index_to_multidegree(idx, self.n, j) + (pad,)
                new_idx = multidegree_to_index(multi, m)
                out[new_idx] = out.get(new_idx, 0.0) + c
        return CoeffVecPolynomial(m, {k: out})

    def __repr__(self):
        parts = [f"deg {m}: {len(self.layers[m])} coeffs" for m in sorted(self.layers)]
        return f"CoeffVecPolynomial(n={self.n}, {'; '.join(parts) or '0'})"


def to_generalized(p: CoeffVecPolynomial) -> GeneralizedPolynomial:
    return p.to_generalized()


def to_coeff_vec(p) -> CoeffVecPolynomial:
    """Coefficient-vector form of an integer-power polynomial."""
    if isinstance(p, CoeffVecPolynomial):
        return p
    return _generalized_to_layers(p)


def _generalized_to_layers(p: GeneralizedPolynomial) -> CoeffVecPolynomial:
    """Re-encode an integer-power polynomial with natural signs as layers."""
    layers: dict[int, dict[int, float]] = {}
    for (powers, signed), coeff in p.terms.items():
        multi = []
        for q, s in zip(powers, signed):
            if q.denominator != 1:
                raise ValueError("homogenization needs integer powers")
            natural = q > 0 and q.numerator % 2 == 1
            if s != natural:
                raise ValueError("homogenization needs plain monomials, not |x| factors")
            multi.append(q.numerator)
        m = sum(multi)
        idx = multidegree_to_index(tuple(multi), p.n)
        layer = layers.setdefault(m, {})
        layer[idx] = layer.get(idx, 0.0) + coeff
    return CoeffVecPolynomial(p.n, layers)


def homogenize(p, k: int | None = None) -> GeneralizedPolynomial:
    """Homogenize to degree k with one auxiliary variable appended.

    Accepts a CoeffVecPolynomial or an integer-power GeneralizedPolynomial.
    The result is homogeneous of degree k under the trivial dilation on
    n + 1 variables and restricts back to p at t = 1.
    """
    if isinstance(p, GeneralizedPolynomial):
        p = _generalized_to_layers(p)
    return p.homogenize(k).to_generalized()
