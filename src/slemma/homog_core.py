"""Signed-power polynomials, weighted dilations, and generalized spheres.

The basic object is a finite sum of terms

    c * prod_i |x_i|^(p_i) * sgn(x_i)^(s_i)

with rational exponents p_i >= 0 and boolean sign flags s_i.  Ordinary
monomials embed through x^(a/b) = |x|^(a/b) * sgn(x)^(a mod 2) for odd b,
so every term is continuous on all of R^n and parity and weighted
homogeneity become exact, term-by-term questions instead of numerical
ones.  A sign flag is only allowed on a variable with a positive
exponent; that keeps bare sgn(x) factors (discontinuous at 0) out of the
representation.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# Fixed default so every report and certificate is reproducible run to run.
DEFAULT_SEED = 170453

TWO_PI = 2.0 * math.pi

# Rows per block of `GeneralizedPolynomial.evaluate`: a multiple of every
# SIMD width, and small enough that one block's arrays stay in cache.
EVALUATE_BLOCK = 4096


@contextmanager
def overflow_guard(stage: str):
    """Turn NumPy overflow and invalid results into a FloatingPointError
    that names `stage`, instead of a warning and an inf or nan that a
    later comparison would read as a verdict."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as e:
        raise FloatingPointError(f"{stage}: {e}") from None


class UsageError(ValueError):
    """A flag value or a problem that the command cannot take: the CLI
    exits 2 on it, and 3 on any other ValueError, which is a bug."""


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    NEITHER = "neither"


def _as_fraction(p) -> Fraction:
    """Coerce an exponent spec (int, Fraction, (num, den) pair) to Fraction."""
    if isinstance(p, Fraction):
        frac = p
    elif isinstance(p, int):
        frac = Fraction(p)
    elif isinstance(p, tuple) and len(p) == 2:
        frac = Fraction(int(p[0]), int(p[1]))
    elif isinstance(p, float) and p.is_integer():
        frac = Fraction(int(p))
    else:
        raise TypeError(f"exponent must be int, Fraction, or (num, den) pair, got {p!r}")
    if frac < 0:
        raise ValueError(f"exponents must be nonnegative, got {frac}")
    return frac


@dataclass(frozen=True)
class Dilation:
    """Anisotropic scaling x -> (eps^r1 x_1, ..., eps^rn x_n), weights r_i >= 1.

    The matching generalized sphere is {x : sum_i |x_i|^(l/r_i) = 1} with
    l > 0 (default 2, which makes the standard weights give the Euclidean
    circle for n = 2).
    """

    weights: tuple[float, ...]
    l: float = 2.0

    def __post_init__(self):
        ws = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "l", float(self.l))
        if not ws:
            raise ValueError("a dilation needs at least one weight")
        if any(not math.isfinite(w) or w < 1.0 for w in ws):
            raise ValueError(f"dilation weights must be finite and >= 1, got {ws}")
        if not (math.isfinite(self.l) and self.l > 0):
            raise ValueError(f"sphere exponent l must be positive, got {self.l}")

    @classmethod
    def standard(cls, n: int) -> "Dilation":
        return cls((1.0,) * n)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def is_standard(self) -> bool:
        return all(w == 1.0 for w in self.weights)

    def scale(self, eps, x):
        """Apply the dilation: component i is scaled by eps^(r_i).

        A component of weight 1 is scaled by eps itself, which is what
        eps ** 1.0 gives for any pow within 1 ULP."""
        x = np.asarray(x, dtype=float)
        eps = np.asarray(eps, dtype=float)[..., None]
        heavy = [i for i, r in enumerate(self.weights) if r != 1.0]
        if not heavy:
            return eps * x
        factor = np.repeat(eps, self.n, axis=-1)
        factor[..., heavy] = eps ** np.array(self.weights)[heavy]
        return factor * x

    def radius(self, x) -> np.ndarray:
        """sum_i |x_i|^(l/r_i), the quantity that equals 1 on the sphere."""
        x = np.asarray(x, dtype=float)
        r = np.array(self.weights)
        return np.sum(np.abs(x) ** (self.l / r), axis=-1)

    def project(self, x) -> np.ndarray:
        """Radial projection along dilation orbits onto the sphere."""
        x = np.asarray(x, dtype=float)
        rad = self.radius(x)
        if np.any(rad <= 0):
            raise ValueError("cannot project a zero vector onto the sphere")
        eps = rad ** (-1.0 / self.l)
        return self.scale(eps, x)

    def to_dict(self) -> dict:
        return {"weights": list(self.weights), "l": self.l}


# A term is keyed by its exponent tuple and sign-flag tuple; the value is
# the coefficient.  Keys are canonical, so equal-key terms always merge.
TermKey = tuple[tuple[Fraction, ...], tuple[bool, ...]]


class GeneralizedPolynomial:
    """Sparse sum of signed-power terms c * prod |x_i|^p_i * sgn(x_i)^s_i."""

    __slots__ = ("n", "terms", "_compiled", "_frees")

    def __init__(self, n: int, terms: dict[TermKey, float] | None = None):
        if n < 1:
            raise ValueError("need at least one variable")
        self.n = int(n)
        merged: dict[TermKey, float] = {}
        for key, coeff in (terms or {}).items():
            powers, signed = key
            if len(powers) != self.n or len(signed) != self.n:
                raise ValueError(f"term arity {len(powers)} does not match n={self.n}")
            for p, s in zip(powers, signed):
                if s and p == 0:
                    raise ValueError("sign flag requires a positive exponent")
            merged[key] = merged.get(key, 0.0) + float(coeff)
        if not all(math.isfinite(c) for c in merged.values()):
            raise ValueError("coefficients must be finite")
        cmax = max((abs(c) for c in merged.values()), default=0.0)
        cutoff = 1e-15 * max(1.0, cmax)
        self.terms = {k: c for k, c in merged.items() if abs(c) > cutoff}
        self._compiled = None
        self._frees = None

    # ---------------------------------------------------------------- build

    @classmethod
    def from_terms(cls, n: int, terms: Iterable) -> "GeneralizedPolynomial":
        """Build from (coeff, powers) or (coeff, powers, signed) entries.

        Each power may be an int, a Fraction, or a (num, den) pair with odd
        den.  When `signed` is omitted the usual monomial convention applies:
        the sign flag is num mod 2, i.e. x^(a/b) means |x|^(a/b) sgn(x)^(a mod 2).
        """
        data: dict[TermKey, float] = {}
        for entry in terms:
            if len(entry) == 2:
                coeff, powers = entry
                signed = None
            else:
                coeff, powers, signed = entry
            fr = tuple(_as_fraction(p) for p in powers)
            if len(fr) != n:
                raise ValueError(f"expected {n} exponents, got {len(fr)}")
            if signed is None:
                sg = tuple(p > 0 and p.numerator % 2 == 1 for p in fr)
            else:
                sg = tuple(bool(s) for s in signed)
            key = (fr, sg)
            data[key] = data.get(key, 0.0) + float(coeff)
        return cls(n, data)

    @classmethod
    def zero(cls, n: int) -> "GeneralizedPolynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, value: float) -> "GeneralizedPolynomial":
        key = ((Fraction(0),) * n, (False,) * n)
        return cls(n, {key: float(value)})

    @classmethod
    def from_json_terms(cls, n: int, data: Sequence[dict]) -> "GeneralizedPolynomial":
        """Parse the list-of-terms JSON form.

        Each term is {"coeff": number, "powers": [{"num": int, "den": odd int}, ...]}
        with an optional "abs": [bool, ...] forcing |x_i| factors (no sign flag).
        """
        entries = []
        for i, term in enumerate(data):
            if not isinstance(term, dict) or "coeff" not in term or "powers" not in term:
                raise ValueError(f"term {i}: expected keys 'coeff' and 'powers'")
            powers = term["powers"]
            if len(powers) != n:
                raise ValueError(f"term {i}: expected {n} powers, got {len(powers)}")
            fr = []
            for j, p in enumerate(powers):
                num, den = int(p["num"]), int(p.get("den", 1))
                if den <= 0 or den % 2 == 0:
                    raise ValueError(f"term {i}, variable {j}: denominator must be odd and positive")
                if num < 0:
                    raise ValueError(f"term {i}, variable {j}: exponents must be nonnegative")
                fr.append(Fraction(num, den))
            absflags = term.get("abs")
            signed = []
            for j, p in enumerate(fr):
                s = p > 0 and p.numerator % 2 == 1
                if absflags is not None and absflags[j]:
                    s = False
                signed.append(s)
            entries.append((float(term["coeff"]), tuple(fr), tuple(signed)))
        return cls.from_terms(n, entries)

    def to_json_terms(self) -> list[dict]:
        out = []
        for (powers, signed), coeff in sorted(self.terms.items()):
            term = {
                "coeff": coeff,
                "powers": [{"num": p.numerator, "den": p.denominator} for p in powers],
            }
            natural = tuple(p > 0 and p.numerator % 2 == 1 for p in powers)
            if natural != signed:
                term["abs"] = [not s for s in signed]
            out.append(term)
        return out

    # ------------------------------------------------------------- evaluate

    def _compile(self):
        if self._compiled is None:
            compiled = []
            for (powers, signed), coeff in self.terms.items():
                items = [
                    (i, float(p), signed[i])
                    for i, p in enumerate(powers)
                    if p > 0
                ]
                compiled.append((coeff, items))
            self._compiled = compiled
        return self._compiled

    def _plan_frees(self):
        """For each compiled term, the keys (i, p) of the powers |x_i| ** p
        and i of the signs sgn(x_i) that no later term uses."""
        if self._frees is None:
            later, last = set(), []
            for _, items in reversed(self._compile()):
                keys = {(i, p) for i, p, _ in items} | {i for i, _, signed in items if signed}
                last.append(keys - later)
                later |= keys
            self._frees = last[::-1]
        return self._frees

    def __call__(self, x) -> float:
        """Evaluate at a single point (fast scalar path).

        On Python floats each power is float `**`, which calls the C
        library's `pow` as a NumPy scalar does, but raises OverflowError
        where NumPy returns inf; such a point is evaluated again as NumPy
        scalars, so both give the same value.  That value is inf or nan,
        and the caller decides what it means, so NumPy does not warn; it
        is returned as a Python float (exactly), so the caller's own
        arithmetic on it does not warn either.

        `expression` writes these operations out as straight-line code,
        which `simulate_min_switching` fuses into its RK4 steps and
        direction refinement evaluates at its midpoints; where that code
        overflows or is not finite, both evaluate here again.
        """
        total = 0.0
        try:
            for coeff, items in self._compiled or self._compile():
                v = coeff
                for i, p, signed in items:
                    xi = x[i]
                    a = abs(xi) ** p
                    if signed and xi < 0:
                        a = -a
                    v *= a
                    if v == 0.0:
                        break
                total += v
        except OverflowError:
            with np.errstate(over="ignore", invalid="ignore"):
                return float(self(np.asarray(x, dtype=float)))
        return total

    def evaluate(self, X) -> np.ndarray:
        """Vectorized evaluation on an (m, n) array of points.

        The rows are taken in blocks of `EVALUATE_BLOCK`, so that each
        block's arrays stay in cache and its allocations are reused.  In
        a block, each term is a column of its coefficient multiplied in
        place by its factors in `_compile` order, |x_i| ** p and then
        sgn(x_i) on a signed factor, and the terms are summed into zeros
        in `terms` order.  Each distinct |x_i| ** p and sgn(x_i) is
        computed once per block, at its first use, and reused by later
        terms: every operation left out repeats an earlier one exactly.
        Every row's value is thus that of evaluating each factor afresh
        on the whole array (a block is a multiple of every SIMD width).

        An input of more than one block is evaluated with overflow
        ignored; where a value is then not finite, all rows are evaluated
        again in one block under the caller's `np.errstate`, so that the
        first operation to overflow raises, or warns, as in one pass.
        """
        X = np.asarray(X, dtype=float)
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.n:
            raise ValueError(f"points have {X.shape[1]} coordinates, expected {self.n}")
        out = np.zeros(X.shape[0])
        if len(X) > EVALUATE_BLOCK:
            with np.errstate(over="ignore", invalid="ignore"):
                for s in range(0, len(X), EVALUATE_BLOCK):
                    self._accumulate(X[s:s + EVALUATE_BLOCK], out[s:s + EVALUATE_BLOCK])
            if np.isfinite(out).all():
                return out
            out[:] = 0.0
        self._accumulate(X, out)
        return out[0] if single else out

    def _accumulate(self, X, out) -> None:
        """out += the value of each term at the rows of X, in `terms` order.

        A power or sign leaves the table after the last term that uses it,
        so that later arrays can take its memory."""
        table = {}
        t = np.empty(len(X))
        for (coeff, items), last in zip(self._compile(), self._plan_frees()):
            t.fill(coeff)
            for i, p, signed in items:
                a = table.get((i, p))
                if a is None:
                    a = table[i, p] = np.abs(X[:, i]) ** p
                t *= a
                if signed:
                    sg = table.get(i)
                    if sg is None:
                        sg = table[i] = np.sign(X[:, i])
                    t *= sg
            out += t
            for key in last:
                del table[key]

    def expression(self, names: Sequence[str]) -> str:
        """Python source of `__call__`'s arithmetic with variable i named
        names[i].

        The terms are summed in `terms` order as ((0.0 + t1) + t2) ...,
        each term is ((c * a1) * a2) ... over `_compile`'s factors, and a
        factor is abs(xi) ** p, negated when xi < 0 on a signed factor.
        Beside the names, only `repr` of finite floats enters the text.
        It differs from `__call__` only in not stopping a term at zero:
        where every factor is finite that changes at most the sign of a
        zero term, which the sum from 0.0 absorbs; otherwise the result
        is not finite or the code raises OverflowError.
        """
        if len(names) != self.n or not all(v.isidentifier() for v in names):
            raise ValueError(f"need {self.n} identifiers, got {names!r}")
        total = "0.0"
        for coeff, items in self._compile():
            term = repr(coeff)
            for i, p, signed in items:
                xi = names[i]
                a = f"abs({xi}) ** {p!r}"
                if signed:
                    a = f"(-({a}) if {xi} < 0.0 else {a})"
                term += f" * {a}"
            total += f" + {term}"
        return total

    # ------------------------------------------------------------ structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def parity(self) -> Parity:
        """EVEN / ODD / NEITHER under x -> -x.

        A term flips sign under negation exactly when its number of sign
        flags is odd, so the classification is exact on the canonical form.
        The zero polynomial reports EVEN.
        """
        if not self.terms:
            return Parity.EVEN
        kinds = {sum(signed) % 2 for (_, signed) in self.terms}
        if kinds == {0}:
            return Parity.EVEN
        if kinds == {1}:
            return Parity.ODD
        return Parity.NEITHER

    def total_degree(self) -> Fraction | None:
        """Largest sum of exponents over terms, None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(powers, Fraction(0)) for (powers, _) in self.terms)

    def has_integer_powers(self) -> bool:
        return all(p.denominator == 1 for (powers, _) in self.terms for p in powers)

    def top_form(self, k=None) -> "GeneralizedPolynomial":
        """The part of (total) degree exactly k; defaults to the leading part."""
        if k is None:
            k = self.total_degree()
            if k is None:
                return GeneralizedPolynomial.zero(self.n)
        k = _as_fraction(k)
        terms = {
            key: c for key, c in self.terms.items()
            if sum(key[0], Fraction(0)) == k
        }
        return GeneralizedPolynomial(self.n, terms)

    def homogeneity_degree(self, d: Dilation) -> float | None:
        """Weighted degree k with f(eps^r o x) = eps^k f(x), or None.

        Every term of a homogeneous function must satisfy sum_i r_i p_i = k;
        the check is exact up to float rounding of the weighted sums.
        Raises ValueError for the zero polynomial (every k fits).
        """
        if d.n != self.n:
            raise ValueError("dilation arity does not match polynomial")
        if not self.terms:
            raise UsageError("the zero polynomial has no well-defined degree")
        degs = [
            sum(w * float(p) for w, p in zip(d.weights, powers))
            for (powers, _) in self.terms
        ]
        k = degs[0]
        if max(degs) - min(degs) <= 1e-12 * max(1.0, abs(k)):
            return k
        return None

    # ------------------------------------------------------------- calculus

    def partial(self, i: int) -> "GeneralizedPolynomial":
        """Partial derivative with respect to x_i.

        |x|^p differentiates to p |x|^(p-1) sgn(x) and |x|^p sgn(x) to
        p |x|^(p-1), both valid for p >= 1.  Exponents in (0, 1), and the
        unsigned p = 1 case (bare |x|), are not continuously differentiable
        at the origin and raise.
        """
        if not 0 <= i < self.n:
            raise IndexError(i)
        out: dict[TermKey, float] = {}
        for (powers, signed), coeff in self.terms.items():
            p = powers[i]
            if p == 0:
                continue
            if p < 1:
                raise UsageError(
                    f"term with exponent {p} on variable {i} is not C^1 at 0"
                )
            s = signed[i]
            if not s and p == 1:
                raise UsageError(
                    f"|x_{i}| term is not differentiable at 0; use a signed power"
                )
            new_p = p - 1
            new_s = (not s) and new_p > 0
            key = (
                powers[:i] + (new_p,) + powers[i + 1:],
                signed[:i] + (new_s,) + signed[i + 1:],
            )
            out[key] = out.get(key, 0.0) + coeff * float(p)
        return GeneralizedPolynomial(self.n, out)

    def gradient(self) -> tuple["GeneralizedPolynomial", ...]:
        return tuple(self.partial(i) for i in range(self.n))

    # ------------------------------------------------------------ arithmetic

    def _binary(self, other, sign: float) -> "GeneralizedPolynomial":
        if not isinstance(other, GeneralizedPolynomial):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("variable counts differ")
        data = dict(self.terms)
        for key, c in other.terms.items():
            data[key] = data.get(key, 0.0) + sign * c
        return GeneralizedPolynomial(self.n, data)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return self * -1.0

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return GeneralizedPolynomial(
                self.n, {k: c * float(other) for k, c in self.terms.items()}
            )
        if not isinstance(other, GeneralizedPolynomial):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("variable counts differ")
        # |x|^a sgn^s * |x|^b sgn^t = |x|^(a+b) sgn^((s+t) mod 2); the flags
        # never meet a zero exponent because s, t imply a, b > 0.
        out: dict[TermKey, float] = {}
        for (pa, sa), ca in self.terms.items():
            for (pb, sb), cb in other.terms.items():
                powers = tuple(a + b for a, b in zip(pa, pb))
                signed = tuple(a != b for a, b in zip(sa, sb))
                key = (powers, signed)
                out[key] = out.get(key, 0.0) + ca * cb
        return GeneralizedPolynomial(self.n, out)

    __rmul__ = __mul__

    def __repr__(self):
        if not self.terms:
            return f"GeneralizedPolynomial({self.n}, 0)"
        bits = []
        for (powers, signed), coeff in sorted(self.terms.items()):
            factors = [f"{coeff:g}"]
            for i, (p, s) in enumerate(zip(powers, signed)):
                if p == 0:
                    continue
                base = f"|x{i}|^{p}" if not s else f"x{i}^{p}"
                factors.append(base)
            bits.append("*".join(factors))
        return " + ".join(bits)


def _function_source(args, lines) -> str:
    """Source of a function `f` of the names `args` whose body is `lines`."""
    return f"def f({', '.join(args)}):\n" + "".join(f"    {line}\n" for line in lines)


def _compile_function(source: str, slow):
    """The function `source` defines, seeing no builtin but abs; `slow`
    when a polynomial is too long for one expression.  This is the one
    place in the package that turns text into code."""
    try:
        code = compile(source, "<straight-line>", "exec")
    except RecursionError:
        return slow
    namespace = {"__builtins__": {"abs": abs}}
    exec(code, namespace)
    return namespace["f"]


# ------------------------------------------------------------------ spheres


def theta_grid(count: int) -> np.ndarray:
    if count < 1:
        raise ValueError("count must be positive")
    return np.arange(count) * (TWO_PI / count)


def theta_points(theta, d: Dilation) -> np.ndarray:
    """Map circle angles onto the generalized sphere (n = 2 only).

    The raw parametrization (|cos|^r1 sgn cos, |sin|^r2 sgn sin) lands on
    the sphere exactly when l = 2; other l are handled by projecting along
    dilation orbits, which keeps the direction of each point.
    """
    if d.n != 2:
        raise ValueError("theta parametrization needs exactly two variables")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    c, s = np.cos(theta), np.sin(theta)
    r1, r2 = d.weights
    X = np.stack(
        [np.abs(c) ** r1 * np.sign(c), np.abs(s) ** r2 * np.sign(s)], axis=-1
    )
    return d.project(X)


def theta_point_scalar(t: float, d: Dilation) -> tuple[float, float]:
    """Single theta sample without numpy overhead (hot path for refinement)."""
    c, s = math.cos(t), math.sin(t)
    r1, r2 = d.weights
    x1 = abs(c) ** r1 * (1.0 if c > 0 else -1.0 if c < 0 else 0.0)
    x2 = abs(s) ** r2 * (1.0 if s > 0 else -1.0 if s < 0 else 0.0)
    if d.l != 2.0:
        rad = abs(x1) ** (d.l / r1) + abs(x2) ** (d.l / r2)
        eps = rad ** (-1.0 / d.l)
        x1, x2 = eps ** r1 * x1, eps ** r2 * x2
    return x1, x2


def _first_primes(n: int) -> list[int]:
    primes: list[int] = []
    k = 2
    while len(primes) < n:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


def _scrambled_halton(n: int, count: int, seed: int) -> np.ndarray:
    """Owen-scrambled Halton points in [0, 1)^n (arXiv:1706.02808).

    One NumPy generator, seeded once, shuffles a permutation of
    range(b) for every digit position of every base b (the first n
    primes, in order).  Coordinate i is the sum over digit positions j of
    perm_j[digit_j(i)] * b2r_j, added lowest digit first, where b2r_0 =
    1/b and b2r_{j+1} = b2r_j / b.  The sum is built by outer sums over
    b, b^2, ... indices (a partial sum depends only on the low digits),
    then the high digits, zero for every index below count, add their
    constant terms.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((count, n))
    for col, b in enumerate(_first_primes(n)):
        # one permutation per digit k >= 1 with b^-k > 2^-54: the digits
        # that still change a double in [0, 1)
        depth = math.ceil(54 / math.log2(b)) - 1
        perms = np.repeat(np.arange(b)[None], depth, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        s = np.zeros(1)
        b2r = 1.0 / b
        for perm in perms:
            if s.size < count:
                s = (s[None, :] + (perm * b2r)[:, None]).ravel()[:count]
            else:
                s = s + perm[0] * b2r
            b2r /= b
        out[:, col] = s[:count]
    return out


# `_ndtri`'s block size; whether `_libm_log` takes x87 long-double logs
# (a 64-bit significand in 16 bytes); and how near a float64 rounding
# midpoint, in ULPs, a long-double log is taken again with math.log.
NDTRI_BLOCK = 32768
LONG_DOUBLE_LOG = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
MIDPOINT_WINDOW = 1.0 / 32

# Cephes ndtri: the central rational approximation for |y - 1/2| below
# 1/2 - exp(-2) and the tail one for exp(-32) < y <= exp(-2).  Each Q has
# the leading 1 that Cephes' p1evl leaves implicit.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)


def _horner(x: np.ndarray, coef: Sequence[float]) -> np.ndarray:
    """((coef[0] * x + coef[1]) * x + coef[2]) ..., in place in one array."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _libm_log(a: np.ndarray) -> np.ndarray:
    """Elementwise math.log (the C library's log, which np.log may round
    differently) of a 1-d array of positive normal values.

    With x87 long doubles it is np.log in long double rounded to float64,
    and math.log where the 11 significand bits float64 drops lie within
    2048 * MIDPOINT_WINDOW of 1024, a rounding midpoint: glibc's log is
    within about 0.52 ULP, so it can miss the correct rounding only within
    about 0.02 ULP of a midpoint, and logl is far more accurate than that.
    """
    if not LONG_DOUBLE_LOG:
        return np.fromiter(map(math.log, a.tolist()), float, a.size)
    wide = np.log(a.astype(np.longdouble))
    out = wide.astype(float)
    low = (wide.view(np.uint64)[::2] & 0x7FF).astype(np.int64)
    near = np.flatnonzero(np.abs(low - 1024) <= 2048 * MIDPOINT_WINDOW)
    out[near] = [math.log(v) for v in a[near].tolist()]
    return out


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Standard normal quantile for y0 in [1e-12, 1 - 1e-12].

    Cephes' algorithm step for step, so |result| < 8 and the tail needs
    only its first approximation.  The entries are taken in blocks of
    `NDTRI_BLOCK`, each split once into central and tail indices; the
    operations and their order are Cephes', and the tail's logarithms
    are the C library's (`_libm_log`), so every entry has SciPy's bytes.
    """
    flat = np.ravel(y0)
    out = np.empty(flat.size)
    for s in range(0, flat.size, NDTRI_BLOCK):
        y = flat[s:s + NDTRI_BLOCK]
        upper = y > 1.0 - _EXP_M2
        y = np.where(upper, 1.0 - y, y)
        central = y > _EXP_M2
        ci, ti = np.flatnonzero(central), np.flatnonzero(~central)
        yc = y[ci] - 0.5
        y2 = yc * yc
        out[s + ci] = (yc + yc * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))) * _S2PI
        x = np.sqrt(-2.0 * _libm_log(y[ti]))
        z = 1.0 / x
        x = (x - _libm_log(x) / x) - z * _horner(z, _P1) / _horner(z, _Q1)
        out[s + ti] = np.where(upper[ti], x, -x)
    return out.reshape(np.shape(y0))


def sphere_samples(
    d: Dilation, count: int, seed: int = DEFAULT_SEED, offset: float = 0.0
) -> np.ndarray:
    """Deterministic sample set on the generalized sphere.

    n = 1 gives the two-point sphere {+1, -1}; n = 2 uses the uniform theta
    grid (optionally rotated by `offset` grid spacings, for independent
    verification passes); n >= 3 uses a scrambled Halton sequence pushed
    through the normal quantile map and projected along dilation orbits.
    Every row satisfies sum_i |x_i|^(l/r_i) = 1 to float precision.

    The n >= 3 points reproduce SciPy 1.17 bit for bit: its
    `stats.qmc.Halton(d=n, scramble=True, seed=seed).random(count)`
    mapped through its `special.ndtri`.  SciPy takes the quantile's tail
    logarithms with the C library's log, and so does `_ndtri`: `_libm_log`
    rounds long-double logs to float64 and calls math.log only near a
    float64 rounding midpoint, where the two could differ.
    """
    n = d.n
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        step = TWO_PI / count
        theta = theta_grid(count) + (offset % 1.0) * step
        return theta_points(theta, d)
    u = _scrambled_halton(n, count, seed)
    z = _ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    keep = norms > 1e-9
    z = z[keep] / norms[keep, None]
    return d.project(z)
