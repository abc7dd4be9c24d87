"""Exact sparse polynomial arithmetic in the monomial and binomial bases.

Three representations, all with exact coefficients and dict-of-terms storage
keyed by exponent/index tuples of fixed length p.  ``terms`` is a read-only
``MappingProxyType`` view, so a result held in a polymatroid's memo store
and handed to every caller cannot be changed by one caller under another:

* ``MultiPoly``        -- integer coefficients on monomials t^n.  Exponents
  may go negative in transient intermediates (the cave expansion multiplies
  by ``1 - t_i^{-1}`` factors); finished polynomials must pass
  ``assert_ordinary``.
* ``BinomialBasisPoly`` -- integer coefficients on products of binomial
  expressions ``prod_i C(t_i + n_i + shift, n_i)``.  ``shift=0`` is the
  basis of the Snapper polynomial, ``shift=-1`` the shifted basis of the
  independence-sum formula.
* ``RationalPoly``     -- Fraction coefficients on monomials; the common
  expanded form in which the two binomial bases can be compared exactly.

``expand_binomial`` and the box route in ``algorithms`` are per-coordinate
changes of basis of an integer combination indexed by lattice points.
``axiswise`` applies one coordinate's table to every key at a time, so a
change costs O(p * terms * row length) instead of a full product per term;
the binomial expansion stays in integers until one Fraction per monomial.

Canonical printing orders terms by total degree descending, ties broken by
descending comparison of the sparse (variable, exponent) pair sequence, so
for example ``t2^3 + t1^2*t2 + t1*t2^2 - t2^2 - t1*t2``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import DimensionMismatch, InternalInvariantFailure, NegativeExponent


def binom_int(x: int, k: int) -> int:
    """Binomial coefficient C(x, k) for any integer x and k >= 0, via the
    falling factorial (exact; the division is always even)."""
    if k < 0:
        raise ValueError("binomial lower index must be nonnegative")
    num = 1
    for j in range(k):
        num *= x - j
    return num // math.factorial(k)


def canonical_key(exps):
    """Sort key realizing the canonical term order (see module docstring)."""
    return (-sum(exps), tuple((-i, -e) for i, e in enumerate(exps, 1) if e != 0))


def _check_vector(t, p):
    t = tuple(t)
    if len(t) != p:
        raise DimensionMismatch("vector has length %d, expected %d" % (len(t), p))
    return t


class MultiPoly:
    """Sparse multivariate polynomial with exact integer coefficients."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        if not isinstance(p, int) or p < 1:
            raise ValueError("p must be a positive integer, got %r" % (p,))
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != p:
                raise DimensionMismatch("exponent vector %s has length != %d" % (exps, p))
            if not isinstance(coeff, int):
                raise ValueError("coefficient %r is not an integer" % (coeff,))
            if coeff != 0:
                clean[exps] = clean.get(exps, 0) + coeff
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def zero(cls, p: int) -> "MultiPoly":
        return cls(p, {})

    @classmethod
    def constant(cls, p: int, c: int) -> "MultiPoly":
        return cls(p, {(0,) * p: c})

    @classmethod
    def monomial(cls, p: int, exps, coeff: int = 1) -> "MultiPoly":
        return cls(p, {tuple(exps): coeff})

    @classmethod
    def variable(cls, p: int, i: int) -> "MultiPoly":
        """The monomial t_i (1-based index)."""
        exps = [0] * p
        exps[i - 1] = 1
        return cls(p, {tuple(exps): 1})

    def _coerce(self, other):
        if isinstance(other, int):
            return MultiPoly.constant(self.p, other)
        if isinstance(other, MultiPoly):
            if other.p != self.p:
                raise DimensionMismatch("mixing polynomials in %d and %d variables" % (self.p, other.p))
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly(self.p, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.p, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return MultiPoly(self.p, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def has_negative_exponent(self) -> bool:
        return any(x < 0 for e in self.terms for x in e)

    def assert_ordinary(self) -> "MultiPoly":
        """Fail if a transient negative exponent survived into a result."""
        if self.has_negative_exponent():
            raise InternalInvariantFailure("negative exponent in a finished polynomial")
        return self

    def evaluate(self, t) -> int:
        """Exact value at an integer vector."""
        t = _check_vector(t, self.p)
        if self.has_negative_exponent():
            raise NegativeExponent("cannot evaluate a polynomial with negative exponents")
        total = 0
        for exps, c in self.terms.items():
            v = c
            for ti, e in zip(t, exps):
                if e:
                    v *= ti ** e
            total += v
        return total

    def __repr__(self):
        return "MultiPoly(%d, %s)" % (self.p, canonical_string(self))


class BinomialBasisPoly:
    """Integer combination of products of binomial expressions.

    A term ``n -> c`` stands for ``c * prod_i C(t_i + n_i + shift, n_i)``.
    """

    __slots__ = ("p", "terms", "shift")

    def __init__(self, p: int, terms=None, shift: int = 0):
        if not isinstance(p, int) or p < 1:
            raise ValueError("p must be a positive integer, got %r" % (p,))
        clean = {}
        for n, coeff in (terms or {}).items():
            n = tuple(n)
            if len(n) != p:
                raise DimensionMismatch("index vector %s has length != %d" % (n, p))
            if any(x < 0 for x in n):
                raise NegativeExponent("binomial basis indices must be nonnegative: %s" % (n,))
            if not isinstance(coeff, int):
                raise ValueError("coefficient %r is not an integer" % (coeff,))
            if coeff != 0:
                clean[n] = clean.get(n, 0) + coeff
                if clean[n] == 0:
                    del clean[n]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", MappingProxyType(clean))
        object.__setattr__(self, "shift", shift)

    def __setattr__(self, name, value):
        raise AttributeError("BinomialBasisPoly is immutable")

    def __eq__(self, other):
        if not isinstance(other, BinomialBasisPoly):
            return NotImplemented
        return self.p == other.p and self.shift == other.shift and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, self.shift, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, t) -> int:
        """Exact value at an integer vector (binomials via falling factorials,
        so negative arguments are fine)."""
        t = _check_vector(t, self.p)
        total = 0
        for n, c in self.terms.items():
            v = c
            for ti, ni in zip(t, n):
                if ni:
                    v *= binom_int(ti + ni + self.shift, ni)
            total += v
        return total

    def __repr__(self):
        return "BinomialBasisPoly(%d, %s)" % (self.p, canonical_string(self))


class RationalPoly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms=None):
        if not isinstance(p, int) or p < 1:
            raise ValueError("p must be a positive integer, got %r" % (p,))
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != p:
                raise DimensionMismatch("exponent vector %s has length != %d" % (exps, p))
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[exps] = clean.get(exps, 0) + coeff
                if clean[exps] == 0:
                    del clean[exps]
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("RationalPoly is immutable")

    def __eq__(self, other):
        if not isinstance(other, RationalPoly):
            return NotImplemented
        return self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, t) -> Fraction:
        t = _check_vector(t, self.p)
        total = Fraction(0)
        for exps, c in self.terms.items():
            v = c
            for ti, e in zip(t, exps):
                if e:
                    v *= Fraction(ti) ** e
            total += v
        return total

    def __repr__(self):
        return "RationalPoly(%d, %s)" % (self.p, canonical_string(self))


def binomial_map(q: MultiPoly) -> BinomialBasisPoly:
    """Reinterpret each monomial t^n as the binomial product prod C(t_i+n_i, n_i).

    Coefficients carry over term by term; requires nonnegative exponents.
    """
    if q.has_negative_exponent():
        raise NegativeExponent("binomial map requires nonnegative exponents")
    return BinomialBasisPoly(q.p, dict(q.terms), shift=0)


@lru_cache(maxsize=None)
def _rising_coeffs(n: int, shift: int) -> tuple:
    """Integer coefficients (ascending degree) of prod_{k=1..n} (t + k + shift);
    dividing by n! gives C(t + n + shift, n) as a polynomial in t."""
    coeffs = [1]
    for k in range(1, n + 1):
        root = k + shift
        nxt = [0] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            nxt[d] += c * root
            nxt[d + 1] += c
        coeffs = nxt
    return tuple(coeffs)


def axiswise(terms, rows) -> dict:
    """Change basis one coordinate at a time.

    ``terms`` maps index tuples to integer coefficients; ``rows[i][n]`` is
    the combination of (index, coefficient) pairs that index n on
    coordinate i becomes.  Each coordinate is one pass over the current
    terms, so the change costs O(p * terms * row length) rather than a full
    product per term.  Zero coefficients are dropped after every pass.
    """
    for i, row in enumerate(rows):
        out = {}
        for key, v in terms.items():
            head, tail = key[:i], key[i + 1:]
            for d, c in row[key[i]]:
                k = head + (d,) + tail
                out[k] = out.get(k, 0) + v * c
        terms = {k: v for k, v in out.items() if v}
    return terms


def expand_binomial(b: BinomialBasisPoly) -> RationalPoly:
    """Expand every binomial factor exactly and distribute, e.g.
    C(t+2,2) -> (t^2 + 3t + 2)/2.

    Coordinate i is scaled by N_i!, N_i its largest index, so index n maps
    to the integer row ``_rising_coeffs(n, shift) * N_i!/n!``.  The change
    runs in integers through ``axiswise``, O(p * terms * max N_i), and one
    Fraction is built per final monomial.
    """
    tops = [max((n[i] for n in b.terms), default=0) for i in range(b.p)]
    rows = []
    for top in tops:
        scale = math.factorial(top)
        rows.append([tuple((d, c * (scale // math.factorial(n)))
                           for d, c in enumerate(_rising_coeffs(n, b.shift)) if c)
                     for n in range(top + 1)])
    denom = math.prod(math.factorial(top) for top in tops)
    return RationalPoly(b.p, {e: Fraction(v, denom) for e, v in axiswise(b.terms, rows).items()})


def _coeff_str(c) -> tuple:
    """(sign, magnitude-string or None-if-one) for an int or Fraction."""
    sign = "-" if c < 0 else "+"
    c = abs(c)
    if isinstance(c, Fraction) and c.denominator != 1:
        return sign, "%d/%d" % (c.numerator, c.denominator)
    if c == 1:
        return sign, None
    return sign, str(int(c))


def _monomial_str(exps) -> str:
    parts = []
    for i, e in enumerate(exps, 1):
        if e == 0:
            continue
        parts.append("t%d" % i if e == 1 else "t%d^%d" % (i, e))
    return "*".join(parts)


def _binomial_term_str(n, shift) -> str:
    parts = []
    for i, ni in enumerate(n, 1):
        if ni == 0:
            continue
        top = ni + shift
        parts.append("C(t%d,%d)" % (i, ni) if top == 0 else "C(t%d+%d,%d)" % (i, top, ni))
    return "*".join(parts)


def canonical_string(q) -> str:
    """Deterministic rendering with the canonical term order; injective per
    representation for a fixed number of variables."""
    if isinstance(q, BinomialBasisPoly):
        items = [(n, c, _binomial_term_str(n, q.shift)) for n, c in q.terms.items()]
    elif isinstance(q, (MultiPoly, RationalPoly)):
        items = [(e, c, _monomial_str(e)) for e, c in q.terms.items()]
    else:
        raise TypeError("cannot render %r" % type(q).__name__)
    if not items:
        return "0"
    items.sort(key=lambda item: canonical_key(item[0]))
    pieces = []
    for _, coeff, body in items:
        sign, mag = _coeff_str(coeff)
        if not body:
            text = mag or "1"
        elif mag is None:
            text = body
        else:
            text = "%s*%s" % (mag, body)
        if not pieces:
            pieces.append(text if sign == "+" else "-" + text)
        else:
            pieces.append("%s %s" % (sign, text))
    return " ".join(pieces)
