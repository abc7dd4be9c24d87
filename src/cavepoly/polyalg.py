"""Exact sparse polynomials in the monomial and binomial bases.

``_SparsePoly`` is the immutable base of ``MultiPoly`` (integer
coefficients on monomials t^n), ``BinomialBasisPoly`` (integer coefficients
on prod_i C(t_i + n_i + shift, n_i); shift 0 is the Snapper basis, -1 the
independence-sum one) and ``RationalPoly`` (integer numerators over one
reduced denominator, where the two bases compare exactly).  The public
constructors check every term, as input from outside the library; results
the library builds enter unchecked by ``_of``.
``binomial_map`` reads monomials in the binomial basis, ``expand_binomial``
expands binomial products on a dense list of their box or, for a sparse
box, through ``axiswise_codes``, and ``canonical_string`` prints terms in
``canonical_order``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import chain, compress, count, product, repeat
from operator import add, getitem, mul, neg
from types import MappingProxyType

from .core import Immutable, LatticeCode, as_point
from .errors import DimensionMismatch, NegativeExponent

DENSE_SLOTS_PER_TERM = 4  # K of ``expand_binomial``'s dense layout


def binom_int(x: int, k: int) -> int:
    """Binomial coefficient C(x, k) for any integer x and k >= 0, via the
    falling factorial (exact; the division is always even)."""
    if k < 0:
        raise ValueError("binomial lower index must be nonnegative")
    num = 1
    for j in range(k):
        num *= x - j
    return num // math.factorial(k)


def canonical_order(terms) -> list:
    """The keys of ``terms`` in the canonical term order, sorted once by one
    flat key each: the degree's negative, then each entry's rank, 0 first
    and a larger nonzero entry before a smaller one."""
    keys = list(terms)
    rank = dict(zip([0, *sorted({*chain.from_iterable(keys)} - {0}, reverse=True)], count()))
    flat = list(zip(map(neg, map(sum, keys)), *[map(rank.__getitem__, column) for column in zip(*keys)]))
    return [keys[k] for k in sorted(range(len(keys)), key=flat.__getitem__)]


class _SparsePoly(Immutable):
    """Immutable sparse combination of length-p keys.  A representation
    supplies ``_coefficient`` (check and convert one term's coefficient),
    ``_factor`` (the value at t_i of key entry k != 0), ``_store`` (the one
    place that sets its fields) and, when equality reads more than p and the
    terms, ``_fields``: scalars first, the stored mapping last.  Input is
    checked where it enters from outside the library: the public constructor
    runs the per-term loop ``_checked`` on every call, and a result the
    library builds enters by ``_of``, unchecked; both end in ``_store``."""

    __slots__ = ("p", "terms")
    _vector = "exponent"

    def __init__(self, p: int, terms=None):
        self._store(p, self._checked(p, terms))

    @classmethod
    def _of(cls, *fields):
        """A polynomial the library built, from the fields ``_store`` takes,
        unchecked: the caller vouches for what the per-term loop would make, a
        new dict keyed by exact tuples of p ints (no negative index) whose
        values are nonzero ints."""
        q = object.__new__(cls)
        q._store(*fields)
        return q

    def _checked(self, p, terms) -> dict:
        """The per-term loop: p a positive int, keys made tuples and length-
        checked, coefficients checked by ``_coefficient``, zero sums dropped."""
        if not isinstance(p, int) or p < 1:
            raise ValueError("p must be a positive integer, got %r" % (p,))
        clean = {}
        coefficient = self._coefficient
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            if len(key) != p:
                raise DimensionMismatch("%s vector %s has length != %d" % (self._vector, key, p))
            coeff = coefficient(key, coeff)
            if coeff != 0:
                clean[key] = clean.get(key, 0) + coeff
                if clean[key] == 0:
                    del clean[key]
        return clean

    def _store(self, p, terms):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "terms", MappingProxyType(terms))

    def _coefficient(self, key, coeff):
        if not isinstance(coeff, int):
            raise ValueError("coefficient %r is not an integer" % (coeff,))
        return coeff

    def _fields(self) -> tuple:
        return (self.p, self.terms)

    def _coerce(self, other):
        return other if isinstance(other, type(self)) else None

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        *scalars, stored = self._fields()
        return hash((*scalars, frozenset(stored.items())))

    def __bool__(self):
        return bool(self._fields()[-1])

    def evaluate(self, t):
        """Exact value at an integer vector, normalised by ``as_point``:
        ``_factor(t_i, k)`` once per distinct (i, k) with k != 0, then one
        product of lookups per term."""
        t = as_point(t)
        if len(t) != self.p:
            raise DimensionMismatch("vector has length %d, expected %d" % (len(t), self.p))
        factors = [{k: self._factor(ti, k) if k else 1 for k in {*column}} for ti, column in zip(t, zip(*self.terms))]
        total = self._coefficient((), 0)  # the representation's zero
        for key, c in self.terms.items():
            total += c * math.prod(map(getitem, factors, key))
        return total

    def __repr__(self):
        return "%s(%d, %s)" % (type(self).__name__, self.p, canonical_string(self))


class MultiPoly(_SparsePoly):
    """Sparse multivariate polynomial with exact integer coefficients;
    exponents may be negative, and ``evaluate`` refuses them."""

    __slots__ = ()

    @classmethod
    def zero(cls, p: int) -> "MultiPoly":
        return cls(p, {})

    def _factor(self, ti, e):
        if e < 0:
            raise NegativeExponent("cannot evaluate a polynomial with negative exponents")
        return ti ** e

    def _coerce(self, other):
        if isinstance(other, int):  # the caller's integer, checked as input
            return MultiPoly(self.p, {(0,) * self.p: other})
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
        return MultiPoly._of(self.p, {e: c for e, c in out.items() if c})

    __radd__ = __add__

    def has_negative_exponent(self) -> bool:
        return min(chain.from_iterable(self.terms), default=0) < 0


class BinomialBasisPoly(_SparsePoly):
    """Integer combination of products of binomial expressions: a term
    ``n -> c`` stands for ``c * prod_i C(t_i + n_i + shift, n_i)``, which
    ``evaluate`` takes by falling factorials, so negative t are fine.  The
    constructor refuses a shift that is not an integer."""

    __slots__ = ("shift",)
    _vector = "index"

    def __init__(self, p: int, terms=None, shift: int = 0):
        terms = self._checked(p, terms)
        if not isinstance(shift, int):
            raise ValueError("shift %r is not an integer" % (shift,))
        self._store(p, terms, shift)

    def _store(self, p, terms, shift):
        super()._store(p, terms)
        object.__setattr__(self, "shift", shift)

    def _coefficient(self, n, coeff):
        if any(x < 0 for x in n):
            raise NegativeExponent("binomial basis indices must be nonnegative: %s" % (n,))
        return super()._coefficient(n, coeff)

    def _factor(self, ti, ni):
        return binom_int(ti + ni + self.shift, ni)

    def _fields(self) -> tuple:
        return (self.p, self.shift, self.terms)


class RationalPoly(_SparsePoly):
    """Sparse multivariate polynomial with exact rational coefficients, held
    as integer ``numerators`` keyed by exponent tuple over one positive
    ``denominator``, reduced so that gcd(denominator, every numerator) = 1:
    the denominator is the lcm of the coefficients' own, 1 for the zero
    polynomial, so the form is unique and equality and hashing read
    (p, denominator, numerators) alone; ``terms`` is built on first read.
    The constructor takes anything ``Fraction`` takes as a coefficient,
    ``_of`` the integers themselves; ``_store`` reduces by one gcd pass."""

    __slots__ = ("denominator", "numerators")

    def __init__(self, p: int, terms=None):
        terms = self._checked(p, terms)
        denominator = math.lcm(*(c.denominator for c in terms.values()))
        self._store(p, {e: c.numerator * (denominator // c.denominator) for e, c in terms.items()}, denominator)

    def _store(self, p, numerators, denominator):
        g = math.gcd(denominator, *numerators.values())
        if g != 1:
            numerators = {e: v // g for e, v in numerators.items()}
        for name, value in (("p", p), ("denominator", denominator // g), ("numerators", MappingProxyType(numerators))):
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        # Called only for a name that normal lookup misses: a missing name, or
        # the ``terms`` slot before its first read, which builds and keeps the view.
        if name != "terms":
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        view = MappingProxyType({e: Fraction(v, self.denominator) for e, v in self.numerators.items()})
        object.__setattr__(self, "terms", view)
        return view

    def _coefficient(self, exps, coeff):
        return Fraction(coeff)

    def _factor(self, ti, e):
        return Fraction(ti) ** e

    def _fields(self) -> tuple:
        return (self.p, self.denominator, self.numerators)


def binomial_map(q: MultiPoly) -> BinomialBasisPoly:
    """Reinterpret each monomial t^n as the binomial product prod C(t_i+n_i, n_i),
    coefficients term by term; exponents must be nonnegative."""
    if q.has_negative_exponent():
        raise NegativeExponent("binomial map requires nonnegative exponents")
    return BinomialBasisPoly._of(q.p, dict(q.terms), 0)


def axiswise_codes(codes, lattice, rows) -> dict:
    """Change basis one coordinate at a time, on codes: ``codes`` maps codes
    of ``lattice``'s box to integer coefficients, and ``rows[i][n]`` is the
    combination of (index, coefficient) pairs that digit n of coordinate i
    becomes, one entry per digit, whose indices stay in [0, spans[i]);
    nothing is checked.  n -> d on coordinate i adds (d - n) * strides[i].
    Each coordinate is one pass, O(p * terms * row length) additions, then
    drops zeros."""
    for span, stride, row in zip(lattice.spans, lattice.strides, rows):
        offsets = [[((d - n) * stride, c) for d, c in entries] for n, entries in enumerate(row)]
        out = {}
        get = out.get
        for code, v in codes.items():
            for move, c in offsets[code // stride % span]:
                k = code + move
                out[k] = get(k, 0) + v * c
        codes = {k: v for k, v in out.items() if v}
    return codes


def expand_binomial(b: BinomialBasisPoly) -> RationalPoly:
    """Expand every binomial factor exactly and distribute, e.g.
    C(t+2,2) -> (t^2 + 3t + 2)/2.  Coordinate i is scaled by N_i!, N_i its
    largest index, so index n maps to the integer row of degrees 0..n of
    prod_{k=1..n} (t + k + shift) * N_i!/n!, the product grown by one
    factor per n: O(N_i^2) per coordinate.  The change runs in integers on
    the box [0, N], and its integers over prod N_i! are the result's
    numerators and denominator once reduced by one gcd pass; no Fraction is
    built.  An index beyond ``sys.maxsize`` is refused with a ``ValueError``.

    Two layouts of the box, chosen by slots per term.  Sparse:
    ``axiswise_codes`` on the box's codes, O(p * terms * row length) dict
    operations.  Dense, at most ``DENSE_SLOTS_PER_TERM`` = K slots per term:
    one list of the box in ``itertools.product`` order, positions by a
    Horner pass over the term columns.  Coordinate i's pass cuts the list
    into one contiguous block per digit n, builds target digit d as the sum
    over n of rows[i][n][d] * block n by ``map``, and interleaves the
    targets, so the next coordinate is the slowest and after p passes the
    order is ``product``'s again; its nonzero slots are the terms.  That is
    O(p * volume * row length) list operations in C.  K = 4: over 844
    Snapper inputs (uniform rows, p = 4 draws, p = 8..10 wide rows) the
    median dense/sparse time ratio was 0.59-0.97 below 5 slots per term and
    1.02-2.9 above; a wide box with few terms stays sparse and never
    allocates the box."""
    columns = list(zip(*b.terms))
    tops = list(map(max, columns)) if columns else [0] * b.p
    for i, top in enumerate(tops, 1):
        if top > sys.maxsize:
            raise ValueError("coordinate %d has binomial index %d, more than a factorial can take" % (i, top))
    rows = []
    for top in tops:
        scale, coeffs, row = math.factorial(top), [1], []
        for n in range(top + 1):
            if n:
                root = n + b.shift
                coeffs = [a * root + c for a, c in zip(coeffs + [0], [0] + coeffs)]
            row.append(tuple((d, c * (scale // math.factorial(n))) for d, c in enumerate(coeffs) if c))
        rows.append(row)
    denom = math.prod(math.factorial(top) for top in tops)
    spans = [top + 1 for top in tops]
    volume = math.prod(spans)
    if columns and volume <= DENSE_SLOTS_PER_TERM * len(b.terms):
        index = columns[0]
        for span, column in zip(spans[1:], columns[1:]):
            index = map(add, map(mul, index, repeat(span)), column)
        values = [0] * volume
        for k, v in zip(index, b.terms.values()):
            values[k] = v
        for span, row in zip(spans, rows):
            rest = volume // span
            targets = [None] * span
            for n, entries in enumerate(row):
                block = values[n * rest:(n + 1) * rest]
                for d, c in entries:  # row n ends at degree n, where target n starts
                    scaled = map(mul, block, repeat(c))
                    targets[d] = scaled if d == n else map(add, targets[d], scaled)
            values = list(chain.from_iterable(zip(*targets)))
        numerators = dict(compress(zip(product(*map(range, spans)), values), values))
    else:
        lattice = LatticeCode(spans)
        codes = axiswise_codes(dict(zip(lattice.encode(b.terms), b.terms.values())), lattice, rows)
        numerators = dict(zip(lattice.decode(codes), codes.values()))
    return RationalPoly._of(b.p, numerators, denom)


def canonical_string(q, order=None) -> str:
    """Deterministic rendering with the canonical term order; injective per
    representation for a fixed number of variables.  ``order`` is
    ``canonical_order`` of the stored terms (``numerators`` for a
    ``RationalPoly``) when the caller has it already.  Each distinct
    (coordinate, exponent) gets one fragment such as ``t3^2*``, and each
    distinct stored coefficient one signed piece such as `` - 3/2*`` (one
    ``math.gcd``); all pieces are joined once, and then the ``*`` before
    each sign and at the end and a unit ``1*`` are dropped.  So a term costs
    p + 1 dict reads in C."""
    if isinstance(q, BinomialBasisPoly):
        shift = q.shift
        fragment = lambda i, n: "C(t%d,%d)" % (i, n) if n + shift == 0 else "C(t%d+%d,%d)" % (i, n + shift, n)
    elif isinstance(q, (MultiPoly, RationalPoly)):
        fragment = lambda i, e: "t%d" % i if e == 1 else "t%d^%d" % (i, e)
    else:
        raise TypeError("cannot render %r" % type(q).__name__)
    stored, d = (q.numerators, q.denominator) if isinstance(q, RationalPoly) else (q.terms, 1)
    if not stored:
        return "0"
    if order is None:
        order = canonical_order(stored)
    signed = {}
    for v in {*stored.values()}:
        g = math.gcd(v, d)
        magnitude = "%d" % (abs(v) // g) if g == d else "%d/%d" % (abs(v) // g, d // g)
        signed[v] = (" - " if v < 0 else " + ") + magnitude + "*"
    fragments = [map({e: fragment(i, e) + "*" if e else "" for e in {*column}}.__getitem__, column)
                 for i, column in enumerate(zip(*order), 1)]
    text = "".join(chain.from_iterable(zip(map(signed.__getitem__, map(stored.__getitem__, order)), *fragments)))
    text = text.replace("* ", " ")[:-1].replace(" 1*", " ")
    return text[3:] if text[1] == "+" else "-" + text[3:]
