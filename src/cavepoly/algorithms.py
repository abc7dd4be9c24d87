"""The four routes to the cave polynomial, and the Snapper polynomial.

``cave_polynomial`` (the indicator-product formula), ``stalactite_polynomial``
(signed stalactite counts, any lex order), ``box_polynomial`` (box products
over the independence points) and ``mobius_polynomial`` (``mobius_table``;
``mobius_interval`` is the closed form on intervals) agree exactly on every
polymatroid, which ``genverify`` checks.  They share only
``lattice_code(P)``, the exchange index and the independence region, and
each result is held in P's memo store.  ``snapper_from_cave`` and
``snapper_eur_larson`` are the two routes to the Snapper polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import sub
from types import MappingProxyType

from .core import Immutable, LexOrder, Polymatroid, _bits, as_point, exchange_index, lattice_code, memo, resolve_order
from .errors import DimensionMismatch, InternalInvariantFailure, NotComparable
from .geometry import independence_points
from .polyalg import BinomialBasisPoly, MultiPoly, axiswise_codes, binomial_map


@dataclass(frozen=True)
class Stalactite:
    """The hanging cube below ``apex``: {apex - e_J : J subset of directions}."""

    apex: tuple
    directions: frozenset
    members: frozenset


class MobiusTable(Immutable):
    """Mobius values on the independence points; anything else maps to 0.
    Immutable, ``values`` a read-only view: one table in a polymatroid's
    memo store is handed to every caller."""

    __slots__ = ("p", "rank", "values")

    def __init__(self, p: int, rank: int, values: dict):
        for name, value in (("p", p), ("rank", rank), ("values", MappingProxyType(dict(values)))):
            object.__setattr__(self, name, value)

    def __getitem__(self, n) -> int:
        return self.values.get(tuple(n), 0)

    def items(self):
        return self.values.items()

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        if not isinstance(other, MobiusTable):
            return NotImplemented
        return self.p == other.p and self.values == other.values

    def __repr__(self):
        return "MobiusTable(p=%d, rank=%d, %d points)" % (self.p, self.rank, len(self.values))


def _hanging_cube(apex, directions) -> Stalactite:
    """The stalactite below ``apex`` along the direction mask ``directions``."""
    axes = [(c, c - 1) if directions >> ell & 1 else (c,) for ell, c in enumerate(apex)]
    return Stalactite(apex, frozenset(ell + 1 for ell in _bits(directions)), frozenset(product(*axes)))


def stalactite_decomposition(P: Polymatroid, order: LexOrder | None = None) -> tuple:
    """Greedy stalactites of the base points in ascending ``order``: the i-th
    stalactite is St(a_i; {a_1, ..., a_{i-1}}).  Their union is the cave set.
    """
    order, index = resolve_order(order, P.p), exchange_index(P)
    cubes = [_hanging_cube(index.ordered[k], directions) for k, directions in index.stalactites(order)]
    return tuple(sorted(cubes, key=lambda st: order.key(st.apex)))


def stalactite_counts(P: Polymatroid, order: LexOrder | None = None) -> dict:
    """Number of stalactites of the decomposition containing each point, as a
    new dict on each call: the absolute coefficients of the stalactite
    polynomial, whose terms are never zero and signed by the point alone."""
    return {n: abs(c) for n, c in stalactite_polynomial(P, order).terms.items()}


def stalactite_polynomial(P: Polymatroid, order: LexOrder | None = None) -> MultiPoly:
    """Signed generating function of the stalactite counts.  Individual
    stalactites depend on the order; this polynomial does not."""
    return _stalactite_polynomial(P, resolve_order(order, P.p))


@memo
def _stalactite_polynomial(P: Polymatroid, order: LexOrder) -> MultiPoly:
    index = exchange_index(P)
    terms = index.cube_codes(index.stalactites(order))
    return MultiPoly._of(P.p, dict(zip(index.lattice.decode(terms), terms.values())))


@memo
def cave_polynomial(P: Polymatroid) -> MultiPoly:
    """Expand the indicator-product formula over the base points,
    sum_n 1_P(n) prod_{i<p} (1 - [n - e_i + e_j in P, some j > i] t_i^{-1}) t^n.
    The product skips coordinate p, so the formula is tied to the identity
    order; ``stalactite_polynomial`` covers the others.

    Exponents are codes of ``lattice_code(P)``, strides s_i, whose margin
    keeps each move from aliasing; the route reads no exchange index.  Each
    base point u starts as {code(u): 1}.  For each i < p with a neighbour
    u - e_i + e_j, j > i, in P (code(u) - s_i + s_j among the base codes),
    the factor 1 - t_i^{-1} adds each code's negative at e - s_i.
    Every such e has e_i = u_i >= 1 (else ``InternalInvariantFailure``),
    so no code leaves the box.  O(|B| p^2) lookups plus O(p) per term.
    """
    lattice = lattice_code(P)
    strides = lattice.strides
    rises = [[s - down for s in strides[i + 1:]] for i, down in enumerate(strides[:-1])]
    ordered = sorted(P.points)
    base = dict(zip(lattice.encode(ordered), ordered))
    keys = base.keys()
    acc = {}
    for code, u in base.items():
        term = {code: 1}
        for i, moves in enumerate(rises):  # the formula's product runs i = 1..p-1
            if not keys.isdisjoint(map(code.__add__, moves)):
                if u[i] < 1:
                    raise InternalInvariantFailure("t_%d^-1 applied to %s, whose entry %d is 0" % (i + 1, u, i + 1))
                # Every code so far has digit i = u_i, so each e - s_i is new.
                down = strides[i]
                term.update({e - down: -c for e, c in term.items()})
        for e, c in term.items():
            acc[e] = acc.get(e, 0) + c
    return MultiPoly._of(P.p, {e: c for e, c in zip(lattice.decode(acc), acc.values()) if c})


def box_summands(P: Polymatroid) -> dict:
    """The expanded box product of each independence point n, keyed by n in
    lex order: ``box_polynomial``'s summands, exposed so the sum can be
    traced.  prod over n_i >= 1 of (t_i^{n_i} - t_i^{n_i - 1}) has the
    term (-1)^|J| t^(n - e_J) for each J within the support of n."""
    return {n: MultiPoly._of(P.p, {q: (-1) ** (sum(n) - sum(q))
                                   for q in product(*[(c, c - 1) if c else (0,) for c in n])})
            for n in independence_points(P)}


@memo
def box_polynomial(P: Polymatroid) -> MultiPoly:
    """Sum of the box products over the independence points: one change of
    basis of {code(n): 1 for n in I(P)}, codes of ``independence_points(P)``,
    index n_i becoming t_i^{n_i} - t_i^{n_i - 1} (1 for n_i = 0), by
    ``axiswise_codes`` on ``lattice_code(P)``, O(p |I|)."""
    region, lattice = dict.fromkeys(independence_points(P).codes, 1), lattice_code(P)
    row = [((0, 1),)] + [((n, 1), (n - 1, -1)) for n in range(1, max(lattice.spans))]
    terms = axiswise_codes(region, lattice, [row[:span] for span in lattice.spans])
    return MultiPoly._of(P.p, dict(zip(lattice.decode(terms), terms.values())))


_INT, _UNIT = frozenset({int}), frozenset({0, 1})


def mobius_interval(m, n) -> int:
    """Closed-form Mobius value of the interval [m, n] in the componentwise
    order: (-1)^j when n - m is a 0/1 vector with j ones, else 0.

    Endpoints of one length whose steps n - m are all ints, the common
    case, are read as they are; any other pair is normalised by
    ``as_point``, m first, which names the first non-integer entry.  Every
    step's type is tested, before a set could fold 0.0 into an equal 0."""
    try:
        steps = [*map(sub, n, m)] if len(m) == len(n) else [None]
    except TypeError:  # an endpoint without a length, or entries that do not subtract
        steps = [None]
    if not _INT.issuperset(map(type, steps)):
        m, n = as_point(m), as_point(n)
        if len(m) != len(n):
            raise DimensionMismatch("interval endpoints differ in length")
        steps = [*map(sub, n, m)]
    if _UNIT.issuperset(steps):
        return (-1) ** (sum(n) - sum(m))
    if min(steps) < 0:  # a negative step is refused before a step > 1 gives 0
        raise NotComparable("%s is not componentwise <= %s" % (as_point(m), as_point(n)))
    return 0


@memo
def mobius_table(P: Polymatroid) -> MobiusTable:
    """Mobius values on all independence points by the three-case recurrence:
    1 on base points, 1 - sum over strictly larger points inside, 0 outside.

    One pass over ``independence_points(P)`` in reverse lex order, visiting
    n + e_k before n.  ``partial[n][k]`` sums mu(m) over the m >= n that
    agree with n beyond coordinate k.  Each m > n is counted once, at
    n + e_k for the last coordinate k on which it exceeds n, so mu(n) = 1 -
    sum_k partial[n + e_k][k] (0 outside the region, which is down-closed),
    and partial[n][k] = partial[n][k - 1] + partial[n + e_k][k] with
    partial[n][-1] = mu(n): O(|I| p) in total (a trimmed zeta transform
    over the product of chains).  ``partial`` is keyed by the region's
    codes, n + e_k at code(n) + stride_k (``lattice_code``).
    """
    region = independence_points(P)
    strides = list(enumerate(lattice_code(P).strides))
    partial, values, outside = {}, {}, (0,) * P.p
    for n, code in zip(reversed(region.ordered), reversed(region.codes)):
        above = [partial.get(code + s, outside)[k] for k, s in strides]
        values[n] = mu = 1 - sum(above)
        partial[code] = sums = []
        for a in above:
            mu += a
            sums.append(mu)
    return MobiusTable(P.p, P.rank, values)


@memo
def mobius_polynomial(P: Polymatroid) -> MultiPoly:
    """Generating function of the Mobius values over the independence points."""
    return MultiPoly._of(P.p, {n: mu for n, mu in mobius_table(P).items() if mu})


def snapper_from_cave(P: Polymatroid) -> BinomialBasisPoly:
    """Snapper polynomial: the cave polynomial read in the binomial basis,
    t^n becoming prod_i C(t_i + n_i, n_i)."""
    return binomial_map(cave_polynomial(P))


def snapper_eur_larson(P: Polymatroid) -> BinomialBasisPoly:
    """Snapper polynomial as the shifted-binomial sum over the independence
    points: sum_n prod_i C(t_i + n_i - 1, n_i).  Expanded to rational form
    it agrees exactly with ``snapper_from_cave``."""
    return BinomialBasisPoly._of(P.p, dict.fromkeys(independence_points(P), 1), -1)
