"""Lattice-point machinery around a polymatroid, on plain coordinate tuples.

``region_index(P)`` walks I(P) ∩ N^p once per instance, in lex order
with its ``lattice_code(P)`` codes, into an ``ExchangeIndex`` held beside
``exchange_index(P)``; ``independence_points`` reads it as a set.
``truncate`` cuts a polymatroid at a point of its region.
``is_cave`` reads the three cave conditions from one ``ExchangeIndex``
over a set, its tops and its p unit truncations being bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge

from .core import (
    ExchangeIndex,
    Immutable,
    LexOrder,
    Polymatroid,
    _bits,
    as_point,
    exchange_index,
    lattice_code,
    memo,
    nonnegative_set,
    point_set,
    resolve_order,
)
from .errors import (
    DimensionMismatch,
    InternalInvariantFailure,
    NotInIndependence,
    NotMConvex,
)


class IndependenceSet(Immutable):
    """Integer points of the independence polytope of ``source``: downward
    closed, holding the origin and every point of the source.  ``points``
    is a frozenset, when not given the source's memoised one, built on
    first read; iteration reads ``region_index``'s lex order.  Immutable."""

    __slots__ = ("p", "source", "_points")

    def __init__(self, p: int, points, source: Polymatroid):
        for name, value in (("p", p), ("_points", points), ("source", source)):
            object.__setattr__(self, name, value)

    @property
    def points(self) -> frozenset:
        return _down_closure(self.source) if self._points is None else self._points

    def __iter__(self):
        return iter(region_index(self.source).ordered if self._points is None else sorted(self._points))


def independence_points(P: Polymatroid) -> IndependenceSet:
    """I(P) ∩ N^p, an ``IndependenceSet`` over ``region_index(P)``; the memo
    store holds the points, not this set, which refers back to ``P``."""
    region_index(P)
    return IndependenceSet(P.p, None, P)


@memo
def _down_closure(P: Polymatroid) -> frozenset:
    return frozenset(region_index(P).ordered)


@memo
def region_index(P: Polymatroid) -> ExchangeIndex:
    """The ``ExchangeIndex`` of I(P) ∩ N^p in lex order under
    ``lattice_code(P)``, holding the codes of the walk that lists the points
    as its own: no sort and no encode.  The region lies in [0, cage], so
    its codes are distinct and code(a) - code(m) = code(a - m).

    Every integral independent vector lies under an integral base, so n is
    in I(P) exactly when some base point dominates it.  The walk fixes
    coordinates 1..p in turn, keeping the mask of the bases >= its prefix
    (one AND with the mask "u_i >= c" of ``exchange_index(P).above`` per
    step), and extends the prefix by c = 0, 1, ... while that mask stays
    nonempty: a prefix with a kept base u extends by zeros to a point under
    u, and a region point's dominating base is kept along its prefixes.  So
    the walk (``_lex_walk``) visits exactly the prefixes of region points,
    in lex order.  The mask table has sum of (cage_i + 2) <= p (|I| + 1)
    entries; the walk costs one call per distinct prefix of a region
    point, the points included: at most p |I| + 1 calls."""
    bases, lattice = exchange_index(P), lattice_code(P)
    points, codes = [], []
    _lex_walk(bases.above, lattice.strides, (), 0, bases.full, points, codes)
    index = ExchangeIndex(points, lattice)
    index.codes = codes
    return index


def _lex_walk(above, strides, prefix, code, mask, points, codes):
    """``region_index``'s walk below ``prefix`` (code ``code``, the bases >=
    it under ``mask``), appending points and codes."""
    i = len(prefix)
    if i == len(above):
        points.append(prefix)
        codes.append(code)
        return
    s = strides[i]
    for c, sel in enumerate(above[i]):
        sub = mask & sel
        if not sub:
            break
        _lex_walk(above, strides, prefix + (c,), code + c * s, sub, points, codes)


def truncate(P: Polymatroid, n) -> Polymatroid:
    """The sub-polymatroid of base points componentwise >= n, for n in I(P):
    n is there exactly when n >= 0 and some base point is kept (the fact
    behind ``region_index``), O(|B| p).  The kept points are always
    M-convex: a constructor failure is an internal fault."""
    n = as_point(n)
    if len(n) != P.p:
        raise DimensionMismatch("point has length %d, expected %d" % (len(n), P.p))
    kept = [u for u in P.points if all(map(ge, u, n))]
    if not kept or min(n) < 0:
        raise NotInIndependence("%s is not in the independence region" % (n,))
    try:
        return Polymatroid(kept)
    except NotMConvex as exc:  # impossible for n in I(P)
        raise InternalInvariantFailure("truncation at %s is not a polymatroid: %s" % (n, exc))


@dataclass(frozen=True)
class CaveReport:
    """Outcome of ``is_cave``, truthy when it holds: the first failing
    condition, numbered as there, and its ``witness``, both None on success."""

    ok: bool
    failed_condition: int | None
    witness: object
    order: tuple

    def __bool__(self):
        return self.ok


def _truncation_failure(index):
    """Condition (3) of the cave predicate: ``{"at": b, "witness": w}`` for
    the first nonzero b >= 0, in ``itertools.product`` order, whose
    truncation {q >= b} is not a generalized polymatroid; None if there is
    none.  Only the unit truncations {q >= e_j} of two or more points are
    asked, j = p down to 1 (product order).  A pair failing in {q >= b}
    fails in every threshold truncation that holds both points (the
    restriction argument of ``ExchangeIndex``).  With j the last nonzero
    coordinate of b, {q >= e_j} contains {q >= b} and comes no later in
    product order, so the first failing b is some e_j, with the same mask
    and witness."""
    def at_least(i, c):  # the points not below the least value x >= c of coordinate i
        return next((index.full & ~below for x, (below, _) in index.masks[i].items() if x >= c), 0)

    nonnegative = index.full
    for i in range(index.p):
        nonnegative &= at_least(i, 0)
    for j in reversed(range(index.p)):
        mask = nonnegative & at_least(j, 1)
        if mask & (mask - 1):
            witness = index.gp_failure(mask)
            if witness:
                return {"at": tuple(int(i == j) for i in range(index.p)), "witness": witness}
    return None


def is_cave(C, order=None) -> CaveReport:
    """Check the three cave conditions for a finite point set.

    (1) the top elements are M-convex; (2) the set equals the union of the
    stalactites of its tops under ``order`` (identity coordinate order by
    default); (3) every nonempty truncation at nonzero b is a generalized
    polymatroid.  Which lex order condition (2) uses is a parameter: the
    verdict is per-order and recorded in the report.  Past (1), negative
    tops and an order of another length are refused.  The tops are the
    index's top-degree level: (1) and (2) cost O(p^2) mask operations per
    top plus the union's size; (3) costs what ``_truncation_failure`` says.
    """
    pts = point_set(C)
    index = ExchangeIndex(sorted(pts))
    if order is None:
        order = LexOrder.identity(index.p)
    tops = index.full & ~index.degree_masks[max(index.degree_masks)][0]
    witness = index.m_convex_failure(tops)
    if witness:
        return CaveReport(False, 1, witness, order.permutation)
    nonnegative_set(map(index.ordered.__getitem__, _bits(tops)))  # the error a Polymatroid of the tops raises

    visit = index.in_order(resolve_order(order, index.p), tops)
    union = index.stalactite_codes(visit)
    if union.keys() != index.position.keys():
        union = set(index.lattice.decode(union))
        missing = tuple(sorted(union - pts))
        extra = tuple(sorted(pts - union))
        return CaveReport(False, 2, {"missing": missing, "extra": extra}, order.permutation)

    failure = _truncation_failure(index)
    if failure:
        return CaveReport(False, 3, failure, order.permutation)
    return CaveReport(True, None, None, order.permutation)
