"""Lattice-point machinery around a polymatroid, on plain coordinate tuples.

``independence_points(P)`` walks I(P) ∩ N^p once per instance into one
immutable ``IndependenceSet``, in lex order with its ``lattice_code(P)``
codes, held in P's memo store beside ``exchange_index(P)``.
``truncate`` cuts a polymatroid at a point of its region.
``is_cave`` reads the three cave conditions from one ``ExchangeIndex``
over a set, its tops and its p unit truncations being bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import ge

from .core import (
    ExchangeIndex,
    Immutable,
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
    """The integer points of a polymatroid's independence polytope:
    downward closed, holding the origin and every base point.  ``ordered``
    lists them in lex order and ``codes`` their ``lattice_code`` codes, both
    tuples; ``points``, the frozenset, is built on first read.  The set
    does not refer to its polymatroid, so one value held in a memo store is
    handed to every caller.  Immutable."""

    __slots__ = ("p", "ordered", "codes", "__dict__")

    def __init__(self, p: int, ordered, codes):
        for name, value in (("p", p), ("ordered", tuple(ordered)), ("codes", tuple(codes))):
            object.__setattr__(self, name, value)

    @cached_property
    def points(self) -> frozenset:
        return frozenset(self.ordered)

    def __iter__(self):
        return iter(self.ordered)


@memo
def independence_points(P: Polymatroid) -> IndependenceSet:
    """I(P) ∩ N^p in lex order with its ``lattice_code(P)`` codes, those of
    the walk that lists the points: no sort and no encode.  The region lies
    in [0, cage], so its codes are distinct and code(a) - code(m) =
    code(a - m).

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
    bases = exchange_index(P)
    points, codes = [], []
    _lex_walk(bases.above, lattice_code(P).strides, (), 0, bases.full, points, codes)
    return IndependenceSet(P.p, points, codes)


def _lex_walk(above, strides, prefix, code, mask, points, codes):
    """``independence_points``' walk below ``prefix`` (code ``code``, the
    bases >= it under ``mask``), appending points and codes."""
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
    behind ``independence_points``), O(|B| p).  The kept points are always
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
    verdict is per-order and recorded in the report.  An order that is not
    a ``LexOrder`` is refused at once; past (1), negative tops and an order
    of another length.  The tops are the
    index's top-degree level: (1) and (2) cost O(p^2) lookups per top plus
    the union's size; (3) costs what ``_truncation_failure`` says.
    """
    pts = point_set(C)
    index = ExchangeIndex(sorted(pts))
    order = resolve_order(order, getattr(order, "p", index.p))  # the type alone
    tops = index.full & ~index.degree_masks[max(index.degree_masks)][0]
    witness = index.m_convex_failure(tops)
    if witness:
        return CaveReport(False, 1, witness, order.permutation)
    nonnegative_set(map(index.ordered.__getitem__, _bits(tops)))  # the error a Polymatroid of the tops raises

    union = index.cube_codes(index.stalactites(resolve_order(order, index.p), tops))
    if union.keys() != set(index.codes):
        union = set(index.lattice.decode(union))
        missing = tuple(sorted(union - pts))
        extra = tuple(sorted(pts - union))
        return CaveReport(False, 2, {"missing": missing, "extra": extra}, order.permutation)

    failure = _truncation_failure(index)
    if failure:
        return CaveReport(False, 3, failure, order.permutation)
    return CaveReport(True, None, None, order.permutation)
