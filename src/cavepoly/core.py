"""Polymatroid representations, axiom checking and the exchange index.

* ``RankFunction``: a rank table indexed by bit mask (bit i - 1 for element
  i, p <= 16), checked by ``validate_rank_function``;
* ``Polymatroid``: a finite homogeneous M-convex set of points in N^p.

``points_from_rank`` and ``rank_from_points`` convert exactly between them.
``LatticeCode`` codes lattice points as integers, P's by ``lattice_code(P)``;
``ExchangeIndex`` answers the exchange questions, P's by
``exchange_index(P)``; ``memo`` holds both in P's own store.  Values are
immutable; a memo store fills a value, and an index a lazy part, on first
use, every fill the same value, so concurrent use is safe.
"""

from __future__ import annotations

import sys
from collections import _count_elements
from dataclasses import dataclass, field
from functools import cached_property, reduce, wraps
from itertools import accumulate, chain, compress, count, repeat
from operator import floordiv, gt, itemgetter, lt, mod, mul, neg, or_, sub
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .errors import (
    AxiomViolation,
    DimensionMismatch,
    EmptyInput,
    InternalInvariantFailure,
    NotMConvex,
)

MAX_GROUND_SET = 16

Point = tuple  # tuple[int, ...]; a lattice point, one entry per ground-set element


def as_point(coords) -> Point:
    """Normalize an integer vector to a tuple, rejecting non-integer entries."""
    pt = tuple(coords)
    for c in pt:
        if not isinstance(c, int):
            raise ValueError("lattice point coordinates must be integers, got %r" % (c,))
    return pt


def point_set(points) -> frozenset:
    """Normalize an iterable of vectors to a frozenset of equal-length tuples.
    ``as_point`` names the first non-integer only when one type test over
    all coordinates fails."""
    pts = []
    try:
        pts.extend(map(tuple, points))
    finally:  # also before an error from a later point: a bad coordinate ahead of it is named first
        if not {*map(type, chain.from_iterable(pts))} <= {int}:
            for q in pts:
                as_point(q)
    pts = frozenset(pts)
    if not pts:
        raise EmptyInput("point set is empty")
    lengths = {len(q) for q in pts}
    if len(lengths) != 1:
        raise DimensionMismatch("points have mixed lengths %s" % sorted(lengths))
    return pts


def nonnegative_set(points) -> frozenset:
    """``point_set(points)``, naming its smallest point with a negative entry."""
    pts = point_set(points)
    if min(chain.from_iterable(pts), default=0) < 0:
        negative = [q for q in pts if min(q, default=0) < 0]
        raise ValueError("polymatroid points must be nonnegative, got %s" % (min(negative),))
    return pts


@dataclass(frozen=True)
class LexOrder:
    """Coordinate-priority lexicographic order on lattice points.
    ``permutation`` lists 1-based int coordinates from highest to lowest
    priority; points compare by the first differing prioritized coordinate,
    smaller value first.  The identity is the standard lex order."""

    permutation: tuple
    key: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        perm = tuple(self.permutation)
        object.__setattr__(self, "permutation", perm)
        if not {*map(type, perm)} <= {int} or sorted(perm) != list(range(1, len(perm) + 1)):
            raise ValueError("%r is not a permutation of 1..%d" % (perm, len(perm)))
        # key(n): n's coordinates in priority order.  An itemgetter of one
        # index returns the entry itself, so p = 1 takes the 1-tuple whole.
        object.__setattr__(self, "key", itemgetter(*(i - 1 for i in perm)) if len(perm) > 1 else tuple)

    @classmethod
    def identity(cls, p: int) -> "LexOrder":
        return cls(tuple(range(1, p + 1)))

    @property
    def p(self) -> int:
        return len(self.permutation)


def resolve_order(order, p: int) -> LexOrder:
    """``order`` (the identity if None), refused unless it is a ``LexOrder``
    on p coordinates."""
    if order is None:
        return LexOrder.identity(p)
    if not isinstance(order, LexOrder):
        raise TypeError("order must be a LexOrder, got %s" % type(order).__name__)
    if order.p != p:
        raise DimensionMismatch("order on %d coordinates, polymatroid has %d" % (order.p, p))
    return order


def mask_to_subset(mask: int) -> tuple:
    """Bit mask -> sorted tuple of 1-based indices."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


class Immutable:
    """A base whose instances refuse every attribute assignment and
    deletion, so that a value held in a memo store cannot be changed by one
    caller under another; a constructor sets its slots with
    ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


class RankFunction(Immutable):
    """A validated polymatroid rank function: ``values[mask]`` is the rank
    of the subset ``mask``.  Build one by ``validate_rank_function`` or
    ``rank_from_points``; the constructor does not check the axioms."""

    __slots__ = ("p", "values", "cage")

    def __init__(self, p: int, values: Sequence[int], cage: Sequence[int]):
        for name, value in (("p", p), ("values", tuple(values)), ("cage", tuple(cage))):
            object.__setattr__(self, name, value)
        if len(self.values) != 1 << p:
            raise ValueError("expected %d rank values, got %d" % (1 << p, len(self.values)))
        if len(self.cage) != p:
            raise DimensionMismatch("cage has length %d, expected %d" % (len(self.cage), p))

    @property
    def rank(self) -> int:
        return self.values[-1]

    def __eq__(self, other):
        # Equality is agreement on every subset; the cage is metadata and two
        # functions differing only in (slack) cage bounds are the same polymatroid.
        if not isinstance(other, RankFunction):
            return NotImplemented
        return self.p == other.p and self.values == other.values

    def __hash__(self):
        return hash((self.p, self.values))

    def __repr__(self):
        return "RankFunction(p=%d, rank=%d, cage=%s)" % (self.p, self.rank, list(self.cage))


def validate_rank_function(p: int, values, cage) -> RankFunction:
    """Check the four polymatroid axioms and return a ``RankFunction``.
    ``values`` is a sequence of 2^p integers, entry m the rank of the subset
    with bit mask m; a mapping is refused (``cli`` reads subset keys).  On
    failure raises ``AxiomViolation`` carrying *every* violated axiom with
    witnessing subsets, in (axiom, mask, i, j) order."""
    if not isinstance(p, int) or p < 1:
        raise ValueError("p must be a positive integer, got %r" % (p,))
    if p > MAX_GROUND_SET:
        raise DimensionMismatch("ground sets larger than %d are not supported" % MAX_GROUND_SET)
    cage = as_point(cage)
    if len(cage) != p:
        raise DimensionMismatch("cage has length %d, expected %d" % (len(cage), p))
    if isinstance(values, Mapping):
        raise ValueError("rank values must be a sequence indexed by bit mask, not a %s" % type(values).__name__)
    dense = list(values)
    if len(dense) != 1 << p:
        raise ValueError("expected %d rank values, got %d" % (1 << p, len(dense)))
    if not {*map(type, dense)} <= {int}:
        for mask, v in enumerate(dense):
            if not isinstance(v, int):
                raise ValueError("rank of %s is %r, not an integer" % (mask_to_subset(mask), v))

    violations = [("empty", ((),))] if dense[0] != 0 else []
    violations += [("cage", ((i + 1,),)) for i in range(p) if dense[1 << i] > cage[i]]
    for axiom, m, i, j in sorted(_local_axiom_failures(p, dense)):
        pair = (m, m | 1 << i) if axiom == "monotone" else (m | 1 << i, m | 1 << j)
        violations.append((axiom, tuple(map(mask_to_subset, pair))))
    if violations:
        raise AxiomViolation(violations)
    return RankFunction(p, dense, cage)


def _local_axiom_failures(p, dense) -> list:
    """("monotone", m, i, 0) for each covering pair with rk(m) > rk(m + i),
    and ("submodular", m, i, j), i < j, for each local square with
    gain_i(m + j) > gain_i(m); each local form is equivalent to its
    all-pairs form.

    Checked on one packed integer (guard bits: Lamport, CACM 18(8), 1975).
    Entry m less the table's minimum fills slot m of ``width`` bytes, with
    spread < 2^(8 width - 3), so twice the spread stays below each slot's
    top bit, its guard H.  For bit i, (the table shifted down 2^i slots |
    H) less the table, each cut to the slots without i, holds H + rk(m + i)
    - rk(m) at those m and H elsewhere: a clear guard is a monotonicity
    failure.  Less H - spread per slot, the gains of i lie in [0, 2 spread]
    (spread elsewhere), and for each j > i the same guarded subtraction,
    cut to the slots without j, compares gain(m) with gain(m + j).  Each
    slot's result lies in [0, 2H), so no borrow crosses a slot, and a
    failing guard's slot index is its mask.  Cost: O(p^2) big-integer
    operations on 2^p width bytes.  Spreads of 2^61 or more take
    ``_sliced_axiom_failures``: wider slots cost more than they save, and
    their memory grows with the widest entry, not with the table."""
    low = min(dense)
    spread = max(dense) - low
    if spread.bit_length() > 61:
        return _sliced_axiom_failures(p, dense)
    width = (spread.bit_length() + 10) // 8
    bits, size = width << 3, len(dense)
    shifted = map(sub, dense, repeat(low)) if low else dense
    if width == 1:
        table = int.from_bytes(bytes(shifted), "little")
    else:
        table = int.from_bytes(b"".join(map(int.to_bytes, shifted, repeat(width), repeat("little"))), "little")
    guards = int.from_bytes((1 << bits - 1).to_bytes(width, "little") * size, "little")
    recentre = int.from_bytes(((1 << bits - 1) - spread).to_bytes(width, "little") * size, "little")
    full = b"\xff" * width
    lacking = [int.from_bytes((full * (1 << i) + bytes(width << i)) * (size >> i + 1), "little") for i in range(p)]
    found = []
    for i, slots in enumerate(lacking):
        gain = (table >> (bits << i) & slots | guards) - (table & slots)
        bad = guards & ~gain
        if bad:
            found += [("monotone", k // bits, i, 0) for k in _bits(bad)]
        gain -= recentre
        for j in range(i + 1, p):
            bad = guards & ~((gain & lacking[j] | guards) - (gain >> (bits << j) & lacking[j]))
            if bad:
                found += [("submodular", k // bits, i, j) for k in _bits(bad)]
    return found


def _sliced_axiom_failures(p, dense) -> list:
    """``_local_axiom_failures``'s list, read off slices: for each bit i the
    table splits into the masks without and with i, and the marginal of i
    splits again on each j > i.  That is O(p^2 2^p) comparisons, one
    ``any(map(...))`` per pair of slices, whatever the entries' size."""
    found = []
    for i in range(p):
        without, with_i = _split(dense, i)
        if any(map(gt, without, with_i)):
            found += [("monotone", _unsplit(t, i), i, 0) for t in compress(count(), map(gt, without, with_i))]
        gain = list(map(sub, with_i, without))  # the marginal of i, indexed like ``without``
        for j in range(i + 1, p):
            before, after = _split(gain, j - 1)
            if any(map(lt, before, after)):
                found += [("submodular", _unsplit(_unsplit(t, j - 1), i), i, j)
                          for t in compress(count(), map(lt, before, after))]
    return found


def _split(seq, bit):
    """(entries of ``seq`` whose index lacks ``bit``, those with it), in order:
    a bit b >= 1 cuts ``seq`` into blocks of 2^b by one ``zip`` of a shared
    iterator, and chains the even blocks and the odd ones."""
    if not bit:
        return seq[0::2], seq[1::2]
    blocks = list(zip(*[iter(seq)] * (1 << bit)))
    return list(chain.from_iterable(blocks[0::2])), list(chain.from_iterable(blocks[1::2]))


def _unsplit(t, bit) -> int:
    """``t`` with a 0 bit inserted at ``bit``: the index of entry t of a ``_split`` half."""
    return t + (t >> bit << bit)


def threshold_masks(values) -> dict:
    """Threshold bitmasks over a sequence of values, bit k standing for item k:
    each value x present maps to (items with value < x, items with value > x)."""
    full = (1 << len(values)) - 1
    equal = {}
    for k, x in enumerate(values):
        equal[x] = equal.get(x, 0) | 1 << k
    out = {}
    below = 0
    for x in sorted(equal):
        out[x] = (below, full & ~(below | equal[x]))
        below |= equal[x]
    return out


def _bits(mask) -> list:
    """Positions of the set bits of a nonnegative ``mask``, ascending: one
    ``str.find`` per set bit over the reversed binary string."""
    digits, out = bin(mask)[::-1], []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


class LatticeCode(Immutable):
    """Mixed-radix integer codes of lattice points with per-coordinate
    ``spans``: code(q) = sum of q_i * strides[i], strides[0] = 1 and
    strides[i + 1] = strides[i] * spans[i].  So q +- e_i has the code
    code(q) +- strides[i], and on the box 0 <= q_i < spans[i] the code is a
    bijection onto range(prod spans), which ``decode`` inverts."""

    __slots__ = ("spans", "strides")

    def __init__(self, spans):
        spans = tuple(spans)
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "strides", tuple(accumulate(spans, mul, initial=1))[:-1])

    def encode(self, points) -> list:
        """The codes of a collection of points of length p, as a list."""
        return [sum(map(mul, q, self.strides)) for q in points]

    def decode(self, codes) -> list:
        """The points of a collection of codes of the box, as a list: digit i
        is code // strides[i] % spans[i], one ``map`` per coordinate."""
        return list(zip(*[map(mod, map(floordiv, codes, repeat(stride)), repeat(span))
                          for stride, span in zip(self.strides, self.spans)]))


class ExchangeIndex(Immutable):
    """Exchange questions for a list of equal-length points and for its
    subsets, given as bitmasks (bit k for ``ordered[k]``), each answered as
    the materialized subset answers it, witness included.

    Two kinds of subset restrict the exchange questions exactly.  A
    threshold truncation {q >= b}, an AND of ``above`` or ``masks``: each
    neighbour an exchange consults for u and v in it (u - e_i + e_j when
    v_i < u_i, v + e_i - e_j when v_j > u_j, u - e_i, v + e_i) is itself
    >= b, so it lies in the truncation exactly when it lies in the whole
    set.  The top-degree level of ``degree_masks``, for the M-convex
    question: each u - e_i + e_j keeps u's degree.  So each point's
    failure masks over the whole set are built once, in O(p^2) lookups,
    and a subset costs O(p) mask operations per kept point.  A point keeps
    only the union of its failure masks, as a polymatroid holds its index
    for life.  The constructor builds what every question reads:
    ``codes`` under ``lattice`` (``lattice_code(P)`` if given, else, for any
    set, the box from min(min, 0) - 1 to max + 1, which holds [0, max] and
    keeps the codes of all q +- e_i looked up distinct), ``bounds`` (least,
    greatest), ``degree_masks`` and ``moves[i]``, each (j, code(u - e_i +
    e_j) - code(u)) for j != i; ``masks``, the live moves, each order's
    ``precedence``, ``up``, ``above`` and the failure caches are built on
    first use.  Codes turn neighbour lookups into integer additions; the
    exchange check reads ``masks`` only past a missing move.  Immutable:
    sequences are tuples, mappings read-only.
    """

    __slots__ = ("ordered", "p", "full", "lattice", "bounds", "codes", "_position", "moves", "degree_masks",
                 "_cubes", "_precedence", "__dict__")

    def __init__(self, ordered, lattice=None):
        ordered = tuple(ordered)
        columns = list(zip(*ordered))
        bounds = tuple(map(min, columns)), tuple(map(max, columns))
        lattice = lattice or LatticeCode([high - min(low, 0) + 3 for low, high in zip(*bounds)])
        codes, strides = tuple(lattice.encode(ordered)), lattice.strides
        for name, value in (("ordered", ordered), ("p", len(ordered[0])), ("full", (1 << len(ordered)) - 1),
                            ("lattice", lattice), ("bounds", bounds), ("codes", codes), ("_cubes", {0: ([0], [])}),
                            ("_precedence", {}), ("_position", {code: k for k, code in enumerate(codes)}),
                            ("moves", tuple(tuple((j, rise - down) for j, rise in enumerate(strides) if j != i)
                                            for i, down in enumerate(strides))),
                            ("degree_masks", MappingProxyType(threshold_masks(list(map(sum, ordered)))))):
            object.__setattr__(self, name, value)

    @cached_property
    def _exchange(self) -> list:
        """Per point, the union of its exchange failure masks once found;
        ``_gp`` likewise for the generalized-polymatroid conditions."""
        return [None] * len(self.ordered)

    _gp = cached_property(_exchange.func)

    @cached_property
    def masks(self) -> tuple:
        """Per coordinate, the ``threshold_masks`` of its values."""
        return tuple(MappingProxyType(threshold_masks(column)) for column in zip(*self.ordered))

    @cached_property
    def up(self) -> tuple:
        """up[i][j]: the points v with v + e_i - e_j in the set; up[i][i]:
        those with v + e_i in it."""
        up = [[0] * self.p for _ in range(self.p)]
        strides, position = self.lattice.strides, self._position
        for k, code in enumerate(self.codes):
            for j, moves in enumerate(self.moves):
                if code + strides[j] in position:
                    up[j][j] |= 1 << k
                for i, move in moves:  # move = code(v - e_j + e_i) - code(v)
                    if code + move in position:
                        up[i][j] |= 1 << k
        return tuple(map(tuple, up))

    @cached_property
    def above(self) -> tuple:
        """above[i][c]: the mask of the points with q_i >= c, for c over the
        lattice's span of coordinate i, filled down from the top (a value no
        point has takes the next one's mask), so a truncation at b inside
        the span is one AND.  A row is as long as the span: walks that are
        O(region) already read it, per-point questions the sparse ``masks``;
        a span beyond ``sys.maxsize`` is refused with a ``ValueError``."""
        full, rows = self.full, []
        for i, (masks, span) in enumerate(zip(self.masks, self.lattice.spans), 1):
            if span > sys.maxsize:
                raise ValueError("coordinate %d spans %d lattice values, more than a list can hold" % (i, span))
            row, mask = [0] * span, 0
            for c in reversed(range(span)):
                if c in masks:
                    mask = full & ~masks[c][0]
                row[c] = mask
            rows.append(tuple(row))
        return tuple(rows)

    def _exchange_failures(self, k):
        """``(failing, 0)`` of the exchange property at u = ordered[k]: v
        fails at coordinate i when v_i < u_i and v_j <= u_j for every j with
        u - e_i + e_j in the set.  While every such move with u_j below the
        set's greatest j-th value is present, a failing v has v_j <= u_j for
        every j != i, so it lies below u, at a lower degree; as
        ``m_convex_failure`` asks within one degree, ``failing[i]`` is then 0.
        Only past a missing move are the ``masks`` read."""
        u, code = self.ordered[k], self.codes[k]
        position, (least, greatest) = self._position, self.bounds
        failing = []
        for i, moves in enumerate(self.moves):
            bad = 0
            if u[i] > least[i]:
                for j, move in moves:
                    if code + move not in position and u[j] < greatest[j]:
                        masks = self.masks
                        bad = masks[i][u[i]][0]
                        for j, move in moves:
                            if code + move in position:
                                bad &= ~masks[j][u[j]][1]
                        break
            failing.append(bad)
        return failing, 0

    def _gp_failures(self, k):
        """``(failing, rest)`` of the generalized-polymatroid conditions at
        u = ordered[k]: v fails at coordinate i when v_i < u_i and no
        exchange of condition (1) holds, and after every i when it has lower
        degree and no exchange of condition (2) holds."""
        u, code = self.ordered[k], self.codes[k]
        masks, position, up = self.masks, self._position, self.up
        lower = self.degree_masks[sum(u)][0]
        drops = [code - s in position for s in self.lattice.strides]
        failing = []
        for i, moves in enumerate(self.moves):
            rescued = lower & up[i][i] if drops[i] else 0
            for j, move in moves:
                if code + move in position:
                    rescued |= masks[j][u[j]][1] & up[i][j]
            failing.append(masks[i][u[i]][0] & ~rescued)
        rescued = 0
        for j in range(self.p):
            if drops[j]:
                rescued |= masks[j][u[j]][0] & up[j][j]
        return failing, lower & ~rescued

    def _first_witness(self, mask, failures, unions):
        """The first (u, v, i) in (u, v, i) loop order over the points under
        ``mask``, or None.  ``failures(k)`` is (failing, rest) for u =
        ordered[k]: ``failing[i]`` masks the v failing at 0-based coordinate
        i, ``rest`` those failing after every i (i = None).  ``unions[k]``
        caches their union; the lists are built again for the u reported."""
        ordered = self.ordered
        for k in range(len(ordered)) if mask == self.full else _bits(mask):
            if unions[k] is None:
                unions[k] = reduce(or_, *failures(k))
            union = unions[k] & mask
            if union:
                low = union & -union
                i = next((i + 1 for i, bad in enumerate(failures(k)[0]) if bad & low), None)
                return ordered[k], ordered[low.bit_length() - 1], i
        return None

    def m_convex_failure(self, mask=None):
        """The first (u, v, i) in list order at which the points under
        ``mask`` (all by default) fail homogeneity, reported as
        (first point, v, None), or the exchange property; None if they are
        M-convex.  Past the homogeneity test that is None at once when every
        point's failure union is cached as 0, as a polymatroid's constructor
        leaves it: ``_first_witness`` would AND those zeros with ``mask``."""
        mask = self.full if mask is None else mask
        first = (mask & -mask).bit_length() - 1
        below, above = self.degree_masks[sum(self.ordered[first])]
        other = mask & (below | above)
        if other:
            return self.ordered[first], self.ordered[(other & -other).bit_length() - 1], None
        unions = self._exchange
        if unions.count(0) == len(unions):
            return None
        return self._first_witness(mask, self._exchange_failures, unions)

    def gp_failure(self, mask=None):
        """The first (u, v, i) in list order at which the points under
        ``mask`` (all by default) fail the generalized-polymatroid
        conditions, a condition (2) failure reported with i = None after
        every i; None if there is none.  (1): whenever u_i > v_i, some j
        with u_j < v_j has u - e_i + e_j and v + e_i - e_j in the set, or
        |u| > |v| and u - e_i, v + e_i are in it.  (2): whenever |u| > |v|,
        some j with u_j > v_j has u - e_j and v + e_j in the set."""
        return self._first_witness(self.full if mask is None else mask, self._gp_failures, self._gp)

    @cached_property
    def _live(self) -> tuple:
        """The moves (l, j, code(u - e_l + e_j) - code(u)) that join two points."""
        keys = self._position.keys()
        return tuple((ell, j, move) for ell, moves in enumerate(self.moves) for j, move in moves
                     if not keys.isdisjoint(map(move.__add__, self.codes)))

    def precedence(self, order) -> tuple:
        """(l, move) for each live move with l before j in ``order``, built
        once per permutation."""
        perm = order.permutation
        moves = self._precedence.get(perm)
        if moves is None:
            moves = self._precedence[perm] = tuple(
                (ell, move) for ell, j, move in self._live if perm.index(ell + 1) < perm.index(j + 1))
        return moves

    def stalactites(self, order, mask=None) -> list:
        """(k, D) for each point u = ordered[k] under ``mask`` (all by
        default), in list order, D the direction mask of St(u; V), V the
        points under ``mask`` before u in the ``LexOrder`` ``order``.  A
        w = u - e_l + e_j differs from u only at l, where it is smaller, and
        at j, where it is larger, so w comes before u exactly when l comes
        before j in ``order``: bit l is set when a move of
        ``precedence(order)`` leads from u to a code under ``mask``, one set
        test, and no visiting sequence is needed."""
        codes, moves = self.codes, self.precedence(order)
        if mask is None:
            positions, members = range(len(codes)), self._position
        else:
            positions = _bits(mask)
            members = set(map(codes.__getitem__, positions))
        out = []
        for k in positions:
            code, directions = codes[k], 0
            for ell, move in moves:
                if code + move in members:
                    directions |= 1 << ell
            out.append((k, directions))
        return out

    def cube_codes(self, stalactites) -> dict:
        """The signed counts of the cubes (k, D) of ``stalactites``, keyed by
        code: each member n of their union maps to (-1)^(d - |n|) times the
        number of cubes containing it, d the apexes' degree.  The cube at u =
        ordered[k] along the mask D is code(u) plus the offsets -code(e_J), J
        within D; as |J| = |u| - |n|, each parity of |J| is counted into a
        dict by one C pass of ``collections._count_elements`` (``Counter``'s
        loop), the odd one signed once and skipped when every D is 0.  The
        counts are a sum over the cubes, so they do not depend on the cubes'
        sequence.  For ``stalactites`` a member's entry u_l - 1 is a
        neighbour's, so members lie in [min, max], where codes are distinct:
        counts by code are counts by point.  Cost: one C addition per
        member, ``_cube`` once per D."""
        even, odd, codes = [], [], self.codes
        for k, directions in stalactites:
            pair = self._cube(directions)
            even.append(map(codes[k].__add__, pair[0]))
            if directions:
                odd.append(map(codes[k].__add__, pair[1]))
        terms = {}
        _count_elements(terms, chain.from_iterable(even))
        if odd:
            counts = {}
            _count_elements(counts, chain.from_iterable(odd))
            terms.update(zip(counts, map(neg, counts.values())))
        return terms

    def _cube(self, directions):
        """The (even |J|, odd |J|) lists of offsets -code(e_J), J within the mask
        ``directions``, built on first use from the mask without its top bit."""
        pair = self._cubes.get(directions)
        if pair is None:
            top = directions.bit_length() - 1
            even, odd = self._cube(directions ^ 1 << top)
            step = self.lattice.strides[top]
            pair = self._cubes[directions] = even + [c - step for c in odd], odd + [c - step for c in even]
        return pair


def not_m_convex(witness) -> NotMConvex:
    """The ``NotMConvex`` error for an ``is_m_convex`` witness."""
    u, v, i = witness
    if i is None:
        return NotMConvex("not homogeneous: |%s| != |%s|" % (u, v), witness)
    return NotMConvex("exchange fails for u=%s, v=%s at coordinate %d" % (u, v, i), witness)


def is_m_convex(points):
    """Check homogeneity plus the exchange property: ``(True, None)``, or
    ``(False, (u, v, i))``, the first failure that
    ``ExchangeIndex.m_convex_failure`` finds over the sorted points."""
    witness = ExchangeIndex(sorted(point_set(points))).m_convex_failure()
    return witness is None, witness


class Polymatroid(Immutable):
    """A finite homogeneous M-convex set of lattice points in N^p.  The
    constructor validates all invariants: nonempty, equal lengths,
    nonnegative, p >= 1, then homogeneous and M-convex on P's
    ``exchange_index``, which keeps what the check filled.  Instances are
    immutable, hashable, and compare by point set, ignoring the memo store.
    Iteration reads the index's sorted points."""

    __slots__ = ("p", "points", "rank", "_memo", "__weakref__")

    def __init__(self, points):
        pts = nonnegative_set(points)
        p = len(next(iter(pts)))
        if not p:
            raise DimensionMismatch("points have length 0, expected at least 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "rank", sum(next(iter(pts))))
        object.__setattr__(self, "_memo", {})
        witness = exchange_index(self).m_convex_failure()
        if witness is not None:
            raise not_m_convex(witness)

    @property
    def cage(self) -> tuple:
        """Componentwise maximum over the points (the tightest cage)."""
        return tuple(map(max, zip(*self.points)))

    def __eq__(self, other):
        if not isinstance(other, Polymatroid):
            return NotImplemented
        return self.points == other.points

    def __hash__(self):
        return hash((self.p, self.points))

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(exchange_index(self).ordered)

    def __contains__(self, q):
        return tuple(q) in self.points

    def __repr__(self):
        return "Polymatroid(%s)" % (list(self),)


def _subset_sums(weights) -> list:
    """Mask-indexed subset sums: entry m sums ``weights[i]`` over the bits i of m."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def memo(fn):
    """Hold ``fn(P, *args)`` in the memo store of the polymatroid ``P``: one
    value per instance and arguments, freed with the instance.  No stored
    value refers to its instance, so reference counting alone frees both."""

    @wraps(fn)
    def memoized(P, *args):
        key = (fn, args)
        value = P._memo.get(key)
        return P._memo.setdefault(key, fn(P, *args)) if value is None else value

    return memoized


@memo
def lattice_code(P: Polymatroid) -> LatticeCode:
    """The one code of P's lattice points, spans cage_i + 2: its box [0,
    cage + 1] holds the region, its stalactite members and every q + e_i,
    and a q - e_i off the box has digit i at cage_i + 1, which no point has."""
    return LatticeCode([c + 2 for c in P.cage])


@memo
def exchange_index(P: Polymatroid) -> ExchangeIndex:
    """The ``ExchangeIndex`` of the sorted base points under ``lattice_code(P)``,
    shared by the stalactites of every lex order and truncation of ``P``."""
    return ExchangeIndex(sorted(P.points), lattice_code(P))


@memo
def rank_from_points(P: Polymatroid) -> RankFunction:
    """Rank function of a polymatroid, rk(I) = max over points of the I-sum:
    the columnwise maximum of the points' subset-sum tables, O(|B| 2^p),
    with the singleton ranks as the cage."""
    if P.p > MAX_GROUND_SET:
        raise DimensionMismatch("rank tables beyond %d coordinates are not supported" % MAX_GROUND_SET)
    values = [0] * (1 << P.p)
    for q in P.points:
        values = list(map(max, values, _subset_sums(q)))
    return RankFunction(P.p, values, tuple(values[1 << i] for i in range(P.p)))


def points_from_rank(rk: RankFunction) -> Polymatroid:
    """All lattice points with every subset-sum within rank and full-sum equal
    to the rank of the ground set (the top-degree lattice points), grown by
    ``_extensions``."""
    members = []
    _extensions((), rk.values, list(map(sub, repeat(rk.rank), reversed(rk.values))), rk.rank, members)
    if not members:
        raise InternalInvariantFailure("valid rank function produced no base points")
    return Polymatroid(members)


def _extensions(prefix, upper, lower, rest, out):
    """Append to ``out``, in lex order, the top-degree points extending
    ``prefix`` within the projection bounds rk(E) - rk(E - S) <= x(S) <= rk(S),
    S within the fixed coordinates (Fujishige), which all those points meet.

    ``upper[r]`` and ``lower[r]``, r a subset of the free coordinates with
    bit 0 the next one, are the least rk(m | r) - x(m) and the greatest
    rk(E) - rk(E - (m | r)) - x(m) over the subsets m of the fixed ones.  So
    the next coordinate lies in [max(0, lower[1]), upper[1]], and fixing it
    to c halves both tables: min(upper[0::2], upper[1::2] - c) and
    max(lower[0::2], lower[1::2] - c), one comprehension each, with no call
    per entry.  The last coordinate is
    ``rest``, the rank less the prefix's degree, and is only bound-checked.
    With N_j nodes at depth j the walk costs O(sum of N_j 2^(p - j)); on a
    polymatroid no prefix dead-ends.  At ``rest`` 0 only all zeros can
    extend, so one O(2^free) test ends the walk: down the zero path each
    depth checks lower[r] <= 0 <= upper[r] for the r whose top is the
    coordinate it fixes, every r != 0 in all.  r = 0 adds nothing: lower[0]
    <= 0, and upper[0] < 0 only if rk({}) < 0, when lower[all free] > 0.
    """
    if not rest:
        if max(lower) <= 0 <= min(upper):
            out.append(prefix + (0,) * (len(upper).bit_length() - 1))
        return
    lo, hi = max(0, lower[1]), upper[1]
    if len(upper) == 2:
        if lo <= rest <= hi:
            out.append(prefix + (rest,))
        return
    upper_without, upper_with, lower_without, lower_with = upper[0::2], upper[1::2], lower[0::2], lower[1::2]
    for c in range(lo, hi + 1):
        _extensions(prefix + (c,), [a if a < b - c else b - c for a, b in zip(upper_without, upper_with)],
                    [a if a > b - c else b - c for a, b in zip(lower_without, lower_with)], rest - c, out)
