"""Brute-force reference implementations kept as test oracles.

These are the library's original enumerators, exchange checks and
expansions.  The library now uses output-sensitive versions (one lex-order
walk of the independence region over the base points' threshold masks,
bit-parallel exchange masks, indexed stalactite directions, changes
of basis one coordinate at a time, local submodularity, base points
enumerated inside the projection bounds, subset-sum tables, truncation
lemmas over the parent region, compared by one disagreement mask per
kept set, one sparse Mobius pass over the region,
stalactite directions from the order's precedence, not neighbour masks,
integer lattice codes in the changes of basis, the Mobius table, the cave
route and the stalactite counts, a ``str.find`` loop for set bits, halving
bound tables in the base-point walk, built by list comprehensions, sliced
and packed guard-bit axiom checks, one flat key per term for the canonical
order, local axiom checks on the lattice path, one cube expansion per
distinct decomposition in the lex-order check, the cave predicate's
truncations at the first value of each run of equal masks, canonical
strings joined from fragment tables, one C counting pass per parity of the
cube offsets, per-coordinate factor tables in ``evaluate``); the
differential tests require both to return identical results and identical
failure witnesses.  A few set-level helpers that the library no longer
needs live here too, as the tests' readers of its kernels.
"""

import functools
import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate

from cavepoly.algorithms import (
    LexOrder,
    MobiusTable,
    Stalactite,
    _hanging_cube,
    mobius_interval,
    stalactite_counts,
    stalactite_polynomial,
)
from cavepoly.core import (
    ExchangeIndex,
    Polymatroid,
    RankFunction,
    _bits,
    as_point,
    exchange_index,
    lattice_code,
    mask_to_subset,
    not_m_convex,
    point_set,
    rank_from_points,
    threshold_masks,
    validate_rank_function,
)
from cavepoly.errors import (
    AxiomViolation,
    DimensionMismatch,
    InternalInvariantFailure,
    NotComparable,
    NotMConvex,
)
from cavepoly.genverify import _uniform_values
from cavepoly.geometry import CaveReport, independence_points, truncate
from cavepoly.polyalg import BinomialBasisPoly, MultiPoly, RationalPoly, canonical_order


def independence_points_box_filter(P) -> frozenset:
    """All n in N^p with every subset-sum within rank: walks the box bounded
    by the singleton ranks and filters by all 2^p subset constraints."""
    rk = rank_from_points(P)
    p = P.p
    index_sets = [[i for i in range(p) if mask >> i & 1] for mask in range(1 << p)]
    members = []
    for n in itertools.product(*(range(rk.values[1 << i] + 1) for i in range(p))):
        if all(sum(n[i] for i in index_sets[mask]) <= rk.values[mask] for mask in range(1, 1 << p)):
            members.append(n)
    return frozenset(members)


def independence_points_down_closure(P) -> frozenset:
    """The down-closure of the base points, one degree at a time: each level
    lowers one nonzero coordinate of each point of the level above, so a
    point is made once per nonzero coordinate of each point above it."""
    level = P.points
    members = set(level)
    while level:
        level = {n[:i] + (c - 1,) + n[i + 1:] for n in level for i, c in enumerate(n) if c}
        members |= level
    return frozenset(members)


def is_m_convex_pairwise(points):
    """Homogeneity plus the exchange property, by the (u, v, i) triple loop."""
    pts = point_set(points)
    ordered = sorted(pts)
    degree = sum(ordered[0])
    for q in ordered[1:]:
        if sum(q) != degree:
            return False, (ordered[0], q, None)
    p = len(ordered[0])
    for u in ordered:
        for v in ordered:
            for i in range(p):
                if u[i] <= v[i]:
                    continue
                ok = False
                for j in range(p):
                    if u[j] < v[j]:
                        w = list(u)
                        w[i] -= 1
                        w[j] += 1
                        if tuple(w) in pts:
                            ok = True
                            break
                if not ok:
                    return False, (u, v, i + 1)
    return True, None


def is_generalized_polymatroid_pairwise(points):
    """The two exchange conditions, by the (u, v, i) triple loop."""
    pts = point_set(points)
    ordered = sorted(pts)
    p = len(ordered[0])

    def shifted(base, dec, inc):
        w = list(base)
        w[dec] -= 1
        w[inc] += 1
        return tuple(w)

    def bumped(base, coord, delta):
        w = list(base)
        w[coord] += delta
        return tuple(w)

    for u in ordered:
        for v in ordered:
            du, dv = sum(u), sum(v)
            for i in range(p):
                if u[i] <= v[i]:
                    continue
                ok = False
                for j in range(p):
                    if u[j] < v[j] and shifted(u, i, j) in pts and shifted(v, j, i) in pts:
                        ok = True
                        break
                if not ok and du > dv:
                    ok = bumped(u, i, -1) in pts and bumped(v, i, +1) in pts
                if not ok:
                    return False, (u, v, i + 1)
            if du > dv:
                ok = False
                for j in range(p):
                    if u[j] > v[j] and bumped(u, j, -1) in pts and bumped(v, j, +1) in pts:
                        ok = True
                        break
                if not ok:
                    return False, (u, v, None)
    return True, None


def homogenize(points) -> frozenset:
    """Pad each point with a slack coordinate N - |n|, N the maximum degree.
    A set is a generalized polymatroid exactly when the result is M-convex."""
    pts = point_set(points)
    top = max(sum(q) for q in pts)
    return frozenset(q + (top - sum(q),) for q in pts)


def top_elements(A) -> frozenset:
    """The members of maximal coordinate sum."""
    pts = point_set(A)
    top = max(sum(q) for q in pts)
    return frozenset(q for q in pts if sum(q) == top)


@functools.lru_cache(maxsize=4)
def neighbour_masks(index) -> tuple:
    """neighbours[k][l]: the mask of the points u - e_l + e_j (j != l) of
    ``index``, u = ordered[k].  Each neighbour pair u, w = u - e_l + e_j is
    found once, by the move with l < j: then u = w - e_j + e_l."""
    get, codes = index._position.get, index.codes
    rows = [[0] * index.p for _ in codes]
    for ell, moves in enumerate(index.moves):
        for j, move in moves:
            if j > ell:
                for k, at in enumerate(map(get, map(move.__add__, codes))):
                    if at is not None:
                        rows[k][ell] |= 1 << at
                        rows[at][j] |= 1 << k
    return tuple(map(tuple, rows))


def stalactites_visiting(index, visit) -> list:
    """(k, D) for each position k of ``visit`` in turn: the direction mask D
    of the stalactite with apex u = ordered[k] against the points V visited
    before it, bit l set when some u - e_l + e_j lies in V: one AND of V's
    mask with each of u's p neighbour masks."""
    placed, out = 0, []
    for k in visit:
        directions = 0
        for ell, row in enumerate(neighbour_masks(index)[k]):
            if placed & row:
                directions |= 1 << ell
        out.append((k, directions))
        placed |= 1 << k
    return out


def stalactites_in_order(index, order, mask=None) -> list:
    """``ExchangeIndex.stalactites(order, mask)`` by the greedy definition:
    ``stalactites_visiting`` the points under ``mask`` (all by default) in
    ascending ``order``, its pairs put back in list order."""
    keys = list(map(order.key, index.ordered))
    return sorted(stalactites_visiting(index, sorted(range(len(keys)) if mask is None else _bits(mask),
                                                     key=keys.__getitem__)))


def neighbors(P, u) -> frozenset:
    """``neighbors_scan``'s triples read from ``neighbour_masks`` of the base
    point u in P's ``exchange_index``."""
    index = exchange_index(P)
    k = index.ordered.index(u)
    return frozenset((ell + 1, [a > b for a, b in zip(w, u)].index(True) + 1, w)
                     for ell, mask in enumerate(neighbour_masks(index)[k])
                     for w in map(index.ordered.__getitem__, _bits(mask)))


def stalactite(u, V, P) -> Stalactite:
    """St(u; V) for base points: the last of P's ``stalactites_visiting`` V,
    then u."""
    index = exchange_index(P)
    *_, (k, directions) = stalactites_visiting(index, [index.ordered.index(w) for w in [*V, u]])
    return _hanging_cube(index.ordered[k], directions)


def neighbors_scan(P, u) -> frozenset:
    """All (l, j, w) with w = u - e_l + e_j a base point, l != j (1-based),
    by trying every move on a copy of u."""
    u = as_point(u)
    if u not in P.points:
        raise ValueError("%s is not a base point" % (u,))
    found = set()
    for ell in range(P.p):
        if u[ell] == 0:
            continue
        for j in range(P.p):
            if j == ell:
                continue
            w = list(u)
            w[ell] -= 1
            w[j] += 1
            w = tuple(w)
            if w in P.points:
                found.add((ell + 1, j + 1, w))
    return frozenset(found)


def stalactite_scan(u, V, P) -> Stalactite:
    """St(u; V), its directions found by comparing u with every w in V
    coordinate by coordinate, and its members grown one direction at a
    time."""
    u = as_point(u)
    if u not in P.points:
        raise ValueError("%s is not a base point" % (u,))
    directions = set()
    for w in V:
        w = as_point(w)
        if w not in P.points:
            raise ValueError("%s is not a base point" % (w,))
        down = [i for i in range(P.p) if w[i] == u[i] - 1]
        up = [i for i in range(P.p) if w[i] == u[i] + 1]
        same = sum(1 for i in range(P.p) if w[i] == u[i])
        if len(down) == 1 and len(up) == 1 and same == P.p - 2:
            directions.add(down[0] + 1)
    for ell in directions:
        if u[ell - 1] < 1:
            raise InternalInvariantFailure("direction %d leaves N^p at apex %s" % (ell, u))
    members = {u}
    for ell in sorted(directions):
        members |= {m[:ell - 1] + (m[ell - 1] - 1,) + m[ell:] for m in members}
    return Stalactite(u, frozenset(directions), frozenset(members))


def stalactite_decomposition_prefix(P, order=None) -> tuple:
    """The i-th stalactite is St(a_i; {a_1, ..., a_{i-1}}), each found by
    scanning the whole prefix."""
    order = order or LexOrder.identity(P.p)
    ordered = sorted(P.points, key=order.key)
    return tuple(stalactite_scan(apex, ordered[:i], P) for i, apex in enumerate(ordered))


def poly_product(a, b) -> MultiPoly:
    """The product of two ``MultiPoly`` values, term by term."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return MultiPoly(a.p, out)


def ordinary(q) -> MultiPoly:
    """``q``, refused if a transient negative exponent survived into it."""
    if q.has_negative_exponent():
        raise InternalInvariantFailure("negative exponent in a finished polynomial")
    return q


def cave_polynomial_products(P) -> MultiPoly:
    """The cave formula expanded as products of ``MultiPoly`` factors: one
    monomial per base point, times 1 - t_i^{-1} for every i < p with a
    neighbour u - e_i + e_j, j > i, each product a new polynomial."""
    p = P.p
    acc = {}
    for u in sorted(P.points):
        term = MultiPoly(p, {u: 1})
        for i in range(1, p):  # the formula's product runs i = 1..p-1
            has_neighbor = False
            for j in range(i + 1, p + 1):
                w = list(u)
                w[i - 1] -= 1
                w[j - 1] += 1
                if tuple(w) in P.points:
                    has_neighbor = True
                    break
            if has_neighbor:
                inv = [0] * p
                inv[i - 1] = -1
                term = poly_product(term, MultiPoly(p, {(0,) * p: 1, tuple(inv): -1}))
        for e, c in term.terms.items():
            acc[e] = acc.get(e, 0) + c
    return ordinary(MultiPoly(p, acc))


def stalactite_polynomial_prefix(P, order=None) -> MultiPoly:
    """Signed stalactite counts of the prefix-scan decomposition."""
    terms = {}
    for st in stalactite_decomposition_prefix(P, order):
        for m in st.members:
            terms[m] = terms.get(m, 0) + (-1 if (P.rank - sum(m)) % 2 else 1)
    return MultiPoly(P.p, terms)


def stalactite_terms_counter(index, order, mask=None) -> dict:
    """``ExchangeIndex.cube_codes`` of ``stalactites(order, mask)`` counted
    as tuples: one ``Counter`` over the members of every stalactite, signed
    by the first apex's degree."""
    ordered, pairs = index.ordered, list(index.stalactites(order, mask))
    cubes = (_hanging_cube(ordered[k], directions).members for k, directions in pairs)
    counts = Counter(itertools.chain.from_iterable(cubes))
    degree = sum(ordered[pairs[0][0]])
    return {n: -c if (degree - sum(n)) % 2 else c for n, c in counts.items()}


def cube_codes_counter(index, stalactites) -> dict:
    """``ExchangeIndex.cube_codes`` by two ``Counter``s, one per parity of
    the cube offsets, both built even when no cube has an odd offset; the
    even counts are copied into a dict and the odd ones merged in negated."""
    even, odd, codes = [], [], index.codes
    for k, directions in stalactites:
        pair = index._cube(directions)
        even.append(map(codes[k].__add__, pair[0]))
        odd.append(map(codes[k].__add__, pair[1]))
    terms = dict(Counter(itertools.chain.from_iterable(even)))
    odd = Counter(itertools.chain.from_iterable(odd))
    terms.update(zip(odd, map(operator.neg, odd.values())))
    return terms


def truncation_mask(index, b) -> int:
    """The mask of the points of ``index`` that are >= ``b``: the AND of
    ``index.above[i][b_i]``, and for a b_i below 0, where ``above`` has no
    entry, of the points with q_i >= b_i, found by a scan."""
    mask = index.full
    for i, c in enumerate(b):
        if c < 0:
            mask &= sum(1 << k for k, q in enumerate(index.ordered) if q[i] >= c)
        else:
            mask &= index.above[i][c]
    return mask


def truncation_failure_dense(index):
    """The cave predicate's condition 3 by the dense box walk: every b of
    [0, span) under ``index.above`` in ``itertools.product`` order, each
    coordinate's range left at the first value that keeps fewer than two
    points; ``index.gp_failure`` once per distinct truncation.  Returns
    None or ``{"at": b, "witness": w}`` for the first nonzero b that fails."""
    above = index.above

    def walk(prefix, mask):
        if len(prefix) == len(above):
            yield prefix, mask
            return
        for value, sel in enumerate(above[len(prefix)]):
            sub = mask & sel
            if not sub & (sub - 1):
                break
            yield from walk(prefix + (value,), sub)

    checked = {}
    for b, mask in walk((), -1):
        if not any(b):
            continue
        if mask not in checked:
            checked[mask] = index.gp_failure(mask)
        if checked[mask]:
            return {"at": b, "witness": checked[mask]}
    return None


def cave_condition_3_box_walk(pts, is_generalized):
    """The seed's cave-predicate condition 3: walk the whole bounding box and
    filter the set at every b.  Returns None or ``{"at": b, "witness": w}``."""
    pts = frozenset(pts)
    p = len(next(iter(pts)))
    bounds = [max(q[i] for q in pts) for i in range(p)]
    checked = {}
    for b in itertools.product(*(range(m + 1) for m in bounds)):
        if not any(b):
            continue
        trunc = frozenset(q for q in pts if all(x >= y for x, y in zip(q, b)))
        if len(trunc) <= 1:
            continue
        verdict = checked.get(trunc)
        if verdict is None:
            verdict = is_generalized(trunc)
            checked[trunc] = verdict
        ok, witness = verdict
        if not ok:
            return {"at": b, "witness": witness}
    return None


def is_cave_via_tops_polymatroid(C, order=None) -> CaveReport:
    """The cave predicate through a second ``Polymatroid`` built from the
    tops: its constructor judges condition 1 (M-convexity, re-checked
    pairwise when it first refuses a negative coordinate), its stalactite
    counts give the union of condition 2, and condition 3 is the box walk
    with the pairwise generalized-polymatroid check."""
    pts = point_set(C)
    p = len(next(iter(pts)))
    if order is None:
        order = LexOrder.identity(p)

    tops = top_elements(pts)
    try:
        top_poly = Polymatroid(tops)
    except NotMConvex as exc:
        return CaveReport(False, 1, exc.witness, order.permutation)
    except ValueError:
        # The constructor checks signs before M-convexity; condition (1)
        # is judged first all the same.
        ok, witness = is_m_convex_pairwise(tops)
        if not ok:
            return CaveReport(False, 1, witness, order.permutation)
        raise

    union = set(stalactite_counts(top_poly, order))
    if union != pts:
        missing = tuple(sorted(union - pts))
        extra = tuple(sorted(pts - union))
        return CaveReport(False, 2, {"missing": missing, "extra": extra}, order.permutation)

    failure = cave_condition_3_box_walk(pts, is_generalized_polymatroid_pairwise)
    if failure:
        return CaveReport(False, 3, failure, order.permutation)
    return CaveReport(True, None, None, order.permutation)


def mobius_interval_check_scan(P, closed_form=mobius_interval):
    """The seed's interval-Mobius check: the raw recurrence, summing over every
    point processed so far that ``a`` dominates."""

    def dominates(a, b):
        return all(x >= y for x, y in zip(a, b))

    region = sorted(independence_points(P).points, key=lambda n: (sum(n), n))
    for m in region:
        upper = [a for a in region if dominates(a, m)]
        table = {}
        for a in upper:
            if a == m:
                val = 1
            else:
                val = -sum(v for b, v in table.items() if dominates(a, b))
            table[a] = val
            if closed_form(m, a) != val:
                return False, "interval [%s, %s]: closed form %d, recurrence %d" % (
                    m, a, closed_form(m, a), val)
    return True, None


def mobius_interval_check_boxsum(P, closed_form=mobius_interval):
    """The interval-Mobius check that walked boxes: the raw recurrence keyed
    by code difference, each missing value summed over the codes of the box
    [0, a - m], with the pairs a >= m read from one ``ExchangeIndex`` over
    the region in (degree, lex) order under its default code."""
    region = sorted(independence_points(P).points, key=lambda n: (sum(n), n))
    index = ExchangeIndex(region)
    codes, strides = index.codes, index.lattice.strides
    raw = {}
    for m, code in zip(region, codes):
        above = _bits(truncation_mask(index, m))
        keys = list(map(operator.sub, map(codes.__getitem__, above), itertools.repeat(code)))
        recurrence = list(map(raw.get, keys))
        for t, key in enumerate(keys):
            if recurrence[t] is None:
                d = map(operator.sub, region[above[t]], m)
                box = itertools.product(*(range(0, (c + 1) * s, s) for c, s in zip(d, strides)))
                recurrence[t] = raw[key] = -sum(raw[b] for b in map(sum, box) if b != key) if key else 1
        points = list(map(region.__getitem__, above))
        closed = list(map(closed_form, itertools.repeat(m), points))
        if closed != recurrence:
            t = next(t for t, (c, r) in enumerate(zip(closed, recurrence)) if c != r)
            return False, "interval [%s, %s]: closed form %d, recurrence %d" % (
                m, points[t], closed[t], recurrence[t])
    return True, None


def mobius_interval_normalized(m, n) -> int:
    """The closed-form interval Mobius value with both endpoints normalised
    and scanned on every call, whatever their type."""
    m = as_point(m)
    n = as_point(n)
    if len(m) != len(n):
        raise DimensionMismatch("interval endpoints differ in length")
    diff = [b - a for a, b in zip(m, n)]
    if any(d < 0 for d in diff):
        raise NotComparable("%s is not componentwise <= %s" % (m, n))
    if any(d > 1 for d in diff):
        return 0
    return -1 if sum(diff) % 2 else 1


def in_independence_subset_sums(P, n) -> bool:
    """Membership in I(P) ∩ N^p by all 2^p subset-sum constraints."""
    n = as_point(n)
    if len(n) != P.p:
        raise DimensionMismatch("point has length %d, expected %d" % (len(n), P.p))
    if any(c < 0 for c in n):
        return False
    rk = rank_from_points(P)
    p = P.p
    for mask in range(1, 1 << p):
        if sum(n[i] for i in range(p) if mask >> i & 1) > rk.values[mask]:
            return False
    return True


def submodular_violations_all_pairs(p, dense) -> list:
    """Every pair of subsets breaking rk(A) + rk(B) >= rk(A | B) + rk(A & B),
    as ("submodular", (A, B)) entries, by the exhaustive O(4^p) pair loop."""
    violations = []
    for m1 in range(1 << p):
        for m2 in range(m1 + 1, 1 << p):
            if dense[m1] + dense[m2] < dense[m1 | m2] + dense[m1 & m2]:
                violations.append(("submodular", (mask_to_subset(m1), mask_to_subset(m2))))
    return violations


def sparse_terms_loop(cls, p, terms, **kw) -> dict:
    """The polynomial constructor's terms by the per-term loop alone: every
    key made a tuple and length-checked, every coefficient checked by the
    representation, equal keys merged and zero sums dropped."""
    coefficient = cls(p, None, **kw)._coefficient  # a bad p raises here, as in the constructor
    clean = {}
    for key, coeff in (terms or {}).items():
        key = tuple(key)
        if len(key) != p:
            raise DimensionMismatch("%s vector %s has length != %d" % (cls._vector, key, p))
        coeff = coefficient(key, coeff)
        if coeff != 0:
            clean[key] = clean.get(key, 0) + coeff
            if clean[key] == 0:
                del clean[key]
    return clean


def evaluate_per_term(q, t):
    """``q.evaluate(t)`` by one ``_factor`` call per nonzero entry of every
    term, multiplied into the term's coefficient in coordinate order."""
    t = tuple(t)
    if len(t) != q.p:
        raise DimensionMismatch("vector has length %d, expected %d" % (len(t), q.p))
    total = q._coefficient((), 0)
    for key, c in q.terms.items():
        for ti, k in zip(t, key):
            if k:
                c *= q._factor(ti, k)
        total += c
    return total


def binomial_fraction_coeffs(n, shift) -> list:
    """The Fraction coefficients, ascending degree, of C(t + n + shift, n)
    as a polynomial in t: the product of the factors (t + k + shift) / k,
    k = 1..n, multiplied in one at a time."""
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        constant, linear = Fraction(k + shift, k), Fraction(1, k)
        coeffs = [constant * a + linear * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def expand_binomial_per_term(b) -> RationalPoly:
    """Expand each term's whole product of binomial factors on its own, by
    ``binomial_fraction_coeffs`` per factor, and add the results as Fractions."""
    p = b.p
    out = {}
    for n, c in b.terms.items():
        acc = {(0,) * p: Fraction(c)}
        for i, ni in enumerate(n):
            if ni == 0:
                continue
            coeffs = binomial_fraction_coeffs(ni, b.shift)
            nxt = {}
            for exps, a in acc.items():
                for d, cd in enumerate(coeffs):
                    if cd == 0:
                        continue
                    key = exps[:i] + (exps[i] + d,) + exps[i + 1:]
                    nxt[key] = nxt.get(key, 0) + a * cd
            acc = nxt
        for exps, a in acc.items():
            out[exps] = out.get(exps, Fraction(0)) + a
    return RationalPoly(p, out)


def binomial_integer_coeffs(n, shift, scale) -> list:
    """The integer coefficients, ascending degree, of scale * C(t + n + shift,
    n) as a polynomial in t, for a scale that n! divides: scale // n! times
    the factors (t + k + shift), k = 1..n, multiplied in one at a time."""
    coeffs = [scale // math.factorial(n)]
    for k in range(1, n + 1):
        coeffs = [(k + shift) * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def expand_binomial_per_term_scaled(b) -> RationalPoly:
    """``expand_binomial_per_term`` in integers: coordinate i is scaled by
    N_i!, N_i its largest index, so that every factor is an integer
    polynomial by ``binomial_integer_coeffs``.  Each term's product is
    expanded on its own, exponent tuples grown one coordinate at a time; the
    sums stay integers over prod N_i!, and one Fraction per exponent is built
    at the end."""
    tops = [max(column) for column in zip(*b.terms)] or [0] * b.p
    out = {}
    for n, c in b.terms.items():
        acc = {(): c}
        for ni, top in zip(n, tops):
            coeffs = binomial_integer_coeffs(ni, b.shift, math.factorial(top))
            acc = {exps + (d,): a * cd for exps, a in acc.items() for d, cd in enumerate(coeffs) if cd}
        for exps, a in acc.items():
            out[exps] = out.get(exps, 0) + a
    denominator = math.prod(map(math.factorial, tops))
    return RationalPoly(b.p, {e: Fraction(v, denominator) for e, v in out.items()})


def points_from_rank_box_filter(rk):
    """All lattice points of the singleton-rank box with full-sum equal to the
    rank and every subset-sum within rank, by all 2^p subset constraints."""
    p = rk.p
    members = []
    index_sets = [[i for i in range(p) if mask >> i & 1] for mask in range(1 << p)]
    for n in itertools.product(*(range(rk.values[1 << i] + 1) for i in range(p))):
        if sum(n) != rk.rank:
            continue
        if all(sum(n[i] for i in index_sets[mask]) <= rk.values[mask] for mask in range(1 << p)):
            members.append(n)
    if not members:
        raise InternalInvariantFailure("valid rank function produced no base points")
    return Polymatroid(members)


def rank_from_points_subset_loop(P):
    """rk(I) = max over points of the I-sum, one generator per mask."""
    p = P.p
    pts = sorted(P.points)
    values = [0] * (1 << p)
    for mask in range(1, 1 << p):
        idx = [i for i in range(p) if mask >> i & 1]
        values[mask] = max(sum(q[i] for i in idx) for q in pts)
    return RankFunction(p, values, tuple(values[1 << i] for i in range(p)))


def lex_order_perms(p) -> list:
    """The permutations the lex-order check tries on p coordinates: all p!
    for p <= 4, else the identity, its reverse and eight shuffles seeded by
    p."""
    if p <= 4:
        return list(itertools.permutations(range(1, p + 1)))
    rng = random.Random(0x5EED ^ p)
    perms = [tuple(range(1, p + 1)), tuple(range(p, 0, -1))]
    for _ in range(8):
        perm = list(range(1, p + 1))
        rng.shuffle(perm)
        perms.append(tuple(perm))
    return perms


def lex_order_check_per_order(P):
    """The lex-order check that builds each order and decomposes and expands
    the base points under it on their own, comparing by code with the
    identity order's stalactite polynomial."""
    terms = stalactite_polynomial(P).terms
    base = dict(zip(lattice_code(P).encode(terms), terms.values()))
    index = exchange_index(P)
    for perm in lex_order_perms(P.p):
        if index.cube_codes(index.stalactites(LexOrder(perm))) != base:
            return False, "stalactite polynomial differs under order %s" % (perm,)
    return True, None


def truncation_lemmas_check_scan(P, stalactite=stalactite_polynomial):
    """The seed's truncation-lemma check: the truncation, its stalactite
    polynomial and its region rebuilt at every independence point n, the
    region filtered by dominance over n."""

    def dominates(a, b):
        return all(x >= y for x, y in zip(a, b))

    stal_p = stalactite(P).terms
    for n in sorted(independence_points(P).points):
        sub = truncate(P, n)
        stal_sub = stalactite(sub).terms
        for m in independence_points(sub).points:
            if not dominates(m, n):
                continue
            if stal_sub.get(m, 0) != stal_p.get(m, 0):
                return False, "truncation at %s: coefficient at %s is %d, expected %d" % (
                    n, m, stal_sub.get(m, 0), stal_p.get(m, 0))
    return True, None


def truncation_lemmas_check_per_pair(P):
    """The truncation-lemma check that compares pair by pair: at each n, the
    kept set's counts (decomposed once per distinct kept set, all held to
    the end) and P's, listed over the region above n, the first differing
    m reported."""
    terms = stalactite_polynomial(P).terms
    stal_p = dict(zip(lattice_code(P).encode(terms), terms.values()))
    bases, region, identity = exchange_index(P), independence_points(P), LexOrder.identity(P.p)
    full, base_rows = (1 << len(region.ordered)) - 1, bases.above
    region_rows = [{x: full ^ below for x, (below, _) in threshold_masks(c).items()} for c in zip(*region.ordered)]
    truncations = {}
    for n in region.ordered:
        kept = functools.reduce(operator.and_, map(operator.getitem, base_rows, n))
        if kept not in truncations:
            if not kept:
                raise InternalInvariantFailure("%s is not in the independence region" % (n,))
            witness = bases.m_convex_failure(kept)
            if witness:
                raise InternalInvariantFailure(
                    "truncation at %s is not a polymatroid: %s" % (n, not_m_convex(witness)))
            truncations[kept] = bases.cube_codes(bases.stalactites(identity, kept))
        above = _bits(functools.reduce(operator.and_, map(operator.getitem, region_rows, n)))
        got, expected = (list(map(counts.get, map(region.codes.__getitem__, above), itertools.repeat(0)))
                         for counts in (truncations[kept], stal_p))
        if got != expected:
            t = next(t for t in range(len(got)) if got[t] != expected[t])
            return False, "truncation at %s: coefficient at %s is %d, expected %d" % (
                n, region.ordered[above[t]], got[t], expected[t])
    return True, None


def mobius_table_box_sweep(P) -> MobiusTable:
    """The recurrence level by level in decreasing coordinate sum, the sum
    over {m > n} aggregated by a suffix-sum sweep over the whole bounding
    box: O(rank * p * box)."""
    region = independence_points(P)
    p = P.p
    pts = region.points
    dims = [max(q[i] for q in pts) for i in range(p)]
    sizes = [d + 1 for d in dims]
    strides = [0] * p
    step = 1
    for i in range(p - 1, -1, -1):
        strides[i] = step
        step *= sizes[i]
    box = step

    def flat(n):
        return sum(c * s for c, s in zip(n, strides))

    levels = {}
    for n in pts:
        levels.setdefault(sum(n), []).append(n)

    acc = [0] * box  # Mobius values of all levels strictly above the current one
    values = {}
    for degree in range(P.rank, -1, -1):
        layer = levels.get(degree)
        if not layer:
            continue
        if degree == P.rank:
            for n in layer:
                values[n] = 1
                acc[flat(n)] = 1
            continue
        upper = list(acc)
        for axis in range(p):
            stride = strides[axis]
            block = stride * sizes[axis]
            for outer in range(0, box, block):
                for inner in range(outer, outer + stride):
                    for k in range(sizes[axis] - 2, -1, -1):
                        pos = inner + k * stride
                        upper[pos] += upper[pos + stride]
        for n in layer:
            mu = 1 - upper[flat(n)]
            values[n] = mu
            acc[flat(n)] = mu
    return MobiusTable(p, P.rank, values)


def bits_scan(mask) -> list:
    """Positions of the set bits of ``mask``: a walk over every character
    of its binary string."""
    return [k for k, c in enumerate(reversed(bin(mask))) if c == "1"]


def axiswise_slices(terms, rows) -> dict:
    """The change of basis one coordinate at a time on index tuples: every
    (term, row entry) builds a new key by slicing, and an entry outside
    [0, len(rows[i])) indexes its row as Python does (-1 is the last)."""
    for i, row in enumerate(rows):
        out = {}
        for key, v in terms.items():
            head, tail = key[:i], key[i + 1:]
            for d, c in row[key[i]]:
                k = head + (d,) + tail
                out[k] = out.get(k, 0) + v * c
        terms = {k: v for k, v in out.items() if v}
    return terms


def mobius_table_slices(P) -> MobiusTable:
    """The one-pass Mobius recurrence with ``partial`` keyed by points, each
    n + e_k built by slicing."""
    outside = (0,) * P.p
    partial = {}
    values = {}
    for n in sorted(independence_points(P).points, key=sum, reverse=True):
        above = [partial.get(n[:k] + (c + 1,) + n[k + 1:], outside)[k] for k, c in enumerate(n)]
        values[n] = mu = 1 - sum(above)
        partial[n] = tuple(accumulate(above, initial=mu))[1:]
    return MobiusTable(P.p, P.rank, values)


def cave_polynomial_slices(P) -> MultiPoly:
    """The cave formula over plain exponent dicts keyed by tuples: every move
    u - e_i + e_j and every e - e_i built by slicing."""
    p = P.p
    points = P.points
    acc = {}
    for u in sorted(points):
        term = {u: 1}
        for i in range(p - 1):
            head, down = u[:i], u[i] - 1
            if any(head + (down,) + u[i + 1:j] + (u[j] + 1,) + u[j + 1:] in points for j in range(i + 1, p)):
                term.update({e[:i] + (e[i] - 1,) + e[i + 1:]: -c for e, c in term.items()})
        for e, c in term.items():
            acc[e] = acc.get(e, 0) + c
    return ordinary(MultiPoly(p, acc))


def base_points_subset_sums(rk) -> list:
    """The top-degree points within the projection bounds, in lex order: at
    each depth the new coordinate's bounds are read off the 2^j subset sums
    of the prefix, and each child rebuilds the next 2^j sums."""
    values = rk.values
    lower = [rk.rank - v for v in reversed(values)]
    members = []

    def extend(prefix, sums):
        top = 1 << len(prefix)
        if top == len(values):
            if sums[-1] == values[-1]:
                members.append(prefix)
            return
        below = sums[:top]
        lo = max(0, max(map(operator.sub, lower[top:2 * top], below)))
        for c in range(lo, min(map(operator.sub, values[top:2 * top], below)) + 1):
            sums[top:2 * top] = [s + c for s in below]
            extend(prefix + (c,), sums)

    extend((), [0] * len(values))
    return members


def rank_axiom_violations_loops(p, dense, cage) -> list:
    """Every violated rank axiom with its witnesses: the empty set and the
    cage, then monotonicity over covering pairs (mask, then bit) and local
    submodularity (mask, then each pair of bits outside it)."""
    violations = []
    if dense[0] != 0:
        violations.append(("empty", ((),)))
    for i in range(p):
        if dense[1 << i] > cage[i]:
            violations.append(("cage", ((i + 1,),)))
    for mask in range(1 << p):
        for i in range(p):
            if not mask >> i & 1:
                bigger = mask | 1 << i
                if dense[mask] > dense[bigger]:
                    violations.append(("monotone", (mask_to_subset(mask), mask_to_subset(bigger))))
    for mask in range(1 << p):
        outside = [i for i in range(p) if not mask >> i & 1]
        for a, i in enumerate(outside):
            for j in outside[a + 1:]:
                mi, mj = mask | 1 << i, mask | 1 << j
                if dense[mi] + dense[mj] < dense[mi | mj] + dense[mask]:
                    violations.append(("submodular", (mask_to_subset(mi), mask_to_subset(mj))))
    return violations


def base_points_map_walk(rk) -> list:
    """The halving-bounds walk of ``core._extensions`` with each child's
    tables built by ``map(min, ...)`` and ``map(max, ...)`` over the even
    and odd halves: the members it would hand ``Polymatroid``, in order."""
    members = []

    def extend(prefix, upper, lower, rest):
        if not rest:
            if max(lower) <= 0 <= min(upper):
                members.append(prefix + (0,) * (len(upper).bit_length() - 1))
            return
        lo, hi = max(0, lower[1]), upper[1]
        if len(upper) == 2:
            if lo <= rest <= hi:
                members.append(prefix + (rest,))
            return
        upper_without, upper_with, lower_without, lower_with = upper[0::2], upper[1::2], lower[0::2], lower[1::2]
        for c in range(lo, hi + 1):
            extend(prefix + (c,), list(map(min, upper_without, map(operator.sub, upper_with, itertools.repeat(c)))),
                   list(map(max, lower_without, map(operator.sub, lower_with, itertools.repeat(c)))), rest - c)

    extend((), rk.values, [rk.rank - v for v in reversed(rk.values)], rk.rank)
    return members


def canonical_key(exps):
    """Sort key of the canonical term order: degree descending, then the
    sparse (variable, exponent) pair sequence descending."""
    return (-sum(exps), tuple((-i, -e) for i, e in enumerate(exps, 1) if e != 0))


def draw_lattice_path_validating(cfg, rng) -> RankFunction:
    """The lattice-path draw with a full ``validate_rank_function`` of every
    candidate table, one entry lowered by one."""
    p = cfg.p
    r = rng.randint(0, cfg.max_rank)
    m = [rng.randint(0, cfg.max_cage_entry) for _ in range(p)]
    values = _uniform_values(p, r, m)
    for _ in range(rng.randint(0, 2 << p)):
        mask = rng.randrange(1, 1 << p)
        if values[mask] == 0:
            continue
        cand = list(values)
        cand[mask] -= 1
        try:
            validate_rank_function(p, cand, [cand[1 << i] for i in range(p)])
        except AxiomViolation:
            continue
        values = cand
    return validate_rank_function(p, values, [values[1 << i] for i in range(p)])


def canonical_string_per_term(q) -> str:
    """The canonical string term by term from ``terms``: a sign and magnitude
    per coefficient (a ``Fraction`` for a ``RationalPoly``) and a ``%``
    format per nonzero exponent."""
    def monomial(exps):
        return "*".join("t%d" % i if e == 1 else "t%d^%d" % (i, e) for i, e in enumerate(exps, 1) if e)

    def binomial(n):
        return "*".join("C(t%d,%d)" % (i, ni) if ni + q.shift == 0 else "C(t%d+%d,%d)" % (i, ni + q.shift, ni)
                        for i, ni in enumerate(n, 1) if ni)

    render = binomial if isinstance(q, BinomialBasisPoly) else monomial
    pieces = []
    for key in canonical_order(q.terms):
        c = q.terms[key]
        sign, c = "-" if c < 0 else "+", abs(c)
        if isinstance(c, Fraction) and c.denominator != 1:
            mag = "%d/%d" % (c.numerator, c.denominator)
        else:
            mag = None if c == 1 else str(int(c))
        body = render(key)
        text = (mag or "1") if not body else body if mag is None else "%s*%s" % (mag, body)
        pieces.append((text if sign == "+" else "-" + text) if not pieces else "%s %s" % (sign, text))
    return " ".join(pieces) or "0"
