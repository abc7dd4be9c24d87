"""The four polynomial routes, the Mobius machinery, and the Snapper forms."""

import itertools
import tracemalloc

import pytest

from cavepoly import (
    DimensionMismatch,
    LexOrder,
    MultiPoly,
    NotComparable,
    Polymatroid,
    box_polynomial,
    box_summands,
    cave_polynomial,
    core,
    expand_binomial,
    independence_points,
    is_cave,
    mobius_interval,
    mobius_polynomial,
    mobius_table,
    named_family,
    snapper_eur_larson,
    snapper_from_cave,
    stalactite_counts,
    stalactite_decomposition,
    stalactite_polynomial,
    verify_instance,
)
from conftest import instance_mix
from oracles import neighbors, stalactite

# t2^3 + t1*t2^2 - t2^2 + t1^2*t2 - t1*t2, the shared value of all four routes
GOLDEN = {(0, 3): 1, (1, 2): 1, (0, 2): -1, (2, 1): 1, (1, 1): -1}

GOLDEN_MOBIUS = {
    (0, 3): 1, (1, 2): 1, (2, 1): 1,
    (0, 2): -1, (1, 1): -1,
    (2, 0): 0, (0, 1): 0, (1, 0): 0, (0, 0): 0,
}

UNIT = Polymatroid([(1, 0), (0, 1)])
ORIGIN = Polymatroid([(0,)])


def dominates(a, b):
    return all(x >= y for x, y in zip(a, b))


def naive_mobius(P):
    """Oracle: the three-case recurrence evaluated by a direct quadratic scan."""
    region = sorted(independence_points(P).points, key=sum, reverse=True)
    mu = {}
    for n in region:
        if n in P.points:
            mu[n] = 1
        else:
            mu[n] = 1 - sum(v for m, v in mu.items() if dominates(m, n) and m != n)
    return mu


def brute_interval_mobius(m, n):
    """Oracle: mu(m, n) by the raw interval recurrence over the box [m, n]."""
    cells = sorted(itertools.product(*(range(a, b + 1) for a, b in zip(m, n))), key=sum)
    mu = {}
    for a in cells:
        if a == m:
            mu[a] = 1
        else:
            mu[a] = -sum(v for b, v in mu.items() if dominates(a, b) and b != a)
    return mu[n]


# -------------------------------------------------------------------- ordering

def test_lex_order_identity_matches_worked_example(running):
    order = LexOrder.identity(2)
    assert sorted(running.points, key=order.key) == [(0, 3), (1, 2), (2, 1)]


def test_lex_order_permutation_reprioritizes(running):
    order = LexOrder((2, 1))  # compare coordinate 2 first
    assert sorted(running.points, key=order.key) == [(2, 1), (1, 2), (0, 3)]


def test_lex_order_rejects_non_permutations():
    # sorted((2.0, 1.0)) == [1, 2]: a test blind to type accepts the floats,
    # and every later use of the order raises a bare TypeError.
    for perm in ((1, 1), (0, 1), (2.0, 1.0), (1, 2.0), (True, 2), (1.0,)):
        with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.%d$" % len(perm)):
            LexOrder(perm)


def test_an_order_that_is_not_a_lex_order_is_refused_by_type(running):
    # A bare permutation used to reach ``order.p`` or ``order.permutation``
    # and fail there with an AttributeError.
    calls = [lambda order, route=route: route(running, order)
             for route in (stalactite_polynomial, stalactite_counts, stalactite_decomposition)]
    # is_cave before condition (1) reads the order: on a cave set, and on a
    # set whose tops are not M-convex.
    calls += [lambda order, C=C: is_cave(C, order) for C in (set(stalactite_counts(running)), {(0, 2), (2, 0)})]
    for order, name in (((2, 1), "tuple"), ([2, 1], "list"), ("21", "str")):
        for call in calls:
            with pytest.raises(TypeError, match=r"^order must be a LexOrder, got %s$" % name):
                call(order)


# ------------------------------------------------------------------- neighbors

def test_neighbors_of_middle_point(running):
    assert neighbors(running, (1, 2)) == {(1, 2, (0, 3)), (2, 1, (2, 1))}


def test_neighbors_of_extreme_point(running):
    assert neighbors(running, (0, 3)) == {(2, 1, (1, 2))}


def test_neighbors_in_singleton():
    assert neighbors(Polymatroid([(4, 1)]), (4, 1)) == frozenset()


# ------------------------------------------------------------------ stalactites

def test_stalactites_of_worked_example(running):
    st1 = stalactite((0, 3), set(), running)
    assert st1.members == {(0, 3)} and st1.directions == frozenset()
    st2 = stalactite((1, 2), {(0, 3)}, running)
    assert st2.members == {(1, 2), (0, 2)} and st2.directions == {1}
    st3 = stalactite((2, 1), {(0, 3), (1, 2)}, running)
    assert st3.members == {(2, 1), (1, 1)} and st3.directions == {1}


def test_stalactite_member_count_is_power_of_two():
    for P in instance_mix(8, seed=14):
        for st in stalactite_decomposition(P):
            assert len(st.members) == 1 << len(st.directions)
            assert all(st.apex[ell - 1] >= 1 for ell in st.directions)


def test_decomposition_running(running):
    decomp = stalactite_decomposition(running)
    assert [st.apex for st in decomp] == [(0, 3), (1, 2), (2, 1)]
    assert [sorted(st.members) for st in decomp] == [
        [(0, 3)], [(0, 2), (1, 2)], [(1, 1), (2, 1)]]


def test_decomposition_small_cases():
    assert [st.members for st in stalactite_decomposition(Polymatroid([(7,)]))] == [frozenset({(7,)})]
    decomp = stalactite_decomposition(UNIT)
    assert [sorted(st.members) for st in decomp] == [[(0, 1)], [(0, 0), (1, 0)]]


def test_counts(running):
    assert stalactite_counts(running) == {n: 1 for n in GOLDEN}
    assert stalactite_counts(Polymatroid([(5,)])) == {(5,): 1}
    assert stalactite_counts(UNIT) == {(0, 1): 1, (1, 0): 1, (0, 0): 1}


def test_stalactite_route_memory_is_linear_in_the_bases():
    # (14; [4]x7) has 8135 bases.  Whole-set neighbour masks, p per base,
    # peaked at 40 MB (tracemalloc, Python 3.11); directions found from the
    # order's precedence peak at about 8.5 MB.
    P = named_family("uniform", r=14, m=(4,) * 7)
    tracemalloc.start()
    try:
        stalactite_polynomial(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak


def test_counts_decompose_once_per_order_and_return_a_new_dict(monkeypatch):
    calls = []
    stalactites = core.ExchangeIndex.stalactites

    def counted(index, order, mask=None):
        calls.append(tuple(sorted(index.ordered, key=order.key)))
        return stalactites(index, order, mask)

    monkeypatch.setattr(core.ExchangeIndex, "stalactites", counted)
    P = Polymatroid([(0, 3), (1, 2), (2, 1)])
    reverse = LexOrder((2, 1))
    counts = stalactite_counts(P)
    counts[(0, 0)] = 7
    del counts[(0, 3)]
    assert stalactite_counts(P) == stalactite_counts(P, LexOrder.identity(2)) == {n: 1 for n in GOLDEN}
    assert stalactite_counts(P, reverse) == stalactite_counts(P, reverse) == {n: 1 for n in GOLDEN}
    assert stalactite_counts(P) is not stalactite_counts(P)
    assert calls == [((0, 3), (1, 2), (2, 1)), ((2, 1), (1, 2), (0, 3))]


def test_counts_support_inside_independence():
    for P in instance_mix(10, seed=41):
        region = independence_points(P).points
        assert set(stalactite_counts(P)) <= region


# ------------------------------------------------------------- the four routes

def test_cave_polynomial_golden(running):
    assert cave_polynomial(running) == MultiPoly(2, GOLDEN)


def test_cave_polynomial_trivial_cases():
    assert cave_polynomial(ORIGIN) == MultiPoly(1, {(0,): 1})
    # hand expansion: (1 - t1^{-1}) t1 + t2 = t1 + t2 - 1
    assert cave_polynomial(UNIT) == MultiPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})


def test_stalactite_polynomial_golden(running):
    assert stalactite_polynomial(running) == MultiPoly(2, GOLDEN)
    assert stalactite_polynomial(ORIGIN) == MultiPoly(1, {(0,): 1})
    assert stalactite_polynomial(UNIT) == MultiPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})


def test_box_polynomial_golden(running):
    assert box_polynomial(running) == MultiPoly(2, GOLDEN)
    assert box_polynomial(ORIGIN) == MultiPoly(1, {(0,): 1})
    # p=1, {(2)}: (t^2 - t) + (t - 1) + 1 = t^2
    assert box_polynomial(Polymatroid([(2,)])) == MultiPoly(1, {(2,): 1})


def test_box_summands_trace_the_nine_products(running):
    expected = {
        (0, 3): {(0, 3): 1, (0, 2): -1},
        (1, 2): {(1, 2): 1, (1, 1): -1, (0, 2): -1, (0, 1): 1},
        (2, 1): {(2, 1): 1, (2, 0): -1, (1, 1): -1, (1, 0): 1},
        (0, 2): {(0, 2): 1, (0, 1): -1},
        (1, 1): {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1},
        (2, 0): {(2, 0): 1, (1, 0): -1},
        (0, 1): {(0, 1): 1, (0, 0): -1},
        (1, 0): {(1, 0): 1, (0, 0): -1},
        (0, 0): {(0, 0): 1},
    }
    summands = box_summands(running)
    assert set(summands) == set(expected)
    for n, terms in expected.items():
        assert summands[n] == MultiPoly(2, terms), n


def test_mobius_polynomial_golden(running):
    assert mobius_polynomial(running) == MultiPoly(2, GOLDEN)
    assert mobius_polynomial(ORIGIN) == MultiPoly(1, {(0,): 1})
    assert mobius_polynomial(UNIT) == MultiPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): -1})


def test_four_way_equality_on_generated_instances():
    for P in instance_mix(36, seed=1000, ps=(1, 2, 3, 4)):
        cave = cave_polynomial(P)
        assert stalactite_polynomial(P) == cave
        assert box_polynomial(P) == cave
        assert mobius_polynomial(P) == cave


def test_stalactite_polynomial_is_order_invariant():
    for P in instance_mix(18, seed=88, ps=(2, 3)):
        base = stalactite_polynomial(P)
        for perm in itertools.permutations(range(1, P.p + 1)):
            assert stalactite_polynomial(P, LexOrder(perm)) == base


def test_cave_support_matches_stalactite_union():
    for P in instance_mix(15, seed=17):
        union = set()
        for st in stalactite_decomposition(P):
            union |= st.members
        assert set(cave_polynomial(P).terms) == union


def test_cave_is_cancellation_free():
    for P in instance_mix(15, seed=5150):
        for e, c in cave_polynomial(P).terms.items():
            expected_sign = -1 if (P.rank - sum(e)) % 2 else 1
            assert c * expected_sign > 0


def test_cave_coefficient_sum_is_one():
    for P in instance_mix(20, seed=60, ps=(1, 2, 3, 4)):
        assert cave_polynomial(P).evaluate((1,) * P.p) == 1


# --------------------------------------------------------------------- Mobius

def test_mobius_interval_closed_form():
    assert mobius_interval((1, 2), (1, 2)) == 1
    assert mobius_interval((0, 1), (1, 2)) == 1    # two unit steps
    assert mobius_interval((0, 2), (2, 2)) == 0    # a step of size two
    assert mobius_interval((1, 1), (1, 2)) == -1
    with pytest.raises(NotComparable):
        mobius_interval((2, 0), (1, 2))
    with pytest.raises(DimensionMismatch):
        mobius_interval((1,), (1, 2))


class _Int(int):
    """An int subclass: accepted as an entry, but not an exact int."""


# (m, n, value or (exception type, message)), as mobius_interval answered
# before it held its last exact upper endpoint.
INTERVAL_REFUSALS = [
    ((0, 0), (1.0, 1), (ValueError, "lattice point coordinates must be integers, got 1.0")),  # float
    ((0.0, 0), (1, 1), (ValueError, "lattice point coordinates must be integers, got 0.0")),
    ((0, 0.5), (1, "x"), (ValueError, "lattice point coordinates must be integers, got 0.5")),
    ((0, False), (1, True), 1),  # bool
    ((0, 0), (True, 2), 0),
    ((0, _Int(0)), (1, 1), 1),  # int subclass
    ((0, 0), (_Int(1), _Int(1)), 1),
    (("a", 0), (1, 1), (ValueError, "lattice point coordinates must be integers, got 'a'")),  # str
    ((0, 0), "ab", (ValueError, "lattice point coordinates must be integers, got 'a'")),
    ((0, 0), 5, (TypeError, "'int' object is not iterable")),
    ([0, 1], (1, 1), -1),  # list
    ((0, 1), [1, 2], 1),
    ((0, 1), (1, 1, 1), (DimensionMismatch, "interval endpoints differ in length")),  # length mismatch
    ((0, 1, 0), [1, 1], (DimensionMismatch, "interval endpoints differ in length")),
    ((2, 0), (0, 3), (NotComparable, "(2, 0) is not componentwise <= (0, 3)")),  # a negative step before a step > 1
    ((0, 0), (3, 1), 0),
]


def test_mobius_interval_refusals_match_the_recorded_table():
    for m, n, expected in INTERVAL_REFUSALS:
        previous = [(0,)]
        if type(n) is tuple and {*map(type, n)} <= {int}:
            previous.append(n)  # then n is the upper endpoint held as exact
        for q in previous:
            assert mobius_interval(q, q) == 1
            if isinstance(expected, int):
                assert mobius_interval(m, n) == expected, (m, n)
            else:
                with pytest.raises(expected[0]) as exc:
                    mobius_interval(m, n)
                assert type(exc.value) is expected[0] and str(exc.value) == expected[1], (m, n)


def test_mobius_table_golden(running):
    table = mobius_table(running)
    assert dict(table.items()) == GOLDEN_MOBIUS
    assert table[(9, 9)] == 0  # outside the region
    assert table[(3, 0)] == 0


def test_mobius_table_size_identity_and_repr(running):
    table = mobius_table(running)
    assert len(table) == len(GOLDEN_MOBIUS)
    assert table == mobius_table(Polymatroid([(2, 1), (1, 2), (0, 3)]))
    assert table != GOLDEN_MOBIUS and table.__eq__(GOLDEN_MOBIUS) is NotImplemented
    assert repr(table) == "MobiusTable(p=2, rank=3, 9 points)"


def test_mobius_table_base_points_are_one():
    for P in instance_mix(10, seed=2):
        table = mobius_table(P)
        for b in P.points:
            assert table[b] == 1


def test_mobius_table_matches_naive_recurrence():
    for P in instance_mix(20, seed=123, ps=(1, 2, 3, 4)):
        assert dict(mobius_table(P).items()) == naive_mobius(P)


def test_mobius_table_sign_pattern():
    for P in instance_mix(12, seed=321):
        for n, v in mobius_table(P).items():
            if v:
                assert v == (-1 if (P.rank - sum(n)) % 2 else 1) * abs(v)


def test_closed_form_equals_brute_interval_recurrence():
    for P in instance_mix(12, seed=404):
        region = sorted(independence_points(P).points)
        for m in region:
            for n in region:
                if dominates(n, m):
                    assert mobius_interval(m, n) == brute_interval_mobius(m, n), (m, n)


def test_mobius_equals_interval_sum():
    # mu(n) must agree with the sum of closed-form interval values over the
    # region above n.
    for P in instance_mix(10, seed=777):
        region = independence_points(P).points
        table = mobius_table(P)
        for n in region:
            total = sum(mobius_interval(n, u) for u in region if dominates(u, n))
            assert table[n] == total


def test_signed_counts_equal_mobius():
    for P in instance_mix(24, seed=31, ps=(1, 2, 3, 4)):
        counts = stalactite_counts(P)
        table = mobius_table(P)
        for n in independence_points(P).points:
            signed = counts.get(n, 0) * (-1 if (P.rank - sum(n)) % 2 else 1)
            assert signed == table[n]


def test_truncation_preserves_signed_counts():
    from cavepoly import truncate
    for P in instance_mix(10, seed=901):
        stal_p = stalactite_polynomial(P).terms
        for n in independence_points(P).points:
            sub = truncate(P, n)
            stal_sub = stalactite_polynomial(sub).terms
            for m in independence_points(sub).points:
                if dominates(m, n):
                    assert stal_sub.get(m, 0) == stal_p.get(m, 0), (n, m)


# -------------------------------------------------------------------- Snapper

def test_snapper_from_cave_golden(running):
    snapper = snapper_from_cave(running)
    assert snapper.shift == 0
    assert snapper.terms == GOLDEN
    assert snapper.evaluate((0, 0)) == 1


def test_snapper_trivial():
    assert snapper_from_cave(ORIGIN).terms == {(0,): 1}
    assert snapper_eur_larson(ORIGIN).terms == {(0,): 1}
    assert snapper_eur_larson(ORIGIN).evaluate((0,)) == 1


def test_eur_larson_sum_is_over_independence_points(running):
    snapper = snapper_eur_larson(running)
    assert snapper.shift == -1
    assert set(snapper.terms) == independence_points(running).points
    assert all(c == 1 for c in snapper.terms.values())
    assert snapper.evaluate((0, 0)) == 1  # C(n-1, n) = 0 kills every n != 0


def test_snapper_routes_agree_exactly():
    for P in instance_mix(18, seed=555, ps=(1, 2, 3)):
        assert expand_binomial(snapper_from_cave(P)) == expand_binomial(snapper_eur_larson(P))


def test_snapper_routes_agree_at_sample_points(running):
    a = snapper_from_cave(running)
    b = snapper_eur_larson(running)
    for t in itertools.product(range(0, 4), repeat=2):
        assert a.evaluate(t) == b.evaluate(t)


def test_memoised_rank_function_and_mobius_table_cannot_be_rebound():
    """Rebinding or deleting any slot of the one ``RankFunction`` or
    ``MobiusTable`` in P's memo store raises, and later reads see the
    values held before."""
    P = Polymatroid([(0, 3), (1, 2), (2, 1)])
    for get, junk in ((core.rank_from_points, (0, 0, 0, 0)), (mobius_table, {})):
        held = get(P)
        before = {name: getattr(held, name) for name in type(held).__slots__}
        for name in before:
            with pytest.raises(AttributeError, match="%s is immutable" % type(held).__name__):
                setattr(held, name, junk)
            with pytest.raises(AttributeError, match="%s is immutable" % type(held).__name__):
                delattr(held, name)
        assert get(P) is held
        assert {name: getattr(get(P), name) for name in before} == before
    assert verify_instance(P).passed


def test_memoised_lattice_code_cannot_be_rebound():
    """Rebinding or deleting ``spans`` or ``strides`` of P's one
    ``LatticeCode`` raises, and every check still passes afterwards."""
    P = Polymatroid([(0, 3), (1, 2), (2, 1)])
    held = core.lattice_code(P)
    for name in ("spans", "strides"):
        with pytest.raises(AttributeError, match="LatticeCode is immutable"):
            setattr(held, name, (1, 1))
        with pytest.raises(AttributeError, match="LatticeCode is immutable"):
            delattr(held, name)
    assert core.lattice_code(P) is held and (held.spans, held.strides) == ((4, 5), (1, 4))
    assert verify_instance(P).passed


def test_cached_results_are_read_only():
    P = Polymatroid([(0, 4), (1, 3), (2, 2)])
    routes = (cave_polynomial, stalactite_polynomial, box_polynomial, mobius_polynomial,
              snapper_from_cave, lambda Q: expand_binomial(snapper_eur_larson(Q)))
    before = [dict(route(P).terms) for route in routes]
    table_before = dict(mobius_table(P).values)
    for route in routes:
        terms = route(P).terms
        with pytest.raises(TypeError):
            terms[(0, 0)] = 7
        with pytest.raises(AttributeError):
            terms.clear()
    with pytest.raises(TypeError):
        mobius_table(P).values[(0, 0)] = 7
    assert [dict(route(P).terms) for route in routes] == before
    assert dict(mobius_table(P).values) == table_before
    assert cave_polynomial(P).terms == {(a, b + 1): c for (a, b), c in GOLDEN.items()}  # t2 * golden
