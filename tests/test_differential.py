"""The output-sensitive kernels against the brute-force oracles in oracles.py.

Every comparison demands identical results, and identical failure witnesses
where a check fails, on generated polymatroids and on random point sets
that are not M-convex and not generalized polymatroids.  The changes of
basis (binomial expansion, box route) must return identical ``terms``, and
base-point enumeration the same point set or the same error, also on rank
tables that are not polymatroid rank functions.
"""

import enum
import functools
import io
import itertools
import json
import math
import operator
import random
import re
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest

from cavepoly import (
    AxiomViolation,
    BinomialBasisPoly,
    CavepolyError,
    DimensionMismatch,
    GeneratorConfig,
    IndependenceSet,
    InternalInvariantFailure,
    MultiPoly,
    NotComparable,
    NotInIndependence,
    NotMConvex,
    Polymatroid,
    RankFunction,
    RationalPoly,
    algorithms,
    box_polynomial,
    box_summands,
    cave_polynomial,
    core,
    expand_binomial,
    genverify,
    geometry,
    independence_points,
    is_m_convex,
    named_family,
    polyalg,
    snapper_eur_larson,
    snapper_from_cave,
    stalactite_counts,
    stalactite_decomposition,
    stalactite_polynomial,
    validate_rank_function,
    verify_campaign,
    verify_instance,
)
from cavepoly.algorithms import LexOrder
from cavepoly.cli import run_command
from cavepoly.genverify import CHECKS
from conftest import instance_mix
from oracles import (
    axiswise_slices,
    base_points_map_walk,
    base_points_subset_sums,
    bits_scan,
    cave_condition_3_box_walk,
    cave_polynomial_products,
    cave_polynomial_slices,
    cube_codes_counter,
    draw_lattice_path_validating,
    expand_binomial_per_term,
    expand_binomial_per_term_scaled,
    homogenize,
    in_independence_subset_sums,
    independence_points_box_filter,
    independence_points_down_closure,
    is_generalized_polymatroid_pairwise,
    is_cave_via_tops_polymatroid,
    is_m_convex_pairwise,
    lex_order_check_per_order,
    lex_order_perms,
    mobius_interval_check_boxsum,
    mobius_interval_check_scan,
    mobius_interval_normalized,
    mobius_table_box_sweep,
    mobius_table_slices,
    neighbors,
    neighbors_scan,
    points_from_rank_box_filter,
    rank_axiom_violations_loops,
    rank_from_points_subset_loop,
    sparse_terms_loop,
    stalactite,
    stalactite_decomposition_prefix,
    stalactite_polynomial_prefix,
    stalactite_scan,
    stalactite_terms_counter,
    stalactites_in_order,
    submodular_violations_all_pairs,
    top_elements,
    truncation_failure_dense,
    truncation_lemmas_check_per_pair,
    truncation_lemmas_check_scan,
    truncation_mask,
)
from test_planted_faults import _drop_last_apex, _flipped_direction

GENERATED = instance_mix(120, seed=8_000, ps=(1, 2, 3, 4, 5), max_rank=6, max_cage_entry=4)
# Instances whose regions stay small enough for the quadratic oracles.
SMALL = [P for P in GENERATED if len(independence_points(P).points) <= 40]
# The uniform rows rk(S) = min(r, sum of m over S) of the benchmark ladder.
LADDER = [named_family("uniform", r=r, m=m)
          for r, m in ((6, (3,) * 4), (8, (4,) * 4), (10, (4,) * 5), (9, (3,) * 6), (8, (2,) * 7))]


def random_sets(seed, count):
    """Random small point sets: some homogeneous, some down-closed, some with
    negative coordinates; most are neither M-convex nor generalized
    polymatroids."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.randint(1, 4)
        low = rng.choice((0, 0, 0, -1))
        pts = {tuple(rng.randint(low, 3) for _ in range(p)) for _ in range(rng.randint(1, 10))}
        shape = rng.random()
        if shape < 0.35:
            degree = sum(rng.choice(sorted(pts)))
            pts = {q for q in pts if sum(q) == degree}
        elif shape < 0.6 and low == 0 and p <= 3:
            below = geometry.independence_points(Polymatroid([rng.choice(sorted(pts))])).points
            pts = set(below) - {rng.choice(sorted(below))} | pts
        yield pts


def test_independence_points_match_box_filter():
    for P in GENERATED:
        assert independence_points(P).points == independence_points_box_filter(P)


def test_region_walk_matches_both_region_oracles_and_the_lattice_code():
    ladder = [named_family("uniform", r=r, m=m)
              for r, m in ((8, (4,) * 4), (10, (4,) * 5), (9, (3,) * 6), (8, (2,) * 7), (12, (4,) * 6))]
    # The benchmark's wide shapes: p = 8..10, r = 2..3, cages in {1, 2}^p with p // 2 twos.
    wide_shapes = [named_family("uniform", r=r, m=tuple(2 if (i + shift) % p < p // 2 else 1 for i in range(p)))
                   for shift, (p, r) in enumerate(itertools.product((8, 9, 10), (2, 3)))]
    cases = [*instance_mix(60, seed=2_200, ps=(1, 2, 3, 4, 5, 6), max_rank=6, max_cage_entry=3),
             named_family("rank-zero", p=1), named_family("rank-zero", p=4),
             named_family("free", m=(3,)), named_family("free", m=(2, 0, 3, 1)),  # one base: a box
             named_family("running-example"), *ladder, *wide_shapes]
    wide = named_family("uniform", r=2, m=(2,) * 12)  # CI's p = 12 rank document: closure oracle only
    for P in cases + [wide]:
        region = independence_points(P)
        points, codes = region.ordered, region.codes
        assert list(points) == sorted(independence_points_down_closure(P)), P
        if P is not wide:
            assert set(points) == independence_points_box_filter(P), P
        assert list(codes) == core.lattice_code(P).encode(points), P
        assert tuple(region) == points


def test_is_m_convex_matches_pairwise_with_witness():
    verdicts = set()
    for pts in random_sets(1, 3000):
        result = is_m_convex(pts)
        assert result == is_m_convex_pairwise(pts), sorted(pts)
        verdicts.add(result[0])
    for P in GENERATED:
        assert is_m_convex(P.points) == is_m_convex_pairwise(P.points) == (True, None)
    assert verdicts == {True, False}


def test_not_m_convex_witness_matches_pairwise():
    raised = 0
    for pts in random_sets(2, 1500):
        if min(min(q) for q in pts) < 0:
            continue
        ok, witness = is_m_convex_pairwise(pts)
        if ok:
            assert Polymatroid(pts).points == pts
            continue
        with pytest.raises(NotMConvex) as exc:
            Polymatroid(pts)
        assert (exc.value.witness, str(exc.value)) == (witness, str(core.not_m_convex(witness)))
        raised += 1
    assert raised > 100


@pytest.mark.parametrize("points", [[(2, 0), (0, 2)], [(1, 0), (0, 2)], [(0, 2, 1), (2, 0, 1), (1, 1, 0)],
                                    [(0, 1, 1), (0, 2, 0), (1, 0, 1)]])
def test_constructor_refuses_as_is_m_convex_reports(points):
    ok, witness = is_m_convex(points)
    with pytest.raises(NotMConvex) as exc:
        Polymatroid(points)
    assert not ok and exc.value.witness == witness and str(exc.value) == str(core.not_m_convex(witness))


def recorded_indexes(monkeypatch) -> list:
    """Every ``ExchangeIndex`` built from here on, in order."""
    built = []
    init = core.ExchangeIndex.__init__

    def recording(index, *args, **kwargs):
        built.append(index)
        init(index, *args, **kwargs)

    monkeypatch.setattr(core.ExchangeIndex, "__init__", recording)
    return built


def test_polymatroid_builds_the_one_exchange_index_it_keeps(monkeypatch):
    def banned(points):
        raise AssertionError("the constructor called is_m_convex")

    built = recorded_indexes(monkeypatch)
    monkeypatch.setattr(core, "is_m_convex", banned)
    for points in [GENERATED[4].points, LADDER[1].points] + [P.points for P in GENERATED[:30]]:
        built.clear()
        P = Polymatroid(points)
        assert len(built) == 1
        index = core.exchange_index(P)
        assert index is built[0] and len(built) == 1
        assert index.ordered == tuple(sorted(points)) and tuple(P) == index.ordered
        assert all(type(union) is int for union in index._exchange), sorted(points)


def test_failure_caches_hold_one_int_per_filled_point():
    for pts in random_sets(4, 400):
        index = core.ExchangeIndex(sorted(pts))
        whole = index.m_convex_failure(), index.gp_failure()
        index.m_convex_failure(truncation_mask(index, index.ordered[-1]))
        for cache, witness in zip((index._exchange, index._gp), whole):
            assert {type(union) for union in cache} <= ({int} if witness is None else {int, type(None)}), sorted(pts)


def test_verify_instance_builds_two_exchange_indexes(monkeypatch):
    built = recorded_indexes(monkeypatch)
    P = Polymatroid(GENERATED[4].points)  # a fresh instance: an empty memo store
    assert verify_instance(P).passed
    # P's bases and the cave predicate's set; none over the independence region.
    assert [index.ordered for index in built] == [tuple(sorted(P.points)), tuple(sorted(cave_set(P)))]


def test_failure_caches_are_built_only_where_a_check_reads_them(monkeypatch):
    built = recorded_indexes(monkeypatch)
    P = Polymatroid(GENERATED[4].points)  # a fresh instance: an empty memo store
    assert verify_instance(P).passed
    bases = vars(core.exchange_index(P))
    assert built[0] is core.exchange_index(P) and "_gp" not in bases
    assert {type(union) for union in bases.get("_exchange", ())} <= {int, type(None)}


def test_exchange_check_reads_threshold_masks_only_past_a_missing_move(running):
    wide = [named_family("uniform", r=r, m=(2,) * (p // 2) + (1,) * (p - p // 2)) for p in (8, 9, 10) for r in (2, 3)]
    for P in LADDER + wide + [running]:
        assert "masks" not in vars(core.exchange_index(Polymatroid(P.points))), P
    points = [(0, 1, 1), (0, 2, 0), (1, 0, 1)]  # complete at coordinate 1, a move missing at coordinate 3
    index = core.ExchangeIndex(sorted(points))
    assert (False, index.m_convex_failure()) == is_m_convex_pairwise(points) == (False, ((1, 0, 1), (0, 2, 0), 3))
    assert "masks" in vars(index)


def details(P):
    """Each check's (name, passed, detail) of ``verify_instance(P)``."""
    return [(r.name, r.passed, r.detail) for r in verify_instance(P).results]


def test_independence_region_is_one_immutable_value_in_the_memo_store(running):
    for points in (running.points, LADDER[1].points):
        P = Polymatroid(points)  # a fresh instance: an empty memo store
        fresh = details(Polymatroid(points))
        assert verify_instance(P).passed
        region = independence_points(P)
        assert "points" not in vars(region)  # no check builds the frozenset
        assert [v for v in P._memo.values() if isinstance(v, IndependenceSet)] == [region]
        assert not any(isinstance(v, (frozenset, core.ExchangeIndex)) for v in P._memo.values()
                       if v is not core.exchange_index(P))
        for name in ("p", "ordered", "codes", "points"):
            with pytest.raises(AttributeError):
                setattr(region, name, ())
            with pytest.raises(AttributeError):
                delattr(region, name)
        for part in (region.ordered, region.codes):
            with pytest.raises(AttributeError):
                part.pop()
        assert details(P) == fresh
        assert region.points and "points" in vars(region)
        with pytest.raises(AttributeError):
            del region.points
        assert independence_points(P) is region and details(P) == fresh


# Every memoised builder whose result a check reads, and the other memoised values.
MEMOISED = tuple(dict.fromkeys(itertools.chain(*genverify.INPUTS.values(), (
    core.lattice_code, core.exchange_index, core.rank_from_points, independence_points))))
CONTAINERS = (list, tuple, set, frozenset, dict, MappingProxyType)
# The in-place edits a caller might make of a list, a dict or a set.
EDITS = (("reverse",), ("pop",), ("popitem",), ("add", 0), ("clear",))


def memoised_parts(P) -> list:
    """(build, path, part) for each public attribute of each ``MEMOISED``
    result, path (name,), and for each sequence or mapping reachable from
    it by index or key, path (name, key, ...)."""
    found = []

    def walk(build, path, part):
        found.append((build, path, part))
        if isinstance(part, (list, tuple, dict, MappingProxyType)):
            for key, item in part.items() if isinstance(part, (dict, MappingProxyType)) else enumerate(part):
                if isinstance(item, CONTAINERS):
                    walk(build, path + (key,), item)

    for build in MEMOISED:
        value = build(P)
        for name in dir(value):
            if not name.startswith("_"):
                walk(build, (name,), getattr(value, name))
    return found


def attempts(path, part):
    """(label, act) for each change a caller might try at ``path``: act(value)
    makes it on a ``MEMOISED`` result."""
    def at(value):
        part = getattr(value, path[0])
        for key in path[1:]:
            part = part[key]
        return part

    if len(path) == 1:
        yield "rebind", lambda value: setattr(value, path[0], ())
        yield "delete", lambda value: delattr(value, path[0])
    if isinstance(part, CONTAINERS):
        for name, *args in EDITS:
            yield name, lambda value, name=name, args=args: getattr(at(value), name)(*args)
        if part and not isinstance(part, (set, frozenset)):
            key = next(iter(part)) if isinstance(part, (dict, MappingProxyType)) else 0
            yield "setitem", lambda value: operator.setitem(at(value), key, 0)


def test_memoised_results_are_values(running):
    # After one verification, every attempt to change a memoised result or
    # any part of it in place raises at once; an attempt that did not would
    # have to leave the next verification as a fresh instance's.
    assert issubclass(core.ExchangeIndex, core.Immutable)
    for points in (running.points, LADDER[1].points):
        fresh = details(Polymatroid(points))
        P = Polymatroid(points)
        assert details(P) == fresh
        mutable, changed = [], []
        for build, path, part in memoised_parts(P):
            if isinstance(part, (list, set, dict)):
                mutable.append((build.__name__, path))
            for label, act in attempts(path, part):
                try:
                    act(build(P))
                except (AttributeError, TypeError, LookupError):
                    continue
                try:
                    after = details(P)
                except Exception as exc:  # a corrupted input may break a check outright
                    after = repr(exc)
                if after != fresh:
                    changed.append((build.__name__, path, label, after))
                P = Polymatroid(points)
                details(P)
        assert changed == [], changed[:3]
        assert mutable == []


def gp_verdict(points):
    """``is_generalized_polymatroid_pairwise``'s pair from the exchange index."""
    witness = core.ExchangeIndex(sorted(points)).gp_failure()
    return witness is None, witness


def test_is_generalized_polymatroid_matches_pairwise_with_witness():
    verdicts = set()
    for pts in random_sets(3, 3000):
        result = gp_verdict(pts)
        assert result == is_generalized_polymatroid_pairwise(pts), sorted(pts)
        assert result[0] == is_m_convex(homogenize(pts))[0]
        verdicts.add(result[0])
    for P in SMALL:
        region = independence_points(P).points
        assert gp_verdict(region) == is_generalized_polymatroid_pairwise(region)
    assert verdicts == {True, False}


def test_stalactite_decomposition_matches_prefix_scan():
    for P in GENERATED:
        perms = list(itertools.permutations(range(1, P.p + 1)))[:24]
        for perm in perms:
            order = LexOrder(perm)
            assert stalactite_decomposition(P, order) == stalactite_decomposition_prefix(P, order)


def test_stalactite_counts_match_prefix_scan_tally():
    for P in GENERATED:
        if P.p > 4:
            continue
        for perm in itertools.permutations(range(1, P.p + 1)):
            order = LexOrder(perm)
            tally = Counter(m for st in stalactite_decomposition_prefix(P, order) for m in st.members)
            assert stalactite_counts(P, order) == tally


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, CavepolyError) as exc:
        return type(exc), str(exc)


def test_stalactite_and_neighbors_match_scan_oracles():
    # ``neighbors`` and ``stalactite`` read P's exchange index, which holds
    # base points only, so every u and V here is drawn from the bases.
    rng = random.Random(17)
    for P in GENERATED:
        bases = sorted(P.points)
        for u in bases:
            assert neighbors(P, u) == neighbors_scan(P, u), (P, u)
        for _ in range(12):
            order = LexOrder(tuple(rng.sample(range(1, P.p + 1), P.p)))
            ordered = sorted(bases, key=order.key)
            V = ordered[:rng.randint(0, len(ordered))]
            if rng.random() < 0.5:
                V = rng.sample(bases, rng.randint(0, len(bases)))
            u = rng.choice(bases)
            assert stalactite(u, V, P) == stalactite_scan(u, V, P), (P, u, V)


def test_stalactites_match_greedy_visiting_oracle():
    # The precedence rule against the paper's greedy definition, the
    # neighbour masks of each apex ANDed with the points visited before it:
    # P's bases under every order of the lex-order check, under the identity
    # on each set of bases the truncation check keeps, and the cave set's
    # tops under every order.
    cases = truncations = 0
    for P in GENERATED + LADDER[:4]:
        index, orders, identity = core.exchange_index(P), genverify._lex_orders(P.p), LexOrder.identity(P.p)
        for order in orders:
            assert list(index.stalactites(order)) == stalactites_in_order(index, order), (P, order)
        for kept in {functools.reduce(operator.and_, map(operator.getitem, index.above, n))
                     for n in independence_points(P).ordered}:
            assert list(index.stalactites(identity, kept)) == stalactites_in_order(index, identity, kept)
            truncations += kept != index.full
        cave = core.ExchangeIndex(sorted(cave_set(P)))
        tops = cave.full & ~cave.degree_masks[P.rank][0]
        for order in orders:
            assert list(cave.stalactites(order, tops)) == stalactites_in_order(cave, order, tops), (P, order)
        cases += 2 * len(orders)
    assert cases > 2000 and truncations > 5000, (cases, truncations)


def test_mobius_table_matches_box_sweep():
    # Most generated instances have a zero cage entry, where a lattice code
    # without its margin would alias n + e_k with another point.
    assert sum(0 in P.cage for P in GENERATED) > 50
    for P in GENERATED + LADDER:
        table = algorithms.mobius_table(P)
        assert table == mobius_table_box_sweep(P) and table.rank == P.rank, P
        assert table == mobius_table_slices(P), P


def test_cave_polynomial_matches_product_oracle():
    for P in GENERATED + LADDER:
        assert cave_polynomial(P) == cave_polynomial_products(P), P
        # The coded route builds its terms in the same order as the tuple one.
        assert list(cave_polynomial(P).terms.items()) == list(cave_polynomial_slices(P).terms.items()), P


def test_cave_polynomial_reads_no_exchange_index(monkeypatch):
    instances = instance_mix(30, seed=8_500, ps=(2, 3, 4, 5), max_rank=6, max_cage_entry=4)

    def banned(*args):
        raise AssertionError("the cave route read the exchange index")

    for module in (core, algorithms):
        monkeypatch.setattr(module, "exchange_index", banned)
    monkeypatch.setattr(core, "ExchangeIndex", banned)
    for P in instances:
        assert cave_polynomial(P) == cave_polynomial_slices(P), P


def test_cave_polynomial_refuses_an_inverse_of_a_zero_entry(monkeypatch):
    # Without the margin of one, spans cage_i + 1, the move test on (0, 1, 0)
    # at i = 1 reads code(u) - s_1 + s_2 = code(u): a false neighbour whose
    # t_1^{-1} would drop the zero first entry.
    assert cave_polynomial(Polymatroid([(0, 1, 0)])).terms == {(0, 1, 0): 1}
    monkeypatch.setattr(algorithms, "lattice_code", lambda P: core.LatticeCode([c + 1 for c in P.cage]))
    with pytest.raises(InternalInvariantFailure, match=r"t_1\^-1 applied to \(0, 1, 0\), whose entry 1 is 0"):
        cave_polynomial(Polymatroid([(0, 1, 0)]))


def random_axiswise_inputs(seed, count):
    """(terms, rows) for ``axiswise_codes``: p = 1..4, row lengths 1..6, up to
    three (index, coefficient) pairs per row entry, all indices in range,
    and up to twelve keys with coefficients of both signs up to 10^30,
    zeros included."""
    rng = random.Random(seed)

    def coefficient():
        return rng.choice((0, 1, -1, rng.randint(-9, 9), rng.randint(-10**30, 10**30)))

    for _ in range(count):
        spans = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        rows = [[tuple((rng.randrange(span), coefficient()) for _ in range(rng.randint(0, 3)))
                 for _ in range(span)] for span in spans]
        terms = {tuple(map(rng.randrange, spans)): coefficient() for _ in range(rng.randint(0, 12))}
        yield terms, rows


def test_axiswise_matches_tuple_slicing_oracle():
    inputs = list(random_axiswise_inputs(5, 1500))
    for P in GENERATED + LADDER:  # the box route's rows on every region
        region = independence_points(P).points
        row = [((0, 1),)] + [((n, 1), (n - 1, -1)) for n in range(1, max(map(max, region)) + 1)]
        inputs.append(({n: 1 for n in region}, [row] * P.p))
    nonzero = 0
    for terms, rows in inputs:
        lattice = core.LatticeCode(map(len, rows))
        codes = polyalg.axiswise_codes(dict(zip(lattice.encode(terms), terms.values())), lattice, rows)
        result = dict(zip(lattice.decode(codes), codes.values()))
        assert list(result.items()) == list(axiswise_slices(terms, rows).items()), (terms, rows)
        nonzero += bool(result)
    assert 800 < nonzero < len(inputs) - 100


def test_bits_match_character_walk():
    rng = random.Random(12)
    masks = [0, 1] + [1 << k for k in (1, 7, 8, 63, 64, 65, 1000, 4095, 9999)]
    masks += [rng.getrandbits(rng.randint(1, 10_000)) for _ in range(200)]
    masks += [rng.getrandbits(10_000) & rng.getrandbits(10_000) & rng.getrandbits(10_000) for _ in range(50)]
    for mask in masks:
        assert core._bits(mask) == bits_scan(mask), mask


def test_stalactite_polynomial_matches_prefix_scan_under_every_order():
    orders = 0
    for P in GENERATED:
        if P.p > 4:
            continue
        for perm in itertools.permutations(range(1, P.p + 1)):
            order = LexOrder(perm)
            assert stalactite_polynomial(P, order) == stalactite_polynomial_prefix(P, order), (P, perm)
            orders += 1
    assert orders > 500


LEX_FAULTS = {"drop-last-apex": _drop_last_apex, "flipped-direction": _flipped_direction}
WIDER_P5 = instance_mix(9, seed=9_000, ps=(5,), max_rank=8, max_cage_entry=3)


@pytest.mark.parametrize("fault", [None, *LEX_FAULTS])
def test_lex_order_check_matches_per_order_oracle(fault, monkeypatch):
    if fault is not None:
        monkeypatch.setattr(core.ExchangeIndex, "stalactites", LEX_FAULTS[fault](core.ExchangeIndex.stalactites))
    failed = 0
    for P in GENERATED + WIDER_P5:
        # Fresh instances: each side builds its identity-order polynomial under the fault.
        result = CHECKS["lex-order-invariance"](Polymatroid(P.points))
        assert result == lex_order_check_per_order(Polymatroid(P.points)), sorted(P.points)
        failed += not result[0]
    assert failed > 10 if fault else failed == 0


def test_lex_order_check_expands_once_per_distinct_decomposition(monkeypatch):
    # The identity order's polynomial is the base, so the check decomposes
    # under the other orders only: once per distinct precedence, and it
    # expands once per distinct decomposition.
    expand, decompose = core.ExchangeIndex.cube_codes, core.ExchangeIndex.stalactites
    expanded, decomposed, orders = [], [], []

    def counting_expand(index, stalactites):
        stalactites = tuple(stalactites)
        expanded.append(stalactites)
        return expand(index, stalactites)

    def counting_decompose(index, order, mask=None):
        decomposed.append(index.precedence(order))
        return decompose(index, order, mask)

    shared = by_precedence = 0
    for P in GENERATED + WIDER_P5:
        index = core.exchange_index(P)
        stalactite_polynomial(P)  # the identity order's, expanded before counting
        others = [LexOrder(perm) for perm in lex_order_perms(P.p)[1:]]
        precedences = [index.precedence(order) for order in others]
        decompositions = {tuple(index.stalactites(order)) for order in others}
        expanded.clear()
        decomposed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(core.ExchangeIndex, "cube_codes", counting_expand)
            patch.setattr(core.ExchangeIndex, "stalactites", counting_decompose)
            assert CHECKS["lex-order-invariance"](P) == (True, None)
        assert decomposed == list(dict.fromkeys(precedences))
        assert len(expanded) == len(set(expanded)) and set(expanded) == decompositions
        shared += len(decompositions) < len(others)
        by_precedence += len(decomposed) < len(others)
    assert shared > 20 and by_precedence > 20, (shared, by_precedence)


def test_precedence_is_built_once_per_permutation_and_index(monkeypatch):
    # Each order's precedence is built on first use, by one read of the live
    # moves, and the same tuple is handed out after: across the lex-order
    # check, the truncation check and the cave predicate's is_cave, one
    # build per distinct permutation asked of an index.
    live, precedence = core.ExchangeIndex._live, core.ExchangeIndex.precedence
    indexes = {}  # id -> [index, builds, permutations asked]; holding the index keeps its id

    def entry(index):
        return indexes.setdefault(id(index), [index, 0, set()])

    def counting_live(index):
        entry(index)[1] += 1
        return live.__get__(index)

    def asking(index, order):
        entry(index)[2].add(order.permutation)
        return precedence(index, order)

    monkeypatch.setattr(core.ExchangeIndex, "_live", property(counting_live))
    monkeypatch.setattr(core.ExchangeIndex, "precedence", asking)
    names = ["lex-order-invariance", "truncation-lemmas", "cave-predicate"]
    for P in GENERATED[:60] + WIDER_P5:
        P = Polymatroid(P.points)
        assert verify_instance(P, checks=names).passed
        builds = sum(builds for _, builds, _ in indexes.values())
        assert verify_instance(P, checks=names).passed
        assert sum(builds for _, builds, _ in indexes.values()) - builds == 1  # the second is_cave's own index
        index = core.exchange_index(P)
        for perm in lex_order_perms(P.p):
            assert index.precedence(LexOrder(perm)) is index.precedence(LexOrder(perm))
    assert all(builds == len(asked) for _, builds, asked in indexes.values())
    assert sum(len(asked) > 1 for _, _, asked in indexes.values()) > 50


def test_mobius_interval_matches_normalized_form():
    region = sorted(independence_points(GENERATED[7]).points)
    pairs = [(m, n) for m in region for n in region]
    pairs += [
        ((True, 0), (1, 1)), ((0, False), (True, True)),  # bool entries are accepted
        ([0, 1], [1, 1]), ((0, 1), [1, 3]), ([2, 0], (1, 2)),  # lists
        ((0.0, 1), (1, 1)), ((0, 1), (1, 1.5)),  # float entries
        ((0, 0), (0, 0.0)), ((0, 0), (1, 1.0)), ((0, 0), (2, 2.0)),  # a float step equal to an int step
        ((), ()), ((), (1,)), ((1,), (1, 2)),  # empty and length mismatch
        ((2, 0), (1, 2)), ((0, 5), (1, 2)), ((-1, 0), (0, 1)), ((3,), (5,)),
        ((0, 0), (2, -1)), ((0, 0), (-1, 2)), ((1, 3), (0, 5)),  # a negative step and a step > 1
        ((0, 0, 0, 0, 0), (1, 1, 1, 0, 0)), ((1, 0, 2, 0, 3), (1, 1, 2, 1, 3)),  # unit intervals, p = 5
    ]
    level = enum.IntEnum("Level", "ONE TWO THREE")  # an int subclass
    pairs += [((level.ONE, 0), (level.TWO, 1)), ((0, level.ONE), (1, level.THREE)), ((level.TWO,), (level.ONE,))]
    vector = type("Vector", (tuple,), {})
    pairs += [(vector((0, 1)), (1, 1)), ((0, 1), vector((1, 3))), (vector((2, 0)), vector((1, 2)))]
    outcomes = set()
    for m, n in pairs:
        result = _outcome(algorithms.mobius_interval, m, n)
        assert result == _outcome(mobius_interval_normalized, m, n), (m, n)
        outcomes.add(result if isinstance(result, int) else result[0])
    assert outcomes == {1, -1, 0, ValueError, DimensionMismatch, NotComparable}


def test_mobius_interval_normalises_endpoints_that_do_not_subtract():
    # Entries that int subtraction refuses and endpoints without a length
    # take the normalising path, as the normalised form reads them.
    pairs = [(("a", 1), (1, 1)), ((0, 1), ("b", 2)), (("x",), (1, 2)), ((None, 0), (0.5, 1))]
    for m, n in pairs:
        assert _outcome(algorithms.mobius_interval, m, n) == _outcome(mobius_interval_normalized, m, n)
        assert _outcome(algorithms.mobius_interval, m, n)[0] is ValueError, (m, n)
    for m, n, kind in (((0, 1), (1, 1), int), ((2, 1), (1, 1), NotComparable), ((0,), (1, 2), DimensionMismatch)):
        outcome = _outcome(algorithms.mobius_interval, iter(m), iter(n))
        assert outcome == _outcome(mobius_interval_normalized, iter(m), iter(n))
        assert kind is int and outcome == -1 or outcome[0] is kind, (m, n)


def spread_value_sets(seed, count):
    """Random point sets whose coordinates take a few values each, spread
    over [-2, 14], so that the truncation masks stay equal over long runs."""
    rng = random.Random(seed)
    for _ in range(count):
        pools = [rng.sample(range(-2, 15), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        yield {tuple(map(rng.choice, pools)) for _ in range(rng.randint(2, 10))}


def condition_3_sets():
    return [*random_sets(6, 1500), *spread_value_sets(7, 3000)]


def test_cave_condition_3_visits_the_first_failing_b_of_the_dense_walk(monkeypatch):
    # A monotone predicate, as the real one is: per set, a random relation
    # on pairs of positions, a mask failing at its first related pair.  The
    # first failing b is then always a unit vector.
    related = set()
    monkeypatch.setattr(core.ExchangeIndex, "gp_failure", lambda index, mask=None: next(
        (pair for pair in itertools.combinations(core._bits(mask), 2) if pair in related), None))
    outcomes = Counter()
    for seed, pts in enumerate(condition_3_sets()):
        rng = random.Random(seed)
        related.clear()
        related.update(pair for pair in itertools.combinations(range(len(pts)), 2) if rng.random() < 0.15)
        index = core.ExchangeIndex(sorted(pts))
        failure = geometry._truncation_failure(index)
        assert failure == truncation_failure_dense(index), sorted(pts)
        if failure is not None:
            assert sorted(failure["at"]) == [0] * (index.p - 1) + [1], (sorted(pts), failure)
        outcomes[failure is None] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_cave_condition_3_matches_the_dense_walk():
    failures = 0
    for pts in condition_3_sets():
        expected = truncation_failure_dense(core.ExchangeIndex(sorted(pts)))
        assert geometry._truncation_failure(core.ExchangeIndex(sorted(pts))) == expected, sorted(pts)
        failures += expected is not None
    assert failures > 1000, failures


def test_cave_condition_3_failures_reach_the_unit_truncation_of_the_last_nonzero_coordinate():
    # The premise of ``_truncation_failure``, over every b of each box.
    failing = 0
    for pts in random_sets(6, 3000):
        index = core.ExchangeIndex(sorted(pts))
        for b in itertools.product(*(range(max(0, *col) + 1) for col in zip(*pts))):
            if any(b) and index.gp_failure(truncation_mask(index, b)):
                j = max(i for i, c in enumerate(b) if c)
                unit = tuple(int(i == j) for i in range(index.p))
                assert index.gp_failure(truncation_mask(index, unit)), (sorted(pts), b)
                failing += 1
    assert failing > 20_000, failing


def test_cave_condition_3_asks_at_most_p_questions(monkeypatch):
    gp_failure, masks = core.ExchangeIndex.gp_failure, []
    monkeypatch.setattr(core.ExchangeIndex, "gp_failure", lambda index, mask=None: (
        masks.append(mask), gp_failure(index, mask))[1])
    unions = [set().union(*(st.members for st in stalactite_decomposition(P))) for P in GENERATED]
    asked = Counter()
    for pts in [*condition_3_sets(), *unions]:
        masks.clear()
        index = core.ExchangeIndex(sorted(pts))
        geometry._truncation_failure(index)
        assert len(masks) <= index.p, sorted(pts)
        asked[len(masks) == index.p] += 1
    assert min(asked.values()) > 100, asked


def test_is_cave_reads_no_dense_row_on_huge_entries(monkeypatch):
    def banned(index):
        raise AssertionError("is_cave read a dense row of ExchangeIndex.above")

    monkeypatch.setattr(core.ExchangeIndex, "above", property(banned))
    N = 2**70
    for pts in ({(N, 0), (N - 1, 1), (N - 1, 0)}, {(N,)}):
        assert geometry.is_cave(pts) == geometry.CaveReport(True, None, None, tuple(range(1, len(min(pts)) + 1)))
    with pytest.raises(AssertionError, match="dense row"):
        independence_points(Polymatroid([(0, 1), (1, 0)]))


def test_cave_condition_3_matches_box_walk():
    failures = 0
    for pts in random_sets(4, 2500):
        expected = cave_condition_3_box_walk(pts, is_generalized_polymatroid_pairwise)
        assert geometry._truncation_failure(core.ExchangeIndex(sorted(pts))) == expected, sorted(pts)
        failures += expected is not None
    for P in SMALL:
        union = set().union(*(st.members for st in stalactite_decomposition(P)))
        assert geometry._truncation_failure(core.ExchangeIndex(sorted(union))) is None
        assert cave_condition_3_box_walk(union, is_generalized_polymatroid_pairwise) is None
    assert failures > 100


def cave_predicate_inputs(seed):
    """(point set, order) pairs: random sets, also with negative entries,
    under the default order, every order for p <= 3 (one random order
    beyond) and orders one coordinate too long or too short; then the
    stalactite unions of small generated instances under the same orders,
    as built, with one point added or removed, and translated by a vector
    with negative entries (M-convex tops with several negative points)."""
    rng = random.Random(seed)

    def orders(p):
        perms = itertools.permutations(range(1, p + 1)) if p <= 3 else [rng.sample(range(1, p + 1), p)]
        return [None, LexOrder.identity(p + 1)] + [LexOrder.identity(p - 1)] * (p > 1) + [*map(LexOrder, perms)]

    for pts in random_sets(seed, 1200):
        for order in orders(len(next(iter(pts)))):
            yield pts, order
    for P in SMALL:
        for order in orders(P.p)[3:] or [None]:
            union = set().union(*(st.members for st in stalactite_decomposition(P, order)))
            region = sorted(independence_points(P).points)
            yield union, order
            yield union | {rng.choice(region)}, order
            yield union | {tuple(c + rng.choice((-1, 1)) for c in rng.choice(region))}, order
            yield union - {rng.choice(sorted(union))}, order
            shift = [rng.randint(-2, 0) for _ in range(P.p)]
            yield {tuple(map(sum, zip(q, shift))) for q in union}, order


def test_is_cave_matches_tops_polymatroid_oracle():
    seen = Counter()
    for pts, order in cave_predicate_inputs(23):
        expected = _outcome(is_cave_via_tops_polymatroid, pts, order)
        assert _outcome(geometry.is_cave, pts, order) == expected, (sorted(pts), order)
        seen[expected.failed_condition if isinstance(expected, geometry.CaveReport) else expected[0]] += 1
    assert sum(seen.values()) >= 5000
    # Condition 3 is not in the list: no input here passes (1) and (2) yet fails (3).
    assert min(seen[k] for k in (None, 1, 2, ValueError, DimensionMismatch)) >= 20, seen


def test_mobius_interval_check_matches_scan(monkeypatch):
    instances = GENERATED[:40]
    for P in instances:
        assert (CHECKS["mobius-interval-closed-form"](P) == mobius_interval_check_boxsum(P)
                == mobius_interval_check_scan(P) == (True, None))

    def off_by_one(m, n):  # a fault in the closed form for intervals of length 2
        true = algorithms.mobius_interval(m, n)
        return true + 1 if sum(b - a for a, b in zip(m, n)) == 2 else true

    def late_sign(m, n):  # a fault on 0/1 intervals of length 3 that raise the last coordinate
        true = algorithms.mobius_interval(m, n)
        d = [b - a for a, b in zip(m, n)]
        return -true if sum(d) == 3 and max(d) == 1 and d[-1] == 1 else true

    for fault, least in ((off_by_one, 10), (late_sign, 3)):
        monkeypatch.setattr(genverify, "mobius_interval", fault)
        caught = 0
        for P in instances:
            result = CHECKS["mobius-interval-closed-form"](P)
            assert result == mobius_interval_check_boxsum(P, fault) == mobius_interval_check_scan(P, fault)
            caught += not result[0]
        assert caught > least, fault


def test_pair_bound_checks_build_no_exchange_index(monkeypatch):
    P = Polymatroid(GENERATED[4].points)  # a fresh instance: an empty memo store
    region = sorted(independence_points_down_closure(P))
    assert len(region) > len(P.points) > 20
    built, calls = recorded_indexes(monkeypatch), []

    def counting(m, n):
        calls.append((m, n))
        return algorithms.mobius_interval(m, n)

    def no_route(P):
        raise AssertionError("the recurrence read the Mobius route")

    monkeypatch.setattr(genverify, "mobius_interval", counting)
    with monkeypatch.context() as patch:
        for module in (algorithms, genverify):
            patch.setattr(module, "mobius_table", no_route)
        assert verify_instance(P, checks=["mobius-interval-closed-form"]).passed
    assert verify_instance(P, checks=["counts-equal-mobius", "truncation-lemmas"]).passed
    assert built == []  # P's own index was built with P, before the recording began
    pairs = sum(all(map(operator.ge, a, m)) for m in region for a in region)
    assert len(calls) == len(set(calls)) == pairs


def _campaign_documents():
    cfg = GeneratorConfig(seed=40, p=3, max_rank=4, max_cage_entry=3, strategy="lattice-path")
    report = verify_campaign(cfg, 12, checks=("kernel-probe",))
    return json.dumps(report.to_document(), sort_keys=True)


def test_campaign_shrinker_witnesses_match_oracle_kernels(monkeypatch):
    def kernel_probe(P):
        # Fails on every instance with more than three independence points;
        # the detail records a stalactite union, a cave verdict and the
        # cave polynomial.
        region = geometry.independence_points(P).points
        union = set().union(*(st.members for st in algorithms.stalactite_decomposition(P)))
        report = geometry.is_cave(union | {max(region)})
        if len(region) > 3:
            return False, "|I|=%d |union|=%d cave=%s %s %r" % (
                len(region), len(union), report.failed_condition, report.witness, algorithms.cave_polynomial(P))
        return True, None

    monkeypatch.setitem(CHECKS, "kernel-probe", kernel_probe)
    fast = _campaign_documents()
    assert '"failed": 0' not in fast

    def region_oracle(P):
        ordered = sorted(independence_points_box_filter(P))
        return IndependenceSet(P.p, ordered, core.lattice_code(P).encode(ordered))

    for module in (geometry, algorithms, genverify):
        monkeypatch.setattr(module, "independence_points", region_oracle)
    monkeypatch.setattr(genverify, "points_from_rank", points_from_rank_box_filter)
    monkeypatch.setattr(genverify, "rank_from_points", rank_from_points_subset_loop)
    monkeypatch.setattr(algorithms, "stalactite_decomposition", stalactite_decomposition_prefix)
    monkeypatch.setattr(algorithms, "_stalactite_polynomial", stalactite_polynomial_prefix)
    cave_calls = []

    def cave_oracle(P):
        cave_calls.append(P)
        return cave_polynomial_products(P)

    for module in (algorithms, genverify):
        monkeypatch.setattr(module, "cave_polynomial", cave_oracle)
    monkeypatch.setitem(CHECKS, "truncation-lemmas", truncation_lemmas_check_scan)

    class PairwiseIndex:  # the constructor's exchange check and P's iteration, without an index
        def __init__(self, P):
            self.ordered = sorted(P.points)

        def m_convex_failure(self):
            return is_m_convex_pairwise(self.ordered)[1]

    monkeypatch.setattr(core, "exchange_index", PairwiseIndex)
    for module in (geometry, genverify):
        monkeypatch.setattr(module, "is_cave", is_cave_via_tops_polymatroid)

    def no_index(ordered):
        raise AssertionError("the oracle run reached the exchange index")

    for module in (core, geometry):
        monkeypatch.setattr(module, "ExchangeIndex", no_index)
    assert _campaign_documents() == fast
    assert cave_calls


def random_binomial_polys(seed, count):
    """Random sparse combinations in the binomial bases: index sets that are
    not down-closed, small, negative and very large coefficients."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.randint(1, 4)
        shift = rng.choice((0, -1, 0, -1, 2))
        terms = {}
        for _ in range(rng.randint(0, 9)):
            n = tuple(rng.choice((0, 0, 1, 2, 3, 5, 7)) for _ in range(p))
            terms[n] = rng.choice((1, -1, rng.randint(-9, 9), rng.randint(-10**30, 10**30)))
        yield BinomialBasisPoly(p, terms, shift=shift)


def random_full_boxes(seed, count):
    """Combinations on every index of a random box [0, tops] of at most 256
    slots, p = 1..5, some spans 1, with coefficients 0 (dropped), +-1, small
    and +-10^30."""
    rng = random.Random(seed)
    for _ in range(count):
        tops = [9]
        while math.prod(top + 1 for top in tops) > 256:
            tops = [rng.choice((0, 1, 2, 3)) for _ in range(rng.randint(1, 5))]
        terms = {n: rng.choice((0, 1, -1, rng.randint(-9, 9), rng.choice((10**30, -10**30))))
                 for n in itertools.product(*[range(top + 1) for top in tops])}
        terms[tuple(tops)] = rng.choice((1, -1))  # the box stays [0, tops]
        yield BinomialBasisPoly(len(tops), terms, shift=rng.choice((0, -1)))


def test_expand_binomial_matches_per_term_oracle(monkeypatch):
    # The sparse layout is the one that calls axiswise_codes; the dense one
    # fills a list of the box, up to DENSE_SLOTS_PER_TERM slots per term.
    calls = []
    axiswise_codes = polyalg.axiswise_codes
    monkeypatch.setattr(polyalg, "axiswise_codes", lambda *args: calls.append(1) or axiswise_codes(*args))

    def sparse_layouts(polys, oracle=expand_binomial_per_term):
        taken = []
        for b in polys:
            before = len(calls)
            assert expand_binomial(b).terms == oracle(b).terms, b
            taken.append(len(calls) > before)
        return taken

    polys = list(random_binomial_polys(9, 400)) + list(random_full_boxes(12, 300))
    polys += [BinomialBasisPoly(p, {}, shift) for p in (1, 3) for shift in (0, -1)]
    polys += [BinomialBasisPoly(1, {(k,): c}, shift) for k in range(9) for c in (1, -3) for shift in (0, -1)]
    for P in GENERATED:
        polys += [snapper_from_cave(P), snapper_eur_larson(P)]
    taken = sparse_layouts(polys)
    assert 100 < sum(taken) < len(polys) - 100
    assert {b.p for b in polys} >= {1, 2, 3, 4, 5} and {b.shift for b in polys} >= {0, -1}
    ladder = [f(P) for P in LADDER for f in (snapper_from_cave, snapper_eur_larson)]
    assert not any(sparse_layouts(ladder, oracle=expand_binomial_per_term_scaled))
    slots = polyalg.DENSE_SLOTS_PER_TERM  # two terms in a box of 2K slots, then of 2K + 1
    boundary = [BinomialBasisPoly(1, {(0,): 1, (top,): -3}, shift) for top in (2 * slots - 1, 2 * slots)
                for shift in (0, -1)]
    assert sparse_layouts(boundary) == [False, False, True, True]


def library_polynomials(P, summands=True) -> list:
    """Every polynomial the library builds for ``P``: the four routes (the
    stalactite one under two orders), both Snapper inputs and their
    expansions, ``binomial_map`` and ``+``, and, with ``summands``, the box
    summands and their sum."""
    cave, box = cave_polynomial(P), box_polynomial(P)
    snappers = [snapper_from_cave(P), snapper_eur_larson(P)]
    polys = [cave, stalactite_polynomial(P), stalactite_polynomial(P, LexOrder(tuple(range(P.p, 0, -1)))), box,
             algorithms.mobius_polynomial(P), *snappers, *map(expand_binomial, snappers),
             polyalg.binomial_map(box), cave + box, cave + 1, 1 + cave]
    if summands:
        parts = list(box_summands(P).values())
        polys += parts + [sum(parts, MultiPoly.zero(P.p))]
    return polys


def test_library_results_hold_what_the_public_constructors_would_build():
    # The library builds these by ``_of``, which checks nothing; each must
    # hold exact tuples of p ints as keys, exact nonzero ints as stored
    # coefficients (numerators over a positive reduced denominator), and
    # equal its rebuild through the public constructor.
    seen = Counter()
    for P, summands in [(P, True) for P in GENERATED] + [(P, False) for P in LADDER[:4]]:
        for q in library_polynomials(P, summands):
            stored = q.numerators if isinstance(q, RationalPoly) else q.terms
            assert {*map(type, stored)} <= {tuple} and {*map(len, stored)} <= {P.p}, q
            assert {*map(type, itertools.chain.from_iterable(stored))} <= {int}, q
            assert {*map(type, stored.values())} <= {int} and 0 not in stored.values(), q
            if isinstance(q, RationalPoly):
                assert type(q.denominator) is int and q.denominator > 0, q
                assert math.gcd(q.denominator, *stored.values()) == 1, q
                rebuilt = RationalPoly(q.p, q.terms)
            elif isinstance(q, BinomialBasisPoly):
                assert type(q.shift) is int, q
                rebuilt = BinomialBasisPoly(q.p, q.terms, shift=q.shift)
            else:
                rebuilt = MultiPoly(q.p, q.terms)
            assert rebuilt == q, q
            seen[type(q).__name__] += bool(stored)
    assert min(seen.values()) > 200, seen


def test_scaled_expansion_oracle_matches_fraction_oracle():
    polys = list(random_binomial_polys(10, 150)) + list(random_full_boxes(13, 60))
    polys += [f(P) for P in GENERATED[:30] for f in (snapper_from_cave, snapper_eur_larson)]
    assert {b.shift for b in polys} == {0, -1, 2}
    for b in polys:
        assert expand_binomial_per_term_scaled(b) == expand_binomial_per_term(b), b


class Key(tuple):
    """A tuple subclass: the constructor stores its plain-tuple copy."""


class KeyedItems(dict):
    """A dict whose ``items`` hands out its keys as ``Key`` instances."""

    def items(self):
        return [(Key(key), c) for key, c in super().items()]


def constructor_inputs(seed, count):
    """(class, p, terms, keywords) for the polynomial constructors.  About
    half are normal (a dict of exact tuples of length p with coefficients of
    exactly the representation's type, zeros included); the rest carry one
    or two faults: tuple subclasses, string keys that merge with tuple keys,
    bool, float or mixed coefficients, wrong lengths, negative binomial
    indices, other mappings (a dict subclass among them), or a bad p."""
    rng = random.Random(seed)
    classes = (MultiPoly, BinomialBasisPoly, RationalPoly)
    for _ in range(count):
        cls = rng.choice(classes)
        p = rng.randint(1, 4)
        normal = Fraction if cls is RationalPoly else int
        low = 0 if cls is BinomialBasisPoly else -2
        terms = {}
        for _ in range(rng.randint(0, 8)):
            key = tuple(rng.randint(low, 9) for _ in range(p))
            terms[key] = normal(rng.choice((0, 1, -1, rng.randint(-9, 9), rng.randint(-10**20, 10**20))))
            if normal is Fraction and rng.random() < 0.5:
                terms[key] /= rng.randint(1, 7)
        keywords = {"shift": rng.choice((0, -1))} if cls is BinomialBasisPoly else {}
        faults = rng.choice((0, 0, 0, 1, 1, 2))
        for _ in range(faults):
            items = list(terms.items())
            fault = rng.randrange(9) if items else rng.choice((1, 5, 6, 7, 8))
            if fault == 0:
                key, c = rng.choice(items)
                del terms[key]
                terms[Key(key)] = c
            elif fault == 1:
                key = tuple(str(rng.randint(0, 9)) for _ in range(p))
                terms["".join(key)] = rng.randint(-2, 2)
                terms[key] = rng.randint(-2, 2)
            elif fault == 2:
                terms[rng.choice(items)[0]] = rng.choice((True, False))
            elif fault == 3:
                terms[rng.choice(items)[0]] = rng.choice((0.0, 0.5, -2.0))
            elif fault == 4:
                other = Fraction if normal is int else int
                terms[rng.choice(items)[0]] = other(rng.randint(-3, 3))
            elif fault == 5:
                terms[tuple(rng.randint(0, 3) for _ in range(rng.choice((p - 1, p + 1))))] = 1
            elif fault == 6:
                terms[(-1,) + (0,) * (p - 1)] = rng.randint(-2, 2)
            elif fault == 7:
                terms = rng.choice((None, MappingProxyType(terms), KeyedItems(terms), list(terms.items())))
                break
            elif fault == 8:
                p = rng.choice((0, -1, True, 2.0))
                break
        yield cls, p, terms, keywords, faults > 0


def _terms_outcome(fn):
    try:
        terms = fn()
    except Exception as exc:
        return type(exc), str(exc)
    return [(key, type(key), c, type(c)) for key, c in terms.items()]


def test_polynomial_constructor_matches_per_term_loop():
    inputs = list(constructor_inputs(23, 4000))
    inputs += [
        (MultiPoly, 2, {"12": 3, ("1", "2"): 4, (1, 2): 0}, {}, True),
        (MultiPoly, 2, {"12": 3, ("1", "2"): -3}, {}, True),
        (MultiPoly, 2, {(0, 1): True, (1, 0): False}, {}, True),
        (MultiPoly, 2, {Key((0, 1)): 2, (1, 0): 1}, {}, True),
        (MultiPoly, 2, KeyedItems({(0, 1): 2, (1, 0): 1}), {}, True),
        (MultiPoly, 2, {(0, 1): 1, (1,): 1}, {}, True),
        (BinomialBasisPoly, 2, {(0, 1): 1, (-1, 0): "x"}, {"shift": -1}, True),
        (BinomialBasisPoly, 2, {(-1, 0): "x", (0, 1): 1}, {}, True),
        (BinomialBasisPoly, 2, {(0, 1): "x", (-1, 0): 1}, {}, True),
        (BinomialBasisPoly, 2, {(0, 1): 1.0, (1, 0): 1}, {}, True),
        (BinomialBasisPoly, 2, {("a", "b"): 1}, {}, True),
        (RationalPoly, 2, {(0, 1): 1, (1, 0): Fraction(1, 2), (1, 1): 0}, {}, True),
        (RationalPoly, 2, {(0, 1): Fraction(1, 2), "01": Fraction(-1, 2)}, {}, True),
        (RationalPoly, 2, {(0, 1): Fraction(0), (1, 0): Fraction(-3, 4)}, {}, True),
        (RationalPoly, 2, {(0, 1): "1/3"}, {}, True),
    ]
    kept = {False: 0, True: 0}
    raised = 0
    for cls, p, terms, keywords, faulted in inputs:
        expected = _terms_outcome(lambda: sparse_terms_loop(cls, p, terms, **keywords))
        assert _terms_outcome(lambda: dict(cls(p, terms, **keywords).terms)) == expected, (cls, p, terms)
        if isinstance(expected, list):
            kept[faulted] += 1
        else:
            raised += 1
    assert min(kept.values()) > 500 and raised > 500, (kept, raised)


def test_box_polynomial_matches_summed_summands():
    assert {P.p for P in GENERATED} == {1, 2, 3, 4, 5}
    for P in GENERATED:
        total = sum(box_summands(P).values(), MultiPoly.zero(P.p))
        assert box_polynomial(P).terms == total.terms


def test_truncate_accepts_exactly_the_subset_sum_region():
    inside = outside = 0
    for P in GENERATED[:60]:
        region = independence_points(P).points
        box = itertools.product(*(range(-1, c + 2) for c in P.cage))
        for n in box:
            try:
                kept = geometry.truncate(P, n).points
            except NotInIndependence as exc:
                assert str(exc) == "%s is not in the independence region" % (n,)
                kept = None
            verdict = kept is not None
            assert verdict == in_independence_subset_sums(P, n) == (n in region), (P, n)
            assert not verdict or kept == {u for u in P.points if all(map(operator.ge, u, n))}, (P, n)
            inside += verdict
            outside += not verdict
        for bad in ((0,) * (P.p + 1), (1,) * (P.p - 1)):
            with pytest.raises(DimensionMismatch, match=r"^point has length %d, expected %d$" % (len(bad), P.p)):
                geometry.truncate(P, bad)
            with pytest.raises(DimensionMismatch):
                in_independence_subset_sums(P, bad)
    assert inside > 500 and outside > 500


def random_rank_tables(seed, count):
    """Mask-indexed tables for p <= 6: uniform tables with a few entries
    nudged by one (often still submodular) and fully random ones."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.randint(1, 6)
        if rng.random() < 0.7:
            r = rng.randint(0, 8)
            m = [rng.randint(0, 4) for _ in range(p)]
            values = [min(r, sum(m[i] for i in range(p) if mask >> i & 1)) for mask in range(1 << p)]
            for _ in range(rng.randint(0, 3)):
                mask = rng.randrange(1, 1 << p)
                values[mask] = max(0, values[mask] + rng.choice((-1, 1)))
        else:
            values = [0] + [rng.randint(0, 6) for _ in range(1, 1 << p)]
        yield p, values


def test_local_submodularity_matches_all_pairs():
    verdicts = set()
    for p, values in random_rank_tables(11, 1500):
        cage = [values[1 << i] for i in range(p)]
        try:
            validate_rank_function(p, values, cage)
            reported = []
        except AxiomViolation as exc:
            reported = exc.violations
        local = [v for v in reported if v[0] == "submodular"]
        pairs = submodular_violations_all_pairs(p, values)
        assert bool(local) == bool(pairs), (p, values)
        assert set(local) <= set(pairs)
        verdicts.add(bool(pairs))
    assert verdicts == {True, False}


def test_snapper_routes_check_catches_one_changed_coefficient(monkeypatch):
    instances = [P for P in GENERATED[:30] if P.rank > 0][:8]

    def bump(route):
        def changed(P):
            b = route(P)
            terms = dict(b.terms)
            top = max(terms)
            terms[top] += 1
            return BinomialBasisPoly(b.p, terms, b.shift)
        return changed

    for name, route in (("snapper_eur_larson", snapper_eur_larson), ("snapper_from_cave", snapper_from_cave)):
        with monkeypatch.context() as patch:
            patch.setattr(genverify, name, bump(route))
            for P in instances:
                failures = verify_instance(P).failures()
                assert [(r.name, r.detail) for r in failures] == [
                    ("snapper-routes", "the two Snapper expansions differ")], (name, P)
    for P in instances:
        assert verify_instance(P, checks=["snapper-routes"]).passed


def _points_or_error(convert, rk):
    try:
        return convert(rk).points
    except CavepolyError as exc:
        return type(exc), str(exc)


# A negative rank of the empty set admits no point; a positive one loosens
# the degree bound that the full-sum condition must still fix.
EDGE_RANK_TABLES = [(2, [-1, 1, 1, 1]), (2, [1, 1, 1, 1]), (3, [1, 1, 1, 2, 1, 2, 2, 2])]


def test_points_from_rank_matches_box_filter():
    for P in GENERATED:
        rk = core.rank_from_points(P)
        assert core.points_from_rank(rk).points == points_from_rank_box_filter(rk).points == P.points
    tables = list(random_rank_tables(12, 1500)) + EDGE_RANK_TABLES
    outcomes = set()
    for p, values in tables:
        rk = RankFunction(p, values, [values[1 << i] for i in range(p)])
        result = _points_or_error(core.points_from_rank, rk)
        assert result == _points_or_error(points_from_rank_box_filter, rk), (p, values)
        outcomes.add(result[0] if isinstance(result, tuple) else frozenset)
    assert outcomes == {frozenset, InternalInvariantFailure, NotMConvex}


def test_base_point_walk_matches_subset_sum_walk(monkeypatch):
    """The halving-bounds walk hands ``Polymatroid`` the members of the
    subset-sum walk in the same order, or fails the same way before it."""
    handed, polymatroid = [], core.Polymatroid

    def recorded(members):
        handed.append(members)
        return polymatroid(members)

    monkeypatch.setattr(core, "Polymatroid", recorded)
    tables = [t for seed in (11, 12, 13) for t in random_rank_tables(seed, 1500)] + EDGE_RANK_TABLES
    outcomes = set()
    for p, values in tables:
        rk = RankFunction(p, values, [values[1 << i] for i in range(p)])
        handed.clear()
        result = _points_or_error(core.points_from_rank, rk)
        expected = base_points_subset_sums(rk)
        assert handed == ([expected] if expected else []), (p, values)
        if not expected:
            assert result == (InternalInvariantFailure, "valid rank function produced no base points")
        outcomes.add(result[0] if isinstance(result, tuple) else frozenset)
    assert outcomes == {frozenset, InternalInvariantFailure, NotMConvex}


def wide_low_rank_tables():
    """p = 8..10 tables whose walk reaches ``rest`` 0 a few coordinates in:
    uniform tables of rank 1..3 with cages in {0, 1, 2}^p, and random
    submodular ones of rank at most 3."""
    rng = random.Random(15)
    for p in (8, 9, 10):
        for r in (1, 2, 3):
            m = [rng.randint(0, 2) for _ in range(p)]
            yield validate_rank_function(p, genverify._uniform_values(p, r, m), m)
        drawn = 0
        for seed in itertools.count(p * 1000):
            rk = genverify._draw_submodular(GeneratorConfig(seed=seed, p=p, max_rank=3, max_cage_entry=2),
                                            random.Random(seed))
            if rk is not None and rk.rank:
                yield rk
                drawn += 1
                if drawn == 2:
                    break


def test_base_point_walk_on_wide_low_rank_tables(monkeypatch):
    """Stopping at ``rest`` 0 keeps the box filter's points and the
    subset-sum walk's order."""
    handed, polymatroid = [], core.Polymatroid

    def recorded(members):
        handed.append(members)
        return polymatroid(members)

    monkeypatch.setattr(core, "Polymatroid", recorded)
    for rk in wide_low_rank_tables():
        handed.clear()
        assert core.points_from_rank(rk).points == points_from_rank_box_filter(rk).points, rk
        assert handed[0] == base_points_subset_sums(rk), rk


def test_lattice_path_draw_matches_full_validation():
    """Checking only the axioms that read the lowered entry draws the same
    tables as validating every candidate in full."""
    for p in range(1, 8):
        for seed in range(40 if p < 7 else 4):
            cfg = GeneratorConfig(seed=seed, p=p, max_rank=1 + seed % 7, max_cage_entry=1 + seed % 4,
                                  strategy="lattice-path")
            drawn = genverify._draw_lattice_path(cfg, random.Random(seed))
            expected = draw_lattice_path_validating(cfg, random.Random(seed))
            assert (drawn.values, drawn.cage) == (expected.values, expected.cage), cfg


def test_sliced_axiom_check_matches_covering_pair_loops():
    rng = random.Random(14)
    kinds = Counter()
    for p, values in random_rank_tables(14, 1500):
        values = list(values)
        if rng.random() < 0.1:
            values[0] = rng.choice((-1, 1))
        cage = [values[1 << i] + rng.choice((0, 0, 0, -1)) for i in range(p)]
        try:
            validate_rank_function(p, values, cage)
            reported = []
        except AxiomViolation as exc:
            reported = exc.violations
        assert reported == rank_axiom_violations_loops(p, values, cage), (p, values, cage)
        kinds.update({axiom for axiom, _ in reported} or {"valid"})
    assert set(kinds) == {"valid", "empty", "cage", "monotone", "submodular"}, kinds


def wide_slot_rank_tables(seed, count):
    """(p, values, cage) for p <= 10 whose spreads need every slot width of
    the packed axiom check, 1 to 8 bytes, or more (scale 10^30): uniform
    tables scaled by 1, 1000, 10^15, 10^30 or a power of two below 2^58
    with a few entries nudged by up to the scale, and random tables with
    negative entries, whose gains reach the spread; some with values[0] !=
    0 or a cage entry cut."""
    rng = random.Random(seed)
    for _ in range(count):
        p = rng.choice((1, 2, 3, 4, 5, 6, 6, 7, 8, 10))
        scale = rng.choice((1, 1000, 10 ** 15, 10 ** 30, 2 ** rng.randrange(58)))
        if rng.random() < 0.7:
            r, m = rng.randint(0, 8), [rng.randint(0, 4) for _ in range(p)]
            values = [min(r, sum(m[i] for i in range(p) if mask >> i & 1)) * scale for mask in range(1 << p)]
            for _ in range(rng.randint(0, 3)):
                values[rng.randrange(1 << p)] += rng.randint(-scale, scale)
        else:
            values = [0] + [rng.randint(-2 * scale, 6 * scale) for _ in range(1, 1 << p)]
        if rng.random() < 0.15:
            values[0] = rng.randint(-scale, scale)
        yield p, values, [values[1 << i] - rng.choice((0, 0, 0, 1)) for i in range(p)]


def test_packed_axiom_check_matches_loops_and_slices_on_wide_slots():
    """The packed check (the sliced one beyond 8-byte slots) agrees with the
    sliced check and, through ``validate_rank_function``, with the
    covering-pair loops."""
    widths, kinds = Counter(), Counter()
    for p, values, cage in wide_slot_rank_tables(16, 250):
        try:
            validate_rank_function(p, values, cage)
            reported = []
        except AxiomViolation as exc:
            reported = exc.violations
        assert reported == rank_axiom_violations_loops(p, values, cage), (p, values, cage)
        found = core._local_axiom_failures(p, values)
        assert sorted(found) == sorted(core._sliced_axiom_failures(p, values)), (p, values)
        widths[min((max(values) - min(values)).bit_length() + 10 >> 3, 9)] += 1
        kinds.update({axiom for axiom, _ in reported} or {"valid"})
    assert set(widths) == set(range(1, 10)), widths
    assert set(kinds) == {"valid", "empty", "cage", "monotone", "submodular"}, kinds


def test_comprehension_walk_matches_map_walk(monkeypatch):
    """The walk's list comprehensions hand ``Polymatroid`` the members of
    the ``map``-form walk, in the same order."""
    handed, polymatroid = [], core.Polymatroid

    def recorded(members):
        handed.append(members)
        return polymatroid(members)

    monkeypatch.setattr(core, "Polymatroid", recorded)
    ladder = [core.rank_from_points(P) for P in LADDER[:4]]
    tables = [RankFunction(p, values, [values[1 << i] for i in range(p)])
              for p, values in list(random_rank_tables(17, 600)) + EDGE_RANK_TABLES]
    for rk in tables + list(wide_low_rank_tables()) + ladder:
        handed.clear()
        _points_or_error(core.points_from_rank, rk)
        expected = base_points_map_walk(rk)
        assert handed == ([expected] if expected else []), rk


def test_rank_from_points_matches_subset_loop():
    for P in GENERATED + [Polymatroid([(0,) * 4]), Polymatroid([(3, 0, 7)])]:
        rk, expected = core.rank_from_points(P), rank_from_points_subset_loop(P)
        assert (rk.p, rk.values, rk.cage) == (expected.p, expected.values, expected.cage)


def raised(where):
    """A plant raising by one the coefficients at ``where(Q)`` in each
    truncation Q of two points: (the faulty stalactite polynomial, for the
    scan oracle; the faulty ``cube_codes``, for the checks that expand a
    truncation's own decomposition)."""
    cube_codes = core.ExchangeIndex.cube_codes

    def faulty(P, *order):  # in the oracle's stalactite polynomial
        poly = stalactite_polynomial(P, *order)
        if len(P.points) != 2:
            return poly
        terms = dict(poly.terms)
        for m in where(P):
            terms[m] = terms.get(m, 0) + 1
        return MultiPoly(P.p, terms)

    def faulty_codes(index, stalactites):  # in the index's coded terms of a truncation
        pairs = list(stalactites)
        terms = cube_codes(index, pairs)
        if len(pairs) != 2 or len(index.ordered) == 2:  # a two-point set's own terms
            return terms
        terms = dict(terms)
        for code in index.lattice.encode(where(Polymatroid(index.ordered[k] for k, _ in pairs))):
            terms[code] = terms.get(code, 0) + 1
        return terms
    return faulty, faulty_codes


AT_TOP = raised(lambda P: [max(P.points)])
EVERYWHERE = raised(lambda P: independence_points(P).points)


def test_truncation_lemma_check_matches_scan(monkeypatch):
    for P in GENERATED:
        assert CHECKS["truncation-lemmas"](P) == truncation_lemmas_check_scan(P) == (True, None)

    (at_top, at_top_codes), (everywhere, everywhere_codes) = AT_TOP, EVERYWHERE
    caught = 0
    for P in GENERATED:
        if len(P.points) <= 2:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(core.ExchangeIndex, "cube_codes", at_top_codes)
            result = CHECKS["truncation-lemmas"](P)
            assert result == truncation_lemmas_check_scan(P, at_top)
            failures = [(r.name, r.detail) for r in verify_instance(P).failures()]
            assert failures == ([] if result[0] else [("truncation-lemmas", result[1])])
        with monkeypatch.context() as patch:
            # Many coefficients differ: same n as the oracle, and the first m
            # in sorted order, which is n itself.
            patch.setattr(core.ExchangeIndex, "cube_codes", everywhere_codes)
            ok, detail = CHECKS["truncation-lemmas"](P)
            expected = truncation_lemmas_check_scan(P, everywhere)
            assert ok == expected[0] == result[0]
            if not ok:
                n = expected[1].split(":")[0][len("truncation at "):]
                assert detail.startswith("truncation at %s: coefficient at %s is" % (n, n))
        caught += not result[0]
    assert caught > 10


def kept_masks(P) -> list:
    """The kept set {u >= n} of P's bases at each region point n, in lex order."""
    rows = core.exchange_index(P).above
    return [functools.reduce(operator.and_, map(operator.getitem, rows, n)) for n in independence_points(P).ordered]


def truncation_outcome(check, P):
    """A truncation check's (passed, detail), or its internal error's message."""
    try:
        return check(P)
    except InternalInvariantFailure as exc:
        return str(exc)


def test_truncation_lemma_check_matches_per_pair_oracle(monkeypatch):
    # The disagreement masks against the pair-by-pair comparison and the
    # scan: clean, under the two raised-coefficient plants, and under a
    # plant in the kept sets whose first failing n follows its kept set's
    # first n.  A passing check asserts and decomposes each distinct kept
    # set once, from its own mask.
    instances = GENERATED + LADDER[:4]
    asserted, decomposed = [], []
    m_convex_failure, stalactites = core.ExchangeIndex.m_convex_failure, core.ExchangeIndex.stalactites
    for P in instances:
        stalactite_polynomial(P)  # the inputs, built before counting
        asserted.clear()
        decomposed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(core.ExchangeIndex, "m_convex_failure",
                          lambda index, mask=None: asserted.append(mask) or m_convex_failure(index, mask))
            patch.setattr(core.ExchangeIndex, "stalactites",
                          lambda index, order, mask=None: decomposed.append(mask) or stalactites(index, order, mask))
            assert CHECKS["truncation-lemmas"](P) == (True, None)
        assert asserted == decomposed == list(dict.fromkeys(kept_masks(P))), P
        assert truncation_lemmas_check_per_pair(P) == truncation_lemmas_check_scan(P) == (True, None)

    def at(detail):  # the n of a failure's detail
        return detail and detail.split(":")[0]

    failed = 0
    for faulty, faulty_codes in (AT_TOP, EVERYWHERE):
        for P in [P for P in instances if len(P.points) > 2]:  # the scan's plant would raise P's own polynomial
            with monkeypatch.context() as patch:
                patch.setattr(core.ExchangeIndex, "cube_codes", faulty_codes)
                result = CHECKS["truncation-lemmas"](P)
                assert result == truncation_lemmas_check_per_pair(P), P
            failed += not result[0]
            if P in LADDER:  # no truncation of a ladder row holds two points: the clean scan above
                assert result == (True, None)
                continue
            # The scan lists a truncation's region unsorted, so with many
            # coefficients wrong it may name another m at the same n.
            scan = truncation_lemmas_check_scan(P, faulty)
            assert result == scan if faulty is AT_TOP[0] else (result[0], at(result[1])) == (scan[0], at(scan[1]))
    assert failed > 40, failed

    # On every instance here the first n of a kept set lies below its
    # other n, so a fault in the counts fails there first.  This plant drops
    # the last base from each mask of coordinate 1's rows above 0, so a kept
    # set can hold n that are not above its first.  The scan reads no rows,
    # so the two checks alone compare.
    above = core.ExchangeIndex.above

    def dropped(index):
        rows = above.__get__(index)
        return (tuple(mask & ~(1 << mask.bit_length() - 1) if c and mask else mask
                      for c, mask in enumerate(rows[0])),) + rows[1:]

    later = 0
    for P in instances:
        independence_points(P)  # the region, walked on the true rows
        with monkeypatch.context() as patch:
            patch.setattr(core.ExchangeIndex, "above", property(dropped))
            result = truncation_outcome(CHECKS["truncation-lemmas"], P)
            assert result == truncation_outcome(truncation_lemmas_check_per_pair, P), P
            if isinstance(result, tuple) and not result[0]:
                k = [repr(n) for n in independence_points(P).ordered].index(at(result[1])[len("truncation at "):])
                kept = kept_masks(P)
                later += kept.index(kept[k]) < k
    assert later > 5, later


def threshold_truncations(index):
    """The distinct nonempty masks {q >= b}, b in the bounding box of the
    indexed points."""
    box = itertools.product(*(range(min(col), max(col) + 1) for col in zip(*index.ordered)))
    return sorted({truncation_mask(index, b) for b in box} - {0})


def materialized(index, mask):
    return [q for k, q in enumerate(index.ordered) if mask >> k & 1]


def cave_set(P):
    return set().union(*(st.members for st in stalactite_decomposition(P)))


def test_exchange_index_truncations_match_materialized_sets():
    sets = [P.points for P in GENERATED] + [cave_set(P) for P in SMALL] + list(random_sets(5, 600))
    verdicts = set()
    for pts in sets:
        index = core.ExchangeIndex(sorted(pts))
        for i, (col, span) in enumerate(zip(zip(*index.ordered), index.lattice.spans)):
            assert span > max(col) and index.above[i][-1] == 0
            for c in range(span):
                assert index.above[i][c] == sum(1 << k for k, x in enumerate(col) if x >= c)
        for mask in threshold_truncations(index):
            subset = materialized(index, mask)
            exchange, gp = index.m_convex_failure(mask), index.gp_failure(mask)
            assert (exchange is None, exchange) == is_m_convex(subset) == is_m_convex_pairwise(subset), subset
            assert (gp is None, gp) == is_generalized_polymatroid_pairwise(subset), subset
            verdicts.add((exchange is None, gp is None))
    assert verdicts == {(True, True), (False, True), (False, False)}


def decoded_stalactite_codes(index, order, mask=None) -> dict:
    """``index.cube_codes(index.stalactites(order, mask))`` keyed by the
    points, decoded as the stalactite route decodes them."""
    terms = index.cube_codes(index.stalactites(order, mask))
    return dict(zip(index.lattice.decode(terms), terms.values()))


def test_exchange_index_truncation_terms_match_stalactite_polynomial():
    truncations = 0
    for P in GENERATED:
        if P.p > 4:
            continue
        subsets = {}  # every order has the same truncations
        for perm in itertools.permutations(range(1, P.p + 1)):
            order = LexOrder(perm)
            index = core.ExchangeIndex(sorted(P.points, key=order.key))
            for mask in threshold_truncations(index):
                points = frozenset(materialized(index, mask))
                sub = subsets.get(points) or subsets.setdefault(points, Polymatroid(points))
                expected = stalactite_polynomial(sub, order).terms
                assert decoded_stalactite_codes(index, order, mask) == expected
                if perm[0] == 1:  # the prefix-scan oracle under a sample of the orders
                    assert expected == stalactite_polynomial_prefix(sub, order).terms
                truncations += 1
    assert truncations > 1000


def test_coded_stalactite_terms_match_tuple_counter():
    # P's index under every lex order and on every threshold truncation.
    cases = 0
    for P in GENERATED:
        if P.p > 4:
            continue
        index = core.exchange_index(P)
        for perm in itertools.permutations(range(1, P.p + 1)):
            for mask in threshold_truncations(index):
                order = LexOrder(perm)
                assert decoded_stalactite_codes(index, order, mask) == stalactite_terms_counter(index, order, mask)
                cases += 1
    assert cases > 5000
    # Free-standing indexes under the default code: the order-sorted base
    # points of the truncation test above, the base points moved by 3 along
    # every axis, and cave-predicate inputs with negative entries whose tops
    # ``is_cave`` decomposes (M-convex and nonnegative), decomposed in identity
    # order.  A code whose box spans only the points' own range fails to
    # decode the members of more than 100 of them; the default box also
    # holds the origin.
    naive = 0
    sets = [(sorted(P.points, key=LexOrder(perm).key), None) for P in GENERATED[:40] if P.p <= 4
            for perm in itertools.permutations(range(1, P.p + 1))]
    sets += [(sorted(tuple(x + 3 for x in q) for q in P.points), None) for P in GENERATED[:40] if P.p <= 4]
    sets += [(sorted(pts), "tops") for pts, _ in itertools.islice(cave_predicate_inputs(29), 3000)
             if min(map(min, pts)) < 0 and is_m_convex(top_elements(pts))[0]
             and min(map(min, top_elements(pts))) >= 0]
    for points, tops in sets:
        index = core.ExchangeIndex(points)
        masks = threshold_truncations(index)
        if tops:
            top = max(map(sum, points))
            masks = [sum(1 << k for k, q in enumerate(points) if sum(q) == top)]
        for mask in masks:
            identity = LexOrder.identity(index.p)
            expected = stalactite_terms_counter(index, identity, mask)
            assert decoded_stalactite_codes(index, identity, mask) == expected, (points, mask)
            narrow = core.LatticeCode([max(col) - min(col) + 3 for col in zip(*points)])
            naive += narrow.decode(narrow.encode(expected)) != list(expected)
    assert sum(1 for _, tops in sets if tops) > 50
    assert naive > 100, naive


def test_cube_codes_match_counter_oracle():
    # Every distinct threshold truncation and every decomposition the
    # lex-order check tries, on the corpus and the ladder row (8; [4]x4),
    # plus every base point as a one-point cube, where no odd pass runs.
    cases = pointwise = 0
    for P in GENERATED + [named_family("uniform", r=8, m=(4,) * 4)]:
        index = core.exchange_index(P)
        identity = LexOrder.identity(P.p)
        decompositions = [tuple(index.stalactites(identity, mask)) for mask in threshold_truncations(index)]
        decompositions += [tuple(index.stalactites(order)) for order in genverify._lex_orders(P.p)]
        decompositions.append(tuple((k, 0) for k in range(len(index.ordered))))
        for decomposition in decompositions:
            result = index.cube_codes(decomposition)
            assert type(result) is dict
            assert list(result.items()) == list(cube_codes_counter(index, decomposition).items()), (P, decomposition)
            pointwise += not any(directions for _, directions in decomposition)
            cases += 1
    assert cases > 2500 and pointwise > 500, (cases, pointwise)


def test_settled_exchange_index_answers_truncations_without_a_scan(monkeypatch):
    # A polymatroid's constructor leaves every failure union 0, so every
    # threshold truncation is M-convex at once.
    instances = GENERATED + [named_family("uniform", r=8, m=(4,) * 4)]
    masks = [(core.exchange_index(P), threshold_truncations(core.exchange_index(P))) for P in instances]

    def scanned(index, mask, failures, unions):
        raise AssertionError("a settled index walked its points")

    monkeypatch.setattr(core.ExchangeIndex, "_first_witness", scanned)
    for index, kept in masks:
        assert index._exchange.count(0) == len(index.ordered)
        assert [index.m_convex_failure(mask) for mask in kept] == [None] * len(kept)


def test_unsettled_exchange_index_scans_every_truncation():
    # Sets that are not M-convex: each truncation's witness is the pairwise
    # scan's, on a fresh index, after a whole-set call and on a second pass.
    failing = [pts for pts in random_sets(34, 400) if not is_m_convex(pts)[0]]
    verdicts = set()
    for pts in failing:
        expected = None
        for whole in (False, True):
            index = core.ExchangeIndex(sorted(pts))
            if whole:
                assert index.m_convex_failure() is not None
            masks = threshold_truncations(index)
            if expected is None:
                expected = [is_m_convex_pairwise(materialized(index, mask))[1] for mask in masks]
            for _ in range(2):
                assert [index.m_convex_failure(mask) for mask in masks] == expected, pts
        verdicts.update(witness is None for witness in expected)
    assert len(failing) > 150 and verdicts == {True, False}


def test_truncation_lemma_check_asserts_every_truncation(monkeypatch):
    def reported(points):  # a fault that reports every two-point set not M-convex
        return points[0], points[1], 1

    m_convex_failure = core.ExchangeIndex.m_convex_failure

    def faulty(index, mask=None):  # the fault in the check's kernel, over a mask
        if mask is None or bin(mask).count("1") != 2:
            return m_convex_failure(index, mask)
        return reported(materialized(index, mask))

    def planted(index, mask=None):  # the same fault in the constructor's whole-set check
        if mask is not None or len(index.ordered) != 2:
            return m_convex_failure(index, mask)
        return reported(index.ordered)

    def outcome(check, P):
        try:
            return check(P)
        except InternalInvariantFailure as exc:
            return str(exc)

    raised = 0
    for P in GENERATED[:60]:
        if len(P.points) <= 2:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(core.ExchangeIndex, "m_convex_failure", faulty)
            result = outcome(CHECKS["truncation-lemmas"], P)
        with monkeypatch.context() as patch:
            patch.setattr(core.ExchangeIndex, "m_convex_failure", planted)
            assert result == outcome(truncation_lemmas_check_scan, P)
        raised += isinstance(result, str)
    assert raised > 10
    P = GENERATED[0]
    monkeypatch.setattr(genverify, "independence_points", stray_region)
    with pytest.raises(InternalInvariantFailure) as exc:
        CHECKS["truncation-lemmas"](P)
    assert str(exc.value) == "%s is not in the independence region" % (tuple(c + 1 for c in P.cage),)


def stray_region(P):
    """The region the checks read, planted with cage + 1, a region point
    with no base above it; for p >= 2 the region is then not down-closed."""
    outside = tuple(c + 1 for c in P.cage)
    region, (code,) = independence_points(P), core.lattice_code(P).encode([outside])
    return IndependenceSet(P.p, region.ordered + (outside,), region.codes + (code,))


def not_down_closed(P) -> str:
    """The Mobius-interval check's refusal of ``stray_region(P)``: the first
    code of its box of differences, a - e_p, is missing under a = cage + 1."""
    outside = tuple(c + 1 for c in P.cage)
    missing = outside[:-1] + (outside[-1] - 1,)
    return "independence region is not down-closed: %s is missing under %s" % (missing, outside)


def test_mobius_interval_check_refuses_a_region_that_is_not_down_closed(monkeypatch, running):
    monkeypatch.setattr(genverify, "independence_points", stray_region)
    for P in [running] + [Q for Q in GENERATED[:40] if Q.p >= 2]:
        with pytest.raises(InternalInvariantFailure) as exc:
            CHECKS["mobius-interval-closed-form"](P)
        assert str(exc.value) == not_down_closed(P)
    assert not_down_closed(running) == "independence region is not down-closed: (3, 3) is missing under (3, 4)"


def test_verify_reports_a_stray_region_point_as_an_internal_error(monkeypatch):
    # p = 1: the planted region stays down-closed, and the other checks that read it report, not raise.
    monkeypatch.setattr(genverify, "independence_points", stray_region)
    out, err = io.StringIO(), io.StringIO()
    assert run_command(["verify", "--p", "1", "--count", "1"], stdout=out, stderr=err) == 3
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and re.fullmatch(r"internal error: \(\d+,\) is not in the independence region", lines[0])
    # p = 2: the Mobius-interval check, which runs first of the three, names the missing point.
    first = genverify.random_polymatroid(GeneratorConfig(seed=0, p=2, max_rank=4, max_cage_entry=3,
                                                         strategy="uniform-family"))
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--p", "2", "--count", "3", "--strategy", "uniform-family"]
    assert run_command(argv, stdout=out, stderr=err) == 3
    assert out.getvalue() == "" and err.getvalue() == "internal error: %s\n" % not_down_closed(first)
