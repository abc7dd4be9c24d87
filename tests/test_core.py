"""Rank-function axioms, point-set form, and conversions between them."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavepoly import (
    AxiomViolation,
    DimensionMismatch,
    EmptyInput,
    GeneratorConfig,
    NotMConvex,
    Polymatroid,
    RankFunction,
    is_m_convex,
    points_from_rank,
    random_polymatroid,
    rank_from_points,
    validate_rank_function,
)
from cavepoly.core import ExchangeIndex, LatticeCode, mask_to_subset, nonnegative_set, point_set
from cavepoly.geometry import CaveReport, is_cave
from conftest import instance_mix, run_bounded
from oracles import homogenize, is_generalized_polymatroid_pairwise

RUNNING_VALUES = [0, 2, 3, 3]  # mask order: (), (1,), (2,), (1, 2)


def all_subsets(p):
    for k in range(p + 1):
        yield from itertools.combinations(range(1, p + 1), k)


def rank_of(rk, subset):
    return rk.values[sum(1 << i - 1 for i in subset)]


def gp_failure(points):
    return ExchangeIndex(sorted(points)).gp_failure()


# ---------------------------------------------------------------- validation

def test_validate_running_example():
    rk = validate_rank_function(2, RUNNING_VALUES, (2, 3))
    assert rk.rank == 3
    assert rank_of(rk, (1,)) == 2
    assert rank_of(rk, (2,)) == 3
    assert rk.cage == (2, 3)


def test_validate_rank_zero_function():
    rk = validate_rank_function(1, [0, 0], (0,))
    assert rk.rank == 0


def test_validate_rejects_submodularity_break():
    with pytest.raises(AxiomViolation) as exc:
        validate_rank_function(2, [0, 2, 2, 5], (2, 2))
    assert ("submodular", ((1,), (2,))) in exc.value.violations


def test_validate_reports_every_violated_axiom():
    with pytest.raises(AxiomViolation) as exc:
        validate_rank_function(2, [1, 0, 0, 5], (0, 0))
    axioms = {axiom for axiom, _ in exc.value.violations}
    assert {"empty", "monotone", "submodular"} <= axioms


def test_validate_cage_axiom():
    with pytest.raises(AxiomViolation) as exc:
        validate_rank_function(1, [0, 3], (2,))
    assert exc.value.violations == [("cage", ((1,),))]


def test_validate_malformed_inputs():
    with pytest.raises(ValueError, match=r"^expected 4 rank values, got 2$"):
        validate_rank_function(2, [0, 1], (1, 1))  # missing subsets
    with pytest.raises(DimensionMismatch):
        validate_rank_function(2, RUNNING_VALUES, (2,))  # cage length
    with pytest.raises(DimensionMismatch):
        validate_rank_function(17, [], (0,) * 17)  # beyond the mask cap
    with pytest.raises(ValueError, match=r"^rank of \(1,\) is 1\.0, not an integer$"):
        validate_rank_function(2, [0, 1.0, 1, 1], [1, 1])
    with pytest.raises(ValueError, match=r"^p must be a positive integer, got 0$"):
        validate_rank_function(0, [0], [])
    with pytest.raises(ValueError, match=r"^expected 4 rank values, got 3$"):
        validate_rank_function(2, [0, 1, 1], (1, 1))
    # A mapping is refused whole: read as a sequence, its keys would be the ranks.
    for mapping in ({(): 0, (1,): 1}, {0: 0, 1: 1}):
        with pytest.raises(ValueError, match=r"^rank values must be a sequence indexed by bit mask, not a dict$"):
            validate_rank_function(1, mapping, (1,))


def test_rank_function_constructor_and_identity():
    with pytest.raises(ValueError, match=r"^expected 4 rank values, got 3$"):
        RankFunction(2, [0, 1, 1], (1, 1))
    with pytest.raises(DimensionMismatch, match=r"^cage has length 1, expected 2$"):
        RankFunction(2, [0, 1, 1, 2], (1,))
    rk = RankFunction(2, [0, 1, 1, 2], (1, 1))
    slack = RankFunction(2, [0, 1, 1, 2], (5, 5))  # the cage is metadata
    assert rk == slack and hash(rk) == hash(slack) and len({rk, slack}) == 1
    assert rk != (0, 1, 1, 2) and rk.__eq__(rk.values) is NotImplemented
    assert repr(rk) == "RankFunction(p=2, rank=2, cage=[1, 1])"


def test_validation_is_total_against_brute_force():
    # Random subset maps; the validator's verdict must match a from-scratch
    # check of all four axioms over every subset pair.
    rng = random.Random(424242)
    for _ in range(300):
        p = rng.randint(1, 3)
        values = {sub: rng.randint(0, 4) for sub in all_subsets(p)}
        values[()] = rng.choice([0, 0, 0, 1])
        cage = tuple(rng.randint(0, 4) for _ in range(p))
        subs = list(all_subsets(p))
        brute_ok = values[()] == 0
        brute_ok &= all(values[(i,)] <= cage[i - 1] for i in range(1, p + 1))
        for a in subs:
            for b in subs:
                if set(a) <= set(b) and values[a] > values[b]:
                    brute_ok = False
                union = tuple(sorted(set(a) | set(b)))
                inter = tuple(sorted(set(a) & set(b)))
                if values[a] + values[b] < values[union] + values[inter]:
                    brute_ok = False
        table = [values[mask_to_subset(mask)] for mask in range(1 << p)]
        if brute_ok:
            validate_rank_function(p, table, cage)
        else:
            with pytest.raises(AxiomViolation):
                validate_rank_function(p, table, cage)


# ------------------------------------------------------------- conversions

def test_points_from_rank_running_example():
    rk = validate_rank_function(2, RUNNING_VALUES, (2, 3))
    assert points_from_rank(rk).points == {(0, 3), (1, 2), (2, 1)}


def test_points_from_rank_zero():
    rk = validate_rank_function(1, [0, 0], (0,))
    assert points_from_rank(rk).points == {(0,)}


def test_points_from_rank_unit_ranks():
    rk = validate_rank_function(2, [0, 1, 1, 1], (1, 1))
    assert points_from_rank(rk).points == {(1, 0), (0, 1)}


def test_points_from_rank_matches_brute_enumeration():
    for P in instance_mix(12, seed=5):
        rk = rank_from_points(P)
        brute = set()
        bounds = [rank_of(rk, (i,)) for i in range(1, rk.p + 1)]
        for n in itertools.product(*(range(b + 1) for b in bounds)):
            if sum(n) != rk.rank:
                continue
            if all(sum(n[i - 1] for i in sub) <= rank_of(rk, sub) for sub in all_subsets(rk.p)):
                brute.add(n)
        assert points_from_rank(rk).points == brute


def test_rank_from_points_examples(running):
    rk = rank_from_points(running)
    assert rank_of(rk, (1,)) == 2 and rank_of(rk, (2,)) == 3 and rank_of(rk, (1, 2)) == 3
    rk0 = rank_from_points(Polymatroid([(0,)]))
    assert rank_of(rk0, ()) == 0 and rank_of(rk0, (1,)) == 0
    rk1 = rank_from_points(Polymatroid([(1, 0), (0, 1)]))
    assert rank_of(rk1, (1,)) == rank_of(rk1, (2,)) == rank_of(rk1, (1, 2)) == 1
    with pytest.raises(DimensionMismatch, match="beyond 16 coordinates"):
        rank_from_points(Polymatroid([(0,) * 17]))


def test_round_trip_points_to_rank_to_points():
    for P in instance_mix(18, seed=77):
        assert points_from_rank(rank_from_points(P)) == P


def test_round_trip_rank_to_points_to_rank():
    # A slack cage must not disturb value-level equality.
    loose = validate_rank_function(2, RUNNING_VALUES, (5, 9))
    assert rank_from_points(points_from_rank(loose)) == loose
    for P in instance_mix(18, seed=300):
        rk = rank_from_points(P)
        assert rank_from_points(points_from_rank(rk)) == rk


@given(st.integers(0, 10**9), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_round_trip_on_seeded_instances(seed, p):
    P = random_polymatroid(GeneratorConfig(seed=seed, p=p, max_rank=4, max_cage_entry=3))
    rk = rank_from_points(P)
    assert points_from_rank(rk) == P
    assert rank_from_points(points_from_rank(rk)) == rk


# ----------------------------------------------------------------- M-convexity

def test_m_convex_running_example():
    ok, witness = is_m_convex({(0, 3), (1, 2), (2, 1)})
    assert ok and witness is None


def test_m_convex_exchange_witness():
    ok, (u, v, i) = is_m_convex({(2, 0), (0, 2)})
    assert not ok
    assert u[i - 1] > v[i - 1]
    # the demanded exchange point would be (1, 1) in either orientation
    assert (1, 1) not in {(2, 0), (0, 2)}


def test_m_convex_singleton_and_errors():
    assert is_m_convex({(5,)}) == (True, None)
    with pytest.raises(DimensionMismatch):
        is_m_convex({(1, 2), (1,)})
    with pytest.raises(EmptyInput):
        is_m_convex(set())


def test_m_convex_flags_inhomogeneous():
    ok, (u, v, i) = is_m_convex({(1, 0), (1, 1)})
    assert not ok and i is None and sum(u) != sum(v)


def test_points_from_rank_output_is_m_convex():
    for P in instance_mix(15, seed=9):
        assert is_m_convex(P.points) == (True, None)


# ------------------------------------------------- generalized polymatroids

def test_generalized_examples():
    assert gp_failure({(1, 1), (1, 0), (0, 1), (0, 0)}) is None
    u, v, _ = gp_failure({(2, 0), (0, 0)})
    assert {u, v} == {(2, 0), (0, 0)}


def test_every_polymatroid_is_generalized():
    for P in instance_mix(15, seed=3):
        witness = gp_failure(P.points)
        assert witness is None, witness


def test_homogenize_examples():
    assert homogenize({(1, 1), (0, 1), (1, 0), (0, 0)}) == {(1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 2)}
    assert homogenize({(0, 3)}) == {(0, 3, 0)}
    assert homogenize({(0,)}) == {(0, 0)}


def test_homogenize_agrees_with_two_condition_form():
    # Dual oracle: the explicit exchange conditions against M-convexity of
    # the padded set, on random subsets of small boxes.
    rng = random.Random(2024)
    boxes = [list(itertools.product(range(3), repeat=2)),
             list(itertools.product(range(2), repeat=3))]
    for box in boxes:
        for _ in range(150):
            pts = frozenset(rng.sample(box, rng.randint(1, min(6, len(box)))))
            direct = gp_failure(pts) is None
            padded, _ = is_m_convex(homogenize(pts))
            assert direct == padded == is_generalized_polymatroid_pairwise(pts)[0], sorted(pts)


# ----------------------------------------------------------------- Polymatroid

def test_polymatroid_invariants(running):
    assert running.p == 2
    assert running.rank == 3
    assert running.cage == (2, 3)
    assert len(running) == 3
    assert (1, 2) in running
    assert list(running) == [(0, 3), (1, 2), (2, 1)]
    same = Polymatroid([(2, 1), (1, 2), (0, 3)])
    assert running == same and hash(running) == hash(same) and len({running, same}) == 1
    assert running != running.points and running.__eq__(running.points) is NotImplemented
    assert repr(running) == "Polymatroid([(0, 3), (1, 2), (2, 1)])"


def test_polymatroid_rejects_bad_inputs():
    with pytest.raises(EmptyInput):
        Polymatroid([])
    with pytest.raises(DimensionMismatch):
        Polymatroid([(1, 2), (3,)])
    with pytest.raises(ValueError):
        Polymatroid([(-1, 4)])
    with pytest.raises(NotMConvex) as exc:
        Polymatroid([(2, 0), (0, 2)])
    assert exc.value.witness is not None


# Each question costs O(points) on the sparse threshold masks, however large
# the entries; a table with one entry per value would not fit in memory.
@pytest.mark.parametrize("question, verdict", [
    ("cavepoly.is_m_convex(points)", lambda witness: (False, witness)),
    ("cavepoly.core.ExchangeIndex(sorted(points)).gp_failure()", lambda witness: witness),
], ids=["is_m_convex", "is_generalized_polymatroid"])
def test_exchange_questions_on_huge_entries_run_in_bounded_time_and_memory(question, verdict):
    code = "import cavepoly; N = 2**70; points = {(0, N), (N, 0)}; print(repr(%s))" % question
    N = 2**70
    assert run_bounded(code) == (0, "%r\n" % (verdict(((0, N), (N, 0), 2)),), "")


def test_polymatroid_refuses_points_of_length_zero():
    for points in ([()], {()}):
        with pytest.raises(DimensionMismatch, match=r"^points have length 0, expected at least 1$"):
            Polymatroid(points)
    # The cave predicate takes raw sets: the empty point is a cave there.
    assert is_cave({()}) == CaveReport(True, None, None, ())


def test_the_smallest_negative_point_is_named():
    points = [(2, -1), (-1, 2), (0, 1), (1, 0)]
    for order in (points, points[::-1], sorted(points)):
        with pytest.raises(ValueError, match=r"nonnegative, got \(-1, 2\)$"):
            Polymatroid(order)
    # is_cave refuses the same M-convex tops with the same message.
    with pytest.raises(ValueError, match=r"nonnegative, got \(-1, 2\)$"):
        is_cave(set(points) | {(0, 0), (-1, 1)})


# Recorded before ``point_set`` checked every coordinate in one test: the
# per-point loop that now runs only after that test fails names the same
# first offender, also when the points arrive from a generator.
@pytest.mark.parametrize("points, error", [
    ([(0, 1), (1, 0.5), ("x", 0)], (ValueError, "lattice point coordinates must be integers, got 0.5")),
    ((q for q in [[0, 1], [1, "x"]]), (ValueError, "lattice point coordinates must be integers, got 'x'")),
    ((iter(q) for q in [[0, 1], [2, 0.5]]), (ValueError, "lattice point coordinates must be integers, got 0.5")),
    ([(0, 1.5), 3], (ValueError, "lattice point coordinates must be integers, got 1.5")),
    ([(0, 1), 3], (TypeError, "'int' object is not iterable")),
    ([(0, 1), (1,)], (DimensionMismatch, "points have mixed lengths [1, 2]")),
    ([], (EmptyInput, "point set is empty")),
], ids=["later-point", "generator", "generator-vectors", "before-a-non-vector", "non-vector", "mixed", "empty"])
def test_point_set_names_the_first_bad_entry(points, error):
    with pytest.raises(error[0]) as exc:
        point_set(points)
    assert str(exc.value) == error[1]


def test_point_set_reads_a_bool_as_before():
    assert point_set([(0, 1), (True, 0)]) == frozenset({(0, 1), (1, 0)})
    with pytest.raises(ValueError, match=r"^polymatroid points must be nonnegative, got \(-1, 3\)$"):
        nonnegative_set([(0, 2), (1, -1), (-1, 3)])


def test_lattice_code_steps_and_decodes():
    code = LatticeCode((3, 1, 4))
    assert code.strides == (1, 3, 3)
    box = list(itertools.product(range(3), range(1), range(4)))
    assert sorted(code.encode(box)) == list(range(12))
    assert code.decode(code.encode(box)) == box
    assert code.encode([(2, 0, 1)])[0] + code.strides[2] == code.encode([(2, 0, 2)])[0]


def test_polymatroid_is_immutable(running):
    with pytest.raises(AttributeError):
        running.rank = 5
