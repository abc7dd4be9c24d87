"""The output-sensitive kernels against the brute-force oracles in oracles.py.

Every comparison demands identical results, and identical failure witnesses
where a check fails, on generated polymatroids and on random point sets
that are not M-convex and not generalized polymatroids.
"""

import itertools
import json
import random

import pytest

from cavepoly import (
    GeneratorConfig,
    IndependenceSet,
    NotMConvex,
    Polymatroid,
    algorithms,
    core,
    genverify,
    geometry,
    homogenize,
    independence_points,
    is_generalized_polymatroid,
    is_m_convex,
    stalactite_decomposition,
    verify_campaign,
)
from cavepoly.algorithms import LexOrder
from cavepoly.genverify import CHECKS
from conftest import instance_mix
from oracles import (
    cave_condition_3_box_walk,
    independence_points_box_filter,
    is_generalized_polymatroid_pairwise,
    is_m_convex_pairwise,
    mobius_interval_check_scan,
    stalactite_decomposition_prefix,
)

GENERATED = instance_mix(120, seed=8_000, ps=(1, 2, 3, 4, 5), max_rank=6, max_cage_entry=4)
# Instances whose regions stay small enough for the quadratic oracles.
SMALL = [P for P in GENERATED if len(independence_points(P)) <= 40]


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
        assert exc.value.witness == witness
        raised += 1
    assert raised > 100


def test_is_generalized_polymatroid_matches_pairwise_with_witness():
    verdicts = set()
    for pts in random_sets(3, 3000):
        result = is_generalized_polymatroid(pts)
        assert result == is_generalized_polymatroid_pairwise(pts), sorted(pts)
        assert result[0] == is_m_convex(homogenize(pts))[0]
        verdicts.add(result[0])
    for P in SMALL:
        region = independence_points(P).points
        assert is_generalized_polymatroid(region) == is_generalized_polymatroid_pairwise(region)
    assert verdicts == {True, False}


def test_stalactite_decomposition_matches_prefix_scan():
    for P in GENERATED:
        perms = list(itertools.permutations(range(1, P.p + 1)))[:24]
        for perm in perms:
            order = LexOrder(perm)
            assert stalactite_decomposition(P, order) == stalactite_decomposition_prefix(P, order)


def test_cave_condition_3_matches_box_walk():
    failures = 0
    for pts in random_sets(4, 2500):
        expected = cave_condition_3_box_walk(pts, is_generalized_polymatroid_pairwise)
        assert geometry._truncation_failure(frozenset(pts)) == expected, sorted(pts)
        failures += expected is not None
    for P in SMALL:
        union = set().union(*(st.members for st in stalactite_decomposition(P)))
        assert geometry._truncation_failure(frozenset(union)) is None
        assert cave_condition_3_box_walk(union, is_generalized_polymatroid_pairwise) is None
    assert failures > 100


def test_mobius_interval_check_matches_scan(monkeypatch):
    instances = GENERATED[:40]
    for P in instances:
        assert CHECKS["mobius-interval-closed-form"](P) == mobius_interval_check_scan(P) == (True, None)

    def off_by_one(m, n):  # a fault in the closed form for intervals of length 2
        true = algorithms.mobius_interval(m, n)
        return true + 1 if sum(b - a for a, b in zip(m, n)) == 2 else true

    monkeypatch.setattr(genverify, "mobius_interval", off_by_one)
    caught = 0
    for P in instances:
        result = CHECKS["mobius-interval-closed-form"](P)
        assert result == mobius_interval_check_scan(P, off_by_one)
        caught += not result[0]
    assert caught > 10


def _campaign_documents():
    cfg = GeneratorConfig(seed=40, p=3, max_rank=4, max_cage_entry=3, strategy="lattice-path")
    report = verify_campaign(cfg, 12, checks=("kernel-probe",))
    return json.dumps(report.to_document(), sort_keys=True)


def test_campaign_shrinker_witnesses_match_oracle_kernels(monkeypatch):
    def kernel_probe(P):
        # Fails on every instance with more than three independence points;
        # the detail records a stalactite union and a cave verdict.
        region = geometry.independence_points(P).points
        union = set().union(*(st.members for st in algorithms.stalactite_decomposition(P)))
        report = geometry.is_cave(union | {max(region)})
        if len(region) > 3:
            return False, "|I|=%d |union|=%d cave=%s %s" % (
                len(region), len(union), report.failed_condition, report.witness)
        return True, None

    monkeypatch.setitem(CHECKS, "kernel-probe", kernel_probe)
    fast = _campaign_documents()
    assert '"failed": 0' not in fast

    def region_oracle(P):
        return IndependenceSet(P.p, independence_points_box_filter(P), P)

    # Cached polymatroids would skip the oracle M-convexity check.
    for cached in (core.points_from_rank, core.rank_from_points, geometry.independence_points):
        cached.cache_clear()

    for module in (geometry, algorithms, genverify):
        monkeypatch.setattr(module, "independence_points", region_oracle)
    monkeypatch.setattr(algorithms, "stalactite_decomposition", stalactite_decomposition_prefix)
    for module in (core, geometry):
        monkeypatch.setattr(module, "is_m_convex", is_m_convex_pairwise)
        monkeypatch.setattr(module, "is_generalized_polymatroid", is_generalized_polymatroid_pairwise)
    monkeypatch.setattr(geometry, "_truncation_failure",
                        lambda pts: cave_condition_3_box_walk(pts, is_generalized_polymatroid_pairwise))
    assert _campaign_documents() == fast
