"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  All
identities are exact (zero tolerance); the only tolerances are the stated
runtime budgets of criteria 1, 2 and 4.
"""

import io
import itertools
import json
import time

import pytest

from cavepoly import (
    LexOrder,
    MultiPoly,
    Polymatroid,
    box_polynomial,
    box_summands,
    cave_polynomial,
    expand_binomial,
    independence_points,
    is_cave,
    is_m_convex,
    mobius_interval,
    mobius_polynomial,
    mobius_table,
    snapper_eur_larson,
    snapper_from_cave,
    stalactite_decomposition,
    stalactite_polynomial,
    truncate,
)
from cavepoly.cli import parse_instance, run_command, serialize_instance
from conftest import instance_mix

GOLDEN = {(0, 3): 1, (1, 2): 1, (0, 2): -1, (2, 1): 1, (1, 1): -1}
GOLDEN_BOX_ORDERED = {(0, 3): 1, (0, 2): -1, (1, 2): 1, (1, 1): -1, (2, 1): 1}
GOLDEN_MOBIUS = {
    (0, 3): 1, (1, 2): 1, (2, 1): 1, (0, 2): -1, (1, 1): -1,
    (2, 0): 0, (0, 1): 0, (1, 0): 0, (0, 0): 0,
}
RUNNING_DOC = '{"points": [[0,3],[1,2],[2,1]]}'
RUNNING = [(0, 3), (1, 2), (2, 1)]


def report(num, ok, desc):
    print("criterion %2d [%s] %s" % (num, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


def best_uncached_time(points, work, repeats=7):
    """Best time of ``work(P)`` over fresh instances equal to ``points``, each
    built outside the timed region, so no run reuses another's results."""
    best = float("inf")
    for _ in range(repeats):
        P = Polymatroid(points)
        start = time.perf_counter()
        work(P)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def corpus():
    # >= 500 instances spanning p in 1..4, rank <= 6, cage entries <= 5,
    # across all three generation strategies.
    return instance_mix(504, seed=20_000, ps=(1, 2, 3, 4), max_rank=6, max_cage_entry=5)


@pytest.fixture(scope="module")
def small_corpus():
    return instance_mix(60, seed=90_000, ps=(1, 2, 3), max_rank=4, max_cage_entry=3)


def dominates(a, b):
    return all(x >= y for x, y in zip(a, b))


def test_criterion_01_golden_cave_and_stalactite():
    P = Polymatroid(RUNNING)
    expected = MultiPoly(2, GOLDEN)
    ok = cave_polynomial(P) == expected and stalactite_polynomial(P) == expected
    elapsed = best_uncached_time(RUNNING, lambda Q: (cave_polynomial(Q), stalactite_polynomial(Q)))
    ok = ok and elapsed < 1e-3
    report(1, ok, "cave and stalactite golden values (%.3f ms)" % (elapsed * 1e3))


def test_criterion_02_golden_mobius():
    P = Polymatroid(RUNNING)
    table_ok = dict(mobius_table(P).items()) == GOLDEN_MOBIUS
    poly_ok = mobius_polynomial(P) == MultiPoly(2, GOLDEN)
    elapsed = best_uncached_time(RUNNING, mobius_polynomial)
    ok = table_ok and poly_ok and elapsed < 1e-3
    report(2, ok, "nine Mobius values and polynomial (%.3f ms)" % (elapsed * 1e3))


def test_criterion_03_golden_box_with_trace():
    P = Polymatroid([(0, 3), (1, 2), (2, 1)])
    poly_ok = box_polynomial(P) == MultiPoly(2, GOLDEN_BOX_ORDERED)
    summands = box_summands(P)
    trace_ok = len(summands) == 9 and set(summands) == independence_points(P).points
    total = MultiPoly.zero(2)
    for term in summands.values():
        total = total + term
    trace_ok = trace_ok and total == box_polynomial(P)
    # spot-check two of the traced products against the worked expansion
    trace_ok = trace_ok and summands[(0, 3)] == MultiPoly(2, {(0, 3): 1, (0, 2): -1})
    trace_ok = trace_ok and summands[(2, 1)] == MultiPoly(
        2, {(2, 1): 1, (2, 0): -1, (1, 1): -1, (1, 0): 1})
    report(3, poly_ok and trace_ok, "box polynomial with nine-summand trace")


def test_criterion_04_four_way_equality_suite(corpus):
    start = time.perf_counter()
    bad = None
    for P in corpus:
        cave = cave_polynomial(P)
        if not (stalactite_polynomial(P) == cave == box_polynomial(P) == mobius_polynomial(P)):
            bad = P
            break
    elapsed = time.perf_counter() - start
    ok = bad is None and len(corpus) >= 500 and elapsed < 60
    report(4, ok, "four-way equality on %d instances (%.1f s)%s" % (
        len(corpus), elapsed, "" if bad is None else "; first failure %r" % bad))


def test_criterion_05_interval_mobius_oracle(small_corpus):
    instances = small_corpus[:50]
    bad = None
    for P in instances:
        region = sorted(independence_points(P).points)
        for m in region:
            # raw interval recurrence over the box [m, n], written out here
            # independently of the library implementation
            table = {}
            for a in sorted((a for a in region if dominates(a, m)), key=sum):
                if a == m:
                    table[a] = 1
                else:
                    table[a] = -sum(v for b, v in table.items() if dominates(a, b) and b != a)
                if mobius_interval(m, a) != table[a]:
                    bad = (P, m, a)
                    break
            if bad:
                break
        if bad:
            break
    report(5, bad is None and len(instances) >= 50,
           "closed-form interval Mobius vs raw recurrence on %d instances" % len(instances))


def test_criterion_06_counts_equal_mobius(corpus):
    bad = None
    for P in corpus:
        stal = stalactite_polynomial(P).terms
        table = mobius_table(P)
        for n in independence_points(P).points:
            if stal.get(n, 0) != table[n]:
                bad = (P, n)
                break
        if bad:
            break
    report(6, bad is None, "signed stalactite counts equal Mobius values pointwise")


def test_criterion_07_lex_order_invariance(corpus):
    tested = 0
    bad = None
    for P in corpus:
        if P.p > 3:
            continue
        tested += 1
        base = stalactite_polynomial(P)
        for perm in itertools.permutations(range(1, P.p + 1)):
            if stalactite_polynomial(P, LexOrder(perm)) != base:
                bad = (P, perm)
                break
        if bad:
            break
    report(7, bad is None and tested >= 100,
           "stalactite polynomial invariant under all p! orders (%d instances)" % tested)


def test_criterion_08_truncation_lemmas(small_corpus):
    instances = small_corpus[:50]
    bad = None
    for P in instances:
        stal = stalactite_polynomial(P).terms
        for n in independence_points(P).points:
            sub = truncate(P, n)
            if is_m_convex(sub.points) != (True, None):
                bad = ("m-convexity", P, n)
                break
            sub_stal = stalactite_polynomial(sub).terms
            for m in independence_points(sub).points:
                if dominates(m, n) and sub_stal.get(m, 0) != stal.get(m, 0):
                    bad = ("signed-count", P, n, m)
                    break
            if bad:
                break
        if bad:
            break
    report(8, bad is None and len(instances) >= 50,
           "truncations stay M-convex and preserve signed counts (%d instances)" % len(instances))


def test_criterion_09_coefficient_sum(corpus):
    bad = next((P for P in corpus if cave_polynomial(P).evaluate((1,) * P.p) != 1), None)
    report(9, bad is None, "cave coefficients sum to 1 on every instance")


def test_criterion_10_snapper_routes(corpus):
    bad = None
    for P in corpus:
        via_cave = snapper_from_cave(P)
        via_sum = snapper_eur_larson(P)
        zero = (0,) * P.p
        if expand_binomial(via_cave) != expand_binomial(via_sum):
            bad = (P, "expansion")
            break
        if via_cave.evaluate(zero) != 1 or via_sum.evaluate(zero) != 1:
            bad = (P, "value at zero")
            break
    report(10, bad is None, "both Snapper routes agree exactly and are 1 at zero")


def test_criterion_11_cave_predicate(corpus):
    bad = None
    rejected_negatives = 0
    for P in corpus:
        union = set()
        for st in stalactite_decomposition(P):
            union |= st.members
        if not is_cave(union):
            bad = (P, "union rejected")
            break
        if union != P.points:
            # tops-only variant: nontrivial stalactites exist, so the bare
            # base points cannot satisfy the union condition
            verdict = is_cave(P.points)
            if verdict or verdict.failed_condition != 2:
                bad = (P, "tops-only accepted")
                break
            rejected_negatives += 1
    ok = bad is None and rejected_negatives > 0
    report(11, ok, "cave predicate accepts all unions, rejects %d crafted negatives"
           % rejected_negatives)


def test_criterion_12_cli_contract(corpus):
    def run(argv, stdin=""):
        out, err = io.StringIO(), io.StringIO()
        status = run_command(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
        return status, out.getvalue(), err.getvalue()

    ok = True
    # round trip on a sample of generated instances
    for P in corpus[:40]:
        ok = ok and parse_instance(json.dumps(serialize_instance(P))) == P
    # determinism: byte-identical repeated outputs
    for argv in (["cave"], ["mobius", "--table"], ["verify", "--count", "3", "--p", "2"]):
        ok = ok and run(argv, stdin=RUNNING_DOC) == run(argv, stdin=RUNNING_DOC)
    # exit statuses: equality, cave-false, input error
    status, out, _ = run(["equal"], stdin=RUNNING_DOC)
    ok = ok and status == 0 and out.strip() == "EQUAL"
    ok = ok and run(["is-cave"], stdin=RUNNING_DOC)[0] == 1
    ok = ok and run(["cave"], stdin="{broken")[0] == 2
    ok = ok and run(["cave"], stdin='{"points": [[2,0],[0,2]]}')[0] == 2
    status, out, _ = run(["cave"], stdin=RUNNING_DOC)
    ok = ok and json.loads(out)["canonical"] == "t2^3 + t1^2*t2 + t1*t2^2 - t2^2 - t1*t2"
    report(12, ok, "CLI round-trip, determinism and exit-status fixtures")
