"""Independence region, truncations, and the cave predicate."""

import pytest

from cavepoly import core
from cavepoly import (
    EmptyInput,
    NotInIndependence,
    Polymatroid,
    independence_points,
    is_cave,
    is_m_convex,
    truncate,
)
from cavepoly.algorithms import LexOrder, box_polynomial, mobius_table, stalactite_decomposition
from conftest import instance_mix
from oracles import independence_points_box_filter, top_elements

RUNNING_INDEPENDENCE = {
    (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1),
}
RUNNING_CAVE = {(0, 3), (1, 2), (2, 1), (0, 2), (1, 1)}


def test_region_walks_refuse_a_span_beyond_sys_maxsize():
    N = 2**70
    P = Polymatroid([(0, N), (1, N - 1)])
    for walk in (independence_points, mobius_table, box_polynomial):
        with pytest.raises(ValueError, match="^coordinate 2 spans %d lattice values" % (N + 2)):
            walk(P)


def test_independence_points_running(running):
    region = independence_points(running)
    assert region.points == RUNNING_INDEPENDENCE and region.p == 2
    assert region.ordered == tuple(sorted(RUNNING_INDEPENDENCE))
    assert region.codes == tuple(core.lattice_code(running).encode(region.ordered))


def test_independence_set_reads_the_walk_and_builds_its_set_on_first_read():
    P = Polymatroid([(0, 3), (1, 2), (2, 1)])  # a fresh instance: an empty memo store
    region = independence_points(P)
    assert list(region) == sorted(RUNNING_INDEPENDENCE) and "points" not in vars(region)
    assert region.points == RUNNING_INDEPENDENCE and region.points is independence_points(P).points
    assert independence_points(P) is region and "points" in vars(region)
    with pytest.raises(AttributeError):
        region.p = 3


def test_independence_points_small_cases():
    assert independence_points(Polymatroid([(0,)])).points == {(0,)}
    region = independence_points(Polymatroid([(1, 0), (0, 1)]))
    assert region.points == {(0, 0), (1, 0), (0, 1)}


def test_independence_equals_downward_closure():
    # The library enumerates the region as this down-closure, so the
    # subset-sum box filter is the independent side of the comparison.
    for P in instance_mix(20, seed=21, ps=(1, 2, 3, 4)):
        closure = set()
        for b in P.points:
            stack = [b]
            while stack:
                q = stack.pop()
                if q in closure:
                    continue
                closure.add(q)
                for i in range(P.p):
                    if q[i] > 0:
                        stack.append(q[:i] + (q[i] - 1,) + q[i + 1:])
        assert independence_points_box_filter(P) == closure
        assert independence_points(P).points == closure


def test_independence_region_is_downward_closed_and_anchored():
    for P in instance_mix(12, seed=50):
        region = independence_points(P).points
        assert (0,) * P.p in region
        assert P.points <= region
        for n in region:
            for i in range(P.p):
                if n[i] > 0:
                    assert n[:i] + (n[i] - 1,) + n[i + 1:] in region


def test_tops_of_independence_region_are_base_points():
    for P in instance_mix(12, seed=71):
        assert top_elements(independence_points(P).points) == P.points


def test_indicator_agrees_with_top_slice(running):
    # 1_P(n) of the cave formula is membership in P: the region's top slice.
    region = independence_points(running).points
    for n in region:
        assert (n in running) == (sum(n) == running.rank)


def test_truncate_running(running):
    assert truncate(running, (1, 1)).points == {(1, 2), (2, 1)}
    assert truncate(running, (0, 0)) == running
    assert truncate(running, (0, 3)).points == {(0, 3)}


def test_truncate_requires_independence_point(running):
    with pytest.raises(NotInIndependence):
        truncate(running, (2, 2))
    with pytest.raises(NotInIndependence):
        truncate(running, (-1, 0))


def test_every_truncation_is_m_convex():
    for P in instance_mix(10, seed=4):
        for n in independence_points(P).points:
            sub = truncate(P, n)
            assert is_m_convex(sub.points) == (True, None)
            assert sub.rank == P.rank


def test_top_elements():
    assert top_elements(RUNNING_CAVE) == {(0, 3), (1, 2), (2, 1)}
    assert top_elements({(4, 7)}) == {(4, 7)}
    assert top_elements({(1, 0), (0, 1), (0, 0)}) == {(1, 0), (0, 1)}
    with pytest.raises(EmptyInput):
        top_elements(set())


def test_truncation_set():
    # A threshold truncation {q >= b} is one AND of the exchange index's ``above`` rows.
    index = core.ExchangeIndex(sorted(RUNNING_CAVE))

    def truncation_set(b):
        mask = index.full
        for row, c in zip(index.above, b):
            mask &= row[c]
        return {index.ordered[k] for k in core._bits(mask)}

    assert truncation_set((1, 1)) == {(1, 2), (2, 1), (1, 1)}
    assert truncation_set((0, 0)) == RUNNING_CAVE
    assert truncation_set((0, 2)) == {(0, 3), (1, 2), (0, 2)}
    assert truncation_set((3, 0)) == set()


def test_is_cave_accepts_running_cave_set():
    report = is_cave(RUNNING_CAVE)
    assert report
    assert report.failed_condition is None
    assert report.order == (1, 2)


def test_is_cave_rejects_tops_only_set():
    # The bare base points miss the lower stalactite members (0,2) and (1,1).
    report = is_cave({(0, 3), (1, 2), (2, 1)})
    assert not report
    assert report.failed_condition == 2
    assert set(report.witness["missing"]) == {(0, 2), (1, 1)}


def test_is_cave_rejects_non_m_convex_tops():
    report = is_cave({(2, 0), (0, 2)})
    assert not report
    assert report.failed_condition == 1


def test_is_cave_judges_m_convexity_of_tops_before_their_signs(monkeypatch):
    # Non-M-convex tops with a negative coordinate: a condition-1 report.
    report = is_cave({(-1, 3), (1, 1), (0, 1)})
    assert (report.ok, report.failed_condition) == (False, 1)
    assert report.witness == is_m_convex({(-1, 3), (1, 1)})[1]
    # M-convex tops with a negative coordinate: the constructor's error.
    with pytest.raises(ValueError, match=r"polymatroid points must be nonnegative, got \(-1, 2\)"):
        is_cave({(-1, 2), (0, 1), (0, 0)})
    # The tops are validated once.
    calls = []
    m_convex_failure = core.ExchangeIndex.m_convex_failure

    def counted(index, mask=None):
        calls.append(frozenset(index.ordered[k] for k in core._bits(index.full if mask is None else mask)))
        return m_convex_failure(index, mask)

    monkeypatch.setattr(core.ExchangeIndex, "m_convex_failure", counted)
    assert is_cave(RUNNING_CAVE)
    assert calls == [frozenset({(0, 3), (1, 2), (2, 1)})]


def test_is_cave_builds_one_exchange_index_and_no_polymatroid(monkeypatch):
    unions = [set().union(*(st.members for st in stalactite_decomposition(P))) for P in instance_mix(6, seed=34)]
    built = []

    def counting(cls):
        init = cls.__init__

        def counted(self, points):
            built.append(cls)
            init(self, points)
        return counted

    for cls in (core.ExchangeIndex, Polymatroid):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    for C in [RUNNING_CAVE, {(0, 3), (1, 2), (2, 1)}, {(2, 0), (0, 2)}] + unions:
        built.clear()
        is_cave(C)
        assert built == [core.ExchangeIndex], sorted(C)


def test_is_cave_origin_singleton():
    assert is_cave({(0,)})


def test_is_cave_respects_the_order_parameter(running):
    # Either lex order must accept the union built from that same order.
    for perm in ((1, 2), (2, 1)):
        order = LexOrder(perm)
        union = set()
        for st in stalactite_decomposition(running, order):
            union |= st.members
        report = is_cave(union, order)
        assert report, (perm, report)
        assert report.order == perm


def test_is_cave_accepts_generated_unions():
    for P in instance_mix(10, seed=33):
        union = set()
        for st in stalactite_decomposition(P):
            union |= st.members
        assert is_cave(union)
