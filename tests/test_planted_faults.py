"""Planted faults that make the lex-order, cave-support, cave-predicate,
four-way, coefficient-sum, cancellation-free, counts-equal-Mobius and
Snapper-routes checks, and ``is_cave``'s condition 2 and 3 reports, return
False, and one that makes a check raise on the shrinker's candidates.

Each fault is monkeypatched into a function that the routes and the checks
it guards share, so it reaches a check however the check is built.  The outcomes (every failing check with its detail string, per
instance, and one small campaign per fault with its shrunk witness) are
compared with ``golden/planted_faults.json``.  Run this file as a script to
write that file again:

    PYTHONPATH=src python tests/test_planted_faults.py
"""

import io
import json
from pathlib import Path

import pytest

from cavepoly import core, genverify, polyalg
from cavepoly.algorithms import MobiusTable
from cavepoly.cli import run_command
from cavepoly.errors import CavepolyError
from cavepoly.genverify import GeneratorConfig, random_polymatroid, verify_campaign, verify_instance
from cavepoly.geometry import independence_points, is_cave
from cavepoly.polyalg import MultiPoly, RationalPoly

GOLDEN = Path(__file__).with_name("golden") / "planted_faults.json"

INSTANCES = [GeneratorConfig(seed=seed, p=p, max_rank=6, max_cage_entry=4, strategy=strategy)
             for p, seed, strategy in ((2, 3, "uniform-family"), (3, 5, "lattice-path"),
                                       (3, 6, "submodular-rejection"), (4, 0, "uniform-family"),
                                       (4, 5, "submodular-rejection"), (4, 6, "lattice-path"),
                                       (5, 0, "uniform-family"), (5, 5, "lattice-path"))]
CAMPAIGN = GeneratorConfig(seed=5, p=3, max_rank=6, max_cage_entry=4, strategy="uniform-family")


def _last_apex(index, order, pairs) -> int:
    """The position in ``pairs`` of the apex that comes last in ``order``."""
    return max(range(len(pairs)), key=lambda t: order.key(index.ordered[pairs[t][0]]))


def _drop_last_apex(stalactites):
    """Decompositions of two or more apexes under non-identity orders lose
    the apex that comes last in the order, and so its stalactite."""
    def faulty(index, order, mask=None):
        pairs = stalactites(index, order, mask)
        if len(pairs) > 1 and list(order.permutation) != sorted(order.permutation):
            del pairs[_last_apex(index, order, pairs)]
        return pairs
    return faulty


def _flipped_direction(stalactites):
    """Decompositions of two or more apexes under the orders with the
    ``precedence`` of the reverse of the identity order, which the kernel
    cannot tell from it, have the last apex's lowest direction bit flipped.
    Not in ``FAULTS``: it serves the lex-order check's differential test."""
    def faulty(index, order, mask=None):
        pairs = stalactites(index, order, mask)
        reverse = core.LexOrder(tuple(range(index.p, 0, -1)))
        if len(pairs) > 1 and index.precedence(order) == index.precedence(reverse):
            t = _last_apex(index, order, pairs)
            pairs[t] = pairs[t][0], pairs[t][1] ^ 1
        return pairs
    return faulty


def _stray_member(counts):
    """The stalactite union gains the smallest region point outside it."""
    def faulty(P, order=None):
        out = counts(P, order)
        outside = sorted(independence_points(P).points - out.keys())
        if outside:
            out[outside[0]] = 1
        return out
    return faulty


def _lost_member(counts):
    """The stalactite union loses its smallest point below the top degree."""
    def faulty(P, order=None):
        out = counts(P, order)
        below = [n for n in out if sum(n) < P.rank]
        if below:
            del out[min(below)]
        return out
    return faulty


def _adjacent_pair_gp_failure(gp_failure):
    """Every subset fails the generalized-polymatroid conditions at its
    first two points u, v (list order) with v - u = e_i - e_j, reported as
    (u, v, j).  Like a real failing pair, such a pair fails every larger
    subset that holds it."""
    def faulty(index, mask=None):
        if mask is not None:
            points = [index.ordered[k] for k in core._bits(mask)]
            for k, u in enumerate(points):
                for v in points[k + 1:]:
                    steps = [b - a for a, b in zip(u, v)]
                    if sum(steps) == 0 and sum(map(abs, steps)) == 2:
                        return u, v, steps.index(-1) + 1
        return gp_failure(index, mask)
    return faulty


def _flipped_cave_term(cave_polynomial):
    """The cave polynomial's coefficient at its smallest exponent changes sign."""
    def faulty(P):
        terms = dict(cave_polynomial(P).terms)
        low = min(terms)
        terms[low] = -terms[low]
        return MultiPoly(P.p, terms)
    return faulty


def _halved_independence_sum(expand_binomial):
    """The expansion of the independence sum (the shift -1 basis) has every
    coefficient halved; the cave route's expansion is left as it is."""
    def faulty(b):
        q = expand_binomial(b)
        return q if b.shift != -1 else RationalPoly(q.p, {e: c / 2 for e, c in q.terms.items()})
    return faulty


def _stray_count(counts):
    """The stalactite counts gain the point one past the cage, which lies
    outside the independence region."""
    def faulty(P, order=None):
        out = counts(P, order)
        out[tuple(c + 1 for c in P.cage)] = 1
        return out
    return faulty


def _constant_binomial_term(store):
    """Every binomial-basis polynomial gains 1 at the zero index, in the
    storing step that its public and private constructors share.  Both
    Snapper routes gain the same constant, so their expansions still agree
    and each reads 2 at the zero vector."""
    def faulty(self, p, terms, shift):
        terms, zero = dict(terms), (0,) * p
        terms[zero] = terms.get(zero, 0) + 1
        store(self, p, {key: c for key, c in terms.items() if c}, shift)
    return faulty


def _mobius_fails_then_raises(mobius_table):
    """From p = 2 up the Mobius value at the origin is one too large; at
    p = 1, which only a shrink candidate has here, the table raises."""
    def faulty(P):
        if P.p < 2:
            raise CavepolyError("planted fault at p = 1")
        table = mobius_table(P)
        origin = (0,) * P.p
        return MobiusTable(table.p, table.rank, {**table.values, origin: table[origin] + 1})
    return faulty


FAULTS = {
    "drop-last-apex": (core.ExchangeIndex, "stalactites", _drop_last_apex, "lex-order-invariance"),
    "stray-member": (genverify, "stalactite_counts", _stray_member, "cave-predicate"),
    "lost-member": (genverify, "stalactite_counts", _lost_member, "cave-support"),
    "adjacent-pair-gp-failure": (core.ExchangeIndex, "gp_failure", _adjacent_pair_gp_failure, "cave-predicate"),
    "flipped-cave-term": (genverify, "cave_polynomial", _flipped_cave_term, "cancellation-free"),
    "halved-independence-sum-expansion": (genverify, "expand_binomial", _halved_independence_sum, "snapper-routes"),
    "stray-count": (genverify, "stalactite_counts", _stray_count, "counts-equal-mobius"),
    "constant-binomial-term": (polyalg.BinomialBasisPoly, "_store", _constant_binomial_term, "snapper-routes"),
    "mobius-fails-then-raises": (genverify, "mobius_table", _mobius_fails_then_raises, "counts-equal-mobius"),
}


def fault_outcomes(fault, patch) -> dict:
    """Under ``fault``: the failing checks of each fresh instance, as
    (name, detail) lists, and the document of a small campaign over the
    check the fault is aimed at."""
    owner, name, plant, check = FAULTS[fault]
    patch.setattr(owner, name, plant(getattr(owner, name)))
    failures = [[[r.name, r.detail] for r in verify_instance(random_polymatroid(cfg)).failures()]
                for cfg in INSTANCES]
    return {"failures": failures, "campaign": verify_campaign(CAMPAIGN, 3, checks=(check,)).to_document()}


@pytest.mark.parametrize("fault", FAULTS)
def test_planted_fault_outcomes_match_recorded(fault, monkeypatch):
    recorded = json.loads(GOLDEN.read_text())[fault]
    assert json.loads(json.dumps(fault_outcomes(fault, monkeypatch))) == recorded
    aimed = FAULTS[fault][3]
    assert any(name == aimed for failures in recorded["failures"] for name, _ in failures)
    assert recorded["campaign"]["failures"], fault


def test_flipped_cave_term_fails_every_check_that_reads_the_cave_polynomial_whole():
    recorded = json.loads(GOLDEN.read_text())["flipped-cave-term"]["failures"]
    for failures in recorded:
        assert {"four-way-equality", "coefficient-sum", "cancellation-free"} <= {name for name, _ in failures}


def test_halved_independence_sum_fails_the_snapper_routes_check_alone():
    recorded = json.loads(GOLDEN.read_text())["halved-independence-sum-expansion"]["failures"]
    assert recorded == [[["snapper-routes", "the two Snapper expansions differ"]]] * len(INSTANCES)


def test_stray_count_zero_snapper_and_raising_candidates_take_their_own_verdict_paths():
    recorded = json.loads(GOLDEN.read_text())
    for failures in recorded["stray-count"]["failures"]:
        assert failures[0][1].startswith("stalactite count outside independence region at ")
    assert recorded["constant-binomial-term"]["failures"] == [
        [["snapper-routes", "Snapper at the zero vector is 2 / 2, expected 1"]]] * len(INSTANCES)
    # Every p = 1 candidate raised, so each witness stops at p = 2.
    assert {len(f["shrunk_points"][0]) for f in recorded["mobius-fails-then-raises"]["campaign"]["failures"]} == {2}


def test_verify_command_under_flipped_cave_term_matches_golden(monkeypatch):
    """The text of a ``cavepoly verify`` document with failures, whose
    records (a detail string and point lists) json's encoder writes."""
    owner, name, plant, _ = FAULTS["flipped-cave-term"]
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    out, err = io.StringIO(), io.StringIO()
    status = run_command(["verify", "--p", "4", "--max-rank", "6", "--max-cage-entry", "4", "--count", "20"],
                         stdin=io.StringIO(), stdout=out, stderr=err)
    assert (status, err.getvalue()) == (1, "")
    assert out.getvalue() == GOLDEN.with_name("verify_p4_flipped_cave_term.json").read_text()


def test_is_cave_reports_conditions_2_and_3_under_planted_faults(monkeypatch):
    union = {(0, 3), (1, 2), (2, 1), (0, 2), (1, 1)}  # the running example's cave
    assert is_cave(union)
    missing = is_cave(union - {(0, 2)})
    extra = is_cave(union | {(0, 0)})
    assert (missing.failed_condition, missing.witness) == (2, {"missing": ((0, 2),), "extra": ()})
    assert (extra.failed_condition, extra.witness) == (2, {"missing": (), "extra": ((0, 0),)})
    monkeypatch.setattr(core.ExchangeIndex, "gp_failure", _adjacent_pair_gp_failure(core.ExchangeIndex.gp_failure))
    report = is_cave(union)
    assert (report.failed_condition, report.witness) == (3, {"at": (0, 1), "witness": ((0, 2), (1, 1), 2)})


if __name__ == "__main__":
    document = {}
    for fault in FAULTS:
        with pytest.MonkeyPatch.context() as patch:
            document[fault] = fault_outcomes(fault, patch)
    GOLDEN.write_text(json.dumps(document, indent=1) + "\n")
