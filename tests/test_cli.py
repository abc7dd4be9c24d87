"""JSON parsing, document formats, command dispatch, and exit statuses."""

import io
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavepoly import AxiomViolation, NotMConvex, ParseError
from cavepoly.cli import (
    _emit,
    _encoder,
    parse_instance,
    polynomial_document,
    rank_document,
    run_command,
    serialize_instance,
)
from conftest import instance_mix, run_bounded

RUNNING_DOC = '{"points": [[0,3],[1,2],[2,1]]}'
GOLDEN = Path(__file__).with_name("golden")


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    status = run_command(argv, stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


# -------------------------------------------------------------------- parsing

def test_parse_points_form():
    P = parse_instance(RUNNING_DOC)
    assert P.points == {(0, 3), (1, 2), (2, 1)}


def test_parse_rank_form():
    doc = '{"rank": {"p": 1, "cage": [0], "values": {"[]": 0, "[1]": 0}}}'
    assert parse_instance(doc).points == {(0,)}


def test_parse_rank_form_running_example():
    doc = json.dumps({"rank": {"p": 2, "cage": [2, 3],
                               "values": {"[]": 0, "[1]": 2, "[2]": 3, "[1,2]": 3}}})
    assert parse_instance(doc).points == {(0, 3), (1, 2), (2, 1)}


def test_parse_rejects_non_m_convex():
    with pytest.raises(NotMConvex):
        parse_instance('{"points": [[2,0],[0,2]]}')


def test_parse_rejects_axiom_violations():
    doc = '{"rank": {"p": 2, "cage": [2, 2], "values": {"[]": 0, "[1]": 2, "[2]": 2, "[1,2]": 5}}}'
    with pytest.raises(AxiomViolation):
        parse_instance(doc)


@pytest.mark.parametrize("bad", [
    "not json",
    "[1, 2]",
    "{}",
    '{"points": [[0,3]], "rank": {}}',
    '{"points": []}',
    '{"points": [[0,3],[1,2,9]]}',
    '{"points": [[-1,4]]}',
    '{"points": [[0.5,1]]}',
    '{"rank": {"p": 2, "cage": [1,1], "values": {"[]": 0}}}',
    '{"rank": {"p": 1, "cage": [0]}}',
    '{"rank": {"p": 1, "cage": [0], "values": [0, 0]}}',
    '{"rank": {"p": 2, "cage": [1,1], "values": {"[3]": 0}}}',
    '{"rank": {"p": 2, "cage": [1], "values": {"[]": 0, "[1]": 1, "[2]": 1, "[1,2]": 1}}}',
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_instance(bad)


# Recorded before ``_parse_point_list`` tested every coordinate at once.
@pytest.mark.parametrize("points, message", [
    ("[[0,1],[1,0],[2,true]]", "points[2] is not an integer vector"),
    ("[[false]]", "points[0] is not an integer vector"),
    ("[[0,1],[1,-1],[1.5,0]]", "points[1] has a negative coordinate"),
    ("[[0,2],[1,1],[1.5,-1]]", "points[2] is not an integer vector"),
    ("[[0,1],[1,0],5]", "points[2] is not an integer vector"),
    ("[[0,1],[1,0],[-1,2]]", "points[2] has a negative coordinate"),
    ("[[0,1],[1,0],[1]]", "points have mixed lengths [1, 2]"),
])
@pytest.mark.parametrize("command", ["validate", "is-cave"])
def test_point_list_errors_name_the_first_bad_point(command, points, message):
    assert run([command], stdin='{"points": %s}' % points) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("keys", [("[1,2]", "[1, 2]"), ("[1, 2]", "[1,2]")])
def test_rank_document_naming_a_subset_twice_is_rejected(keys):
    values = '"[]": 0, "[1]": 2, "[2]": 3, "%s": 3, "%s": 4' % keys
    doc = '{"rank": {"p": 2, "cage": [2, 3], "values": {%s}}}' % values
    with pytest.raises(ParseError):
        parse_instance(doc)
    status, out, err = run(["validate"], stdin=doc)
    assert (status, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("values", [(3, 4), (4, 3)])
def test_repeated_json_key_is_rejected(values):
    # The same spelling twice: json.loads alone would keep the last value.
    doc = '{"rank": {"p": 2, "cage": [2, 3], "values": {"[]": 0, "[1]": 2, "[2]": 3, "[1,2]": %d, "[1,2]": %d}}}' % values
    with pytest.raises(ParseError, match=r'key "\[1,2\]" appears twice'):
        parse_instance(doc)
    status, out, err = run(["validate"], stdin=doc)
    assert (status, out) == (2, "")
    assert err == 'error: key "[1,2]" appears twice in one JSON object\n'
    for repeated in ('{"points": [[0,3]], "points": [[1,2]]}', '{"rank": {"p": 1, "p": 1}}'):
        assert run(["validate"], stdin=repeated)[0] == 2
    # The first key repeated in document order is named, not the first one spelled.
    assert run(["validate"], stdin='{"a": 1, "b": 2, "b": 3, "a": 4}') == (
        2, "", 'error: key "b" appears twice in one JSON object\n')


RUNNING_RANK_VALUES = '"[]": 0, "[1]": 2, "[2]": 3'


@pytest.mark.parametrize("extra, message", [
    ('"[1,2]": 3, "[2,1]": 3', "subset key '[2,1]' is not a sorted set of indices in 1..2"),
    ('"[1,2]": 3, "[1": 0', "bad subset key '[1', expected e.g. \"[1,2]\""),
    ('"[1,2]": 3, "[0]": 0', "subset key '[0]' is not a sorted set of indices in 1..2"),
    ('"[1,2]": 3, "[3]": 0', "subset key '[3]' is not a sorted set of indices in 1..2"),
    ('"[1,2]": 3, "[1.0]": 2', "bad subset key '[1.0]', expected a list of indices"),
    ('"[1,2]": 3, "[1, 2]": 4', "subset key '[1, 2]' repeats a subset named by an earlier key"),
    ('"[1, 2]": 3, "[1,2]": 4', "subset key '[1,2]' repeats a subset named by an earlier key"),
    ('"[1,2]": 3, " [1,  2] ": 3', "subset key ' [1,  2] ' repeats a subset named by an earlier key"),
])
def test_bad_subset_keys_keep_their_messages(extra, message):
    doc = '{"rank": {"p": 2, "cage": [2, 3], "values": {%s, %s}}}' % (RUNNING_RANK_VALUES, extra)
    assert run(["validate"], stdin=doc) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("values, message", [
    (RUNNING_RANK_VALUES, "rank map missing subsets, e.g. (1, 2)"),
    ('"[]": 0, "[1,2]": 3, "[1]": 2', "rank map missing subsets, e.g. (2,)"),
    ('%s, "[2,1]": 3' % RUNNING_RANK_VALUES, "subset key '[2,1]' is not a sorted set of indices in 1..2"),
])
def test_rank_document_missing_or_unsorted_subsets_are_refused(values, message):
    doc = '{"rank": {"p": 2, "cage": [2, 3], "values": {%s}}}' % values
    assert run(["validate"], stdin=doc) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("spelling", [
    lambda doc: json.dumps(doc),
    lambda doc: json.dumps(doc, separators=(", ", ": ")),
    lambda doc: json.dumps({"rank": dict(doc["rank"], values={
        json.dumps(json.loads(key)): value for key, value in doc["rank"]["values"].items()})}),
    lambda doc: json.dumps({"rank": dict(doc["rank"], values={
        " [ %s ] " % " ,  ".join(key[1:-1].split(",")): value for key, value in doc["rank"]["values"].items()})}),
])
def test_rank_document_key_spellings_give_the_compact_output(spelling):
    for P in instance_mix(6, seed=67, ps=(2, 3, 4)):
        doc = rank_document(P)
        for argv in (["validate"], ["cave"], ["mobius", "--table"]):
            assert run(argv, stdin=spelling(doc)) == run(argv, stdin=json.dumps(doc, separators=(",", ":")))


@pytest.mark.parametrize("rank, message", [
    ({"p": True, "cage": [1], "values": {"[]": 0, "[1]": 1}}, '"p" must be a positive integer'),
    ({"p": 1, "cage": [True], "values": {"[]": 0, "[1]": 1}}, '"cage" must be a list of 1 integers'),
    ({"p": 1, "cage": [1], "values": {"[]": 0, "[1]": True}}, "rank of [1] is not an integer"),
    ({"p": 1, "cage": [1], "values": {"[]": 0, "[true]": 1}}, "bad subset key '[true]', expected a list of indices"),
])
def test_rank_document_refuses_json_booleans(rank, message):
    doc = json.dumps({"rank": rank})
    assert run(["validate"], stdin=doc) == (2, "", "error: %s\n" % message)
    assert run(["validate"], stdin=doc.replace("true", "1"))[0] == 0


SPELLED_VALUES = {"[]": 0, "[1]": 2, "[2]": 1, "[3]": 2, "[1,2]": 3, "[1,3]": 3, "[2,3]": 3, "[1,2,3]": 3}


def spelled_rank_doc(values):
    return json.dumps({"rank": {"p": 3, "cage": [2, 1, 2], "values": values}})


def test_rank_document_spellings_read_the_same_table():
    """Compact keys (read in mask order), keys with spaces and shuffled keys
    (read key by key) give one polymatroid; a subset spelled twice and a
    non-integer value give the one error line recorded before the compact
    keys were read in mask order."""
    spaced = {key.replace(",", ", "): v for key, v in SPELLED_VALUES.items()}
    shuffled = dict(reversed(SPELLED_VALUES.items()))
    # 2^p keys, one spelled with a space: the one-pass read misses it.
    respelled = {("[1, 3]" if key == "[1,3]" else key): v for key, v in SPELLED_VALUES.items()}
    P = parse_instance(spelled_rank_doc(SPELLED_VALUES))
    assert len(P) == 5 and parse_instance(spelled_rank_doc(spaced)) == parse_instance(spelled_rank_doc(shuffled)) == P
    assert parse_instance(spelled_rank_doc(respelled)) == P
    refused = [
        ({**SPELLED_VALUES, "[1, 3]": 3}, "subset key '[1, 3]' repeats a subset named by an earlier key"),
        ({"[1, 3]": 3, **SPELLED_VALUES}, "subset key '[1,3]' repeats a subset named by an earlier key"),
        ({**SPELLED_VALUES, "[2]": True}, "rank of [2] is not an integer"),
        ({**SPELLED_VALUES, "[1,3]": 1.5}, "rank of [1,3] is not an integer"),
        ({**SPELLED_VALUES, "[1]": 1.5, "[2,3]": True}, "rank of [1] is not an integer"),
        ({**spaced, "[1, 3]": True}, "rank of [1, 3] is not an integer"),
        ({("[4]" if key == "[1,3]" else key): v for key, v in SPELLED_VALUES.items()},
         "subset key '[4]' is not a sorted set of indices in 1..3"),
    ]
    for values, message in refused:
        assert run(["validate"], stdin=spelled_rank_doc(values)) == (2, "", "error: %s\n" % message), values


def test_rank_document_refuses_p_beyond_the_ground_set_bound(monkeypatch):
    from cavepoly import cli

    def no_table(p):
        raise AssertionError("a table of 2^p subset keys was built")

    monkeypatch.setattr(cli, "_subset_spellings", no_table)
    # A well-formed cage for p = 17 and 40, so only the bound stops the table.
    for p, cage in ((17, [1] * 17), (40, [1] * 40), (10 ** 12, [1])):
        doc = json.dumps({"rank": {"p": p, "cage": cage, "values": {"[]": 0}}})
        assert run(["validate"], stdin=doc) == (2, "", "error: ground sets larger than 16 are not supported\n")


def test_parse_accepts_bytes():
    assert parse_instance(RUNNING_DOC.encode()).rank == 3


def test_round_trip_serialize_parse():
    for P in instance_mix(15, seed=65):
        assert parse_instance(json.dumps(serialize_instance(P))) == P


def test_round_trip_via_rank_document():
    for P in instance_mix(12, seed=66):
        assert parse_instance(json.dumps(rank_document(P))) == P


def test_polynomial_document_is_canonically_sorted():
    from cavepoly import cave_polynomial
    doc = polynomial_document(cave_polynomial(parse_instance(RUNNING_DOC)))
    assert doc["basis"] == "monomial"
    assert [t["exponents"] for t in doc["terms"]] == [[0, 3], [2, 1], [1, 2], [0, 2], [1, 1]]
    assert doc["canonical"] == "t2^3 + t1^2*t2 + t1*t2^2 - t2^2 - t1*t2"
    with pytest.raises(TypeError, match="^cannot serialize 'dict'$"):
        polynomial_document({(0, 3): 1})


# ------------------------------------------------------------------- commands

def test_validate_command():
    status, out, _ = run(["validate"], stdin=RUNNING_DOC)
    assert status == 0
    doc = json.loads(out)
    assert doc == {"valid": True, "p": 2, "rank": 3, "base_points": 3, "cage": [2, 3]}


def wide_rank_document(p=12):
    """Uniform rank 2 on p elements of cage 2: C(p, 2) + p base points,
    inside a singleton-rank box of 3^p candidates."""
    values = {json.dumps(list(s)): min(2, 2 * len(s))
              for k in range(p + 1) for s in itertools.combinations(range(1, p + 1), k)}
    return json.dumps({"rank": {"p": p, "cage": [2] * p, "values": values}})


def test_validate_wide_rank_document():
    status, out, _ = run(["validate"], stdin=wide_rank_document())
    assert status == 0
    assert json.loads(out) == {"valid": True, "p": 12, "rank": 2, "base_points": 78, "cage": [2] * 12}


def test_mobius_table_wide_rank_document_matches_golden():
    # CI pipes the same document into the installed console script and
    # compares its stdout with this file.
    status, out, _ = run(["mobius", "--table"], stdin=wide_rank_document())
    assert status == 0
    assert out == (GOLDEN / "mobius_table_wide.json").read_text()


def ladder_rank_document(r=8, m=(4,) * 4):
    """The rank document of the uniform ladder row rk(S) = min(r, sum of m
    over S), subsets in (size, lex) order, as the benchmark writes it."""
    p = len(m)
    subsets = [list(s) for k in range(p + 1) for s in itertools.combinations(range(1, p + 1), k)]
    values = {json.dumps(s, separators=(",", ":")): min(r, sum(m[i - 1] for i in s)) for s in subsets}
    return json.dumps({"rank": {"p": p, "cage": list(m), "values": values}})


@pytest.mark.parametrize("argv, golden", [
    (["cave"], "cave_ladder_row.json"),
    (["snapper", "--expand"], "snapper_expand_ladder_row.json"),
    (["independence"], "independence_ladder_row.json"),
    (["box"], "box_ladder_row.json"),
    (["snapper"], "snapper_ladder_row.json"),
    (["stal", "--order", "4,2,1,3"], "stal_order_ladder_row.json"),
    (["mobius"], "mobius_ladder_row.json"),
])
def test_ladder_row_documents_match_golden(argv, golden):
    # CI pipes the same document into the installed console script and
    # compares its stdout with these files.
    status, out, _ = run(argv, stdin=ladder_rank_document())
    assert status == 0
    assert out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("command", ["points", "independence"])
def test_point_list_documents_match_golden(command):
    # Long lists of integer vectors; CI pipes the same document into the
    # installed console script and compares its stdout with these files.
    status, out, _ = run([command], stdin=ladder_rank_document(3, (2, 1) * 5))
    assert status == 0
    assert out == (GOLDEN / ("%s_ladder_r3_p10.json" % command)).read_text()


def test_snapper_expansion_of_a_wide_document_matches_golden():
    # 226 terms in a box of 7776 slots, so the expansion takes the sparse
    # layout; the (8; [4]x4) ladder row's golden pins the dense one.  CI
    # pipes the same document into the installed console script and
    # compares its stdout with this file.
    status, out, _ = run(["snapper", "--expand"], stdin=ladder_rank_document(3, (2, 1) * 5))
    assert status == 0
    assert out == (GOLDEN / "snapper_expand_ladder_r3_p10.json").read_text()


def test_independence_of_one_base_matches_golden():
    # One base point: the region is the box [0, u], 24 points.  CI pipes the
    # same document into the installed console script and compares its
    # stdout with this file.
    status, out, _ = run(["independence"], stdin='{"points": [[2, 0, 3, 1]]}')
    assert status == 0
    assert out == (GOLDEN / "independence_one_base_box.json").read_text()


def test_is_cave_on_a_ladder_row_region_matches_golden():
    # Condition 2 fails with 82 points in "extra", held as tuples.  CI pipes
    # the installed console script's region into its is-cave command and
    # compares the exit status and stdout with this file.
    status, region, _ = run(["independence"], stdin=ladder_rank_document())
    assert status == 0
    status, out, _ = run(["is-cave"], stdin=region)
    assert status == 1
    assert out == (GOLDEN / "is_cave_ladder_region.json").read_text()


@pytest.mark.parametrize("argv", [["cave"], ["snapper", "--expand"], ["points"], ["independence"],
                                  ["mobius", "--table"]], ids=" ".join)
def test_document_bulk_never_reaches_the_json_encoder(argv, monkeypatch):
    """The uniform-list rule renders every list of vectors or records of a
    ladder row's documents; json's encoder sees only small values."""
    seen, encode = [], _encoder.encode
    monkeypatch.setattr(_encoder, "encode", lambda value: seen.append(value) or encode(value))
    status, out, _ = run(argv, stdin=ladder_rank_document())
    assert status == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
    nested = [value for value in seen if isinstance(value, (list, tuple))
              and any(isinstance(item, (list, tuple, dict)) for item in value)]
    assert not nested, nested


def test_points_and_independence_commands():
    status, out, _ = run(["points"], stdin=RUNNING_DOC)
    assert status == 0 and json.loads(out) == {"points": [[0, 3], [1, 2], [2, 1]]}
    status, out, _ = run(["independence"], stdin=RUNNING_DOC)
    assert status == 0
    assert json.loads(out)["points"] == [
        [0, 0], [0, 1], [0, 2], [0, 3], [1, 0], [1, 1], [1, 2], [2, 0], [2, 1]]


def test_cave_command_golden():
    status, out, _ = run(["cave"], stdin=RUNNING_DOC)
    assert status == 0
    assert json.loads(out)["canonical"] == "t2^3 + t1^2*t2 + t1*t2^2 - t2^2 - t1*t2"


def test_polynomial_commands_agree():
    docs = {}
    for cmd in ("cave", "stal", "box", "mobius"):
        status, out, _ = run([cmd], stdin=RUNNING_DOC)
        assert status == 0
        docs[cmd] = json.loads(out)["terms"]
    assert docs["cave"] == docs["stal"] == docs["box"] == docs["mobius"]


def test_stal_order_flag():
    status, out, _ = run(["stal", "--order", "2,1"], stdin=RUNNING_DOC)
    assert status == 0
    doc = json.loads(out)
    assert doc["order"] == [2, 1]
    base = json.loads(run(["stal"], stdin=RUNNING_DOC)[1])
    assert doc["terms"] == base["terms"]
    assert base["order"] == [1, 2]


def test_stal_order_flag_rejects_non_permutation():
    status, _, err = run(["stal", "--order", "1,1"], stdin=RUNNING_DOC)
    assert status == 2 and "permutation" in err


def test_mobius_table_flag():
    status, out, _ = run(["mobius", "--table"], stdin=RUNNING_DOC)
    assert status == 0
    table = {tuple(e["point"]): e["value"] for e in json.loads(out)["table"]}
    assert table == {
        (0, 3): 1, (1, 2): 1, (2, 1): 1, (0, 2): -1, (1, 1): -1,
        (2, 0): 0, (0, 1): 0, (1, 0): 0, (0, 0): 0}


def test_snapper_command():
    status, out, _ = run(["snapper"], stdin=RUNNING_DOC)
    assert status == 0
    doc = json.loads(out)
    assert doc["basis"] == "binomial" and doc["shift"] == 0
    assert doc["canonical"].startswith("C(t2+3,3)")


def test_snapper_expand_and_eval():
    status, out, _ = run(["snapper", "--expand"], stdin=RUNNING_DOC)
    assert status == 0
    doc = json.loads(out)
    assert doc["basis"] == "expanded"
    assert all("/" in t["coefficient"] for t in doc["terms"])
    status, out, _ = run(["snapper", "--eval", "0,0"], stdin=RUNNING_DOC)
    assert status == 0 and out.strip() == "1"
    status, out, _ = run(["snapper", "--eval", "1,1"], stdin=RUNNING_DOC)
    assert status == 0 and out.strip() == "9"  # C(4,3)+C(2,1)C(3,2)-C(3,2)+C(3,2)C(2,1)-C(2,1)C(2,1)


def test_snapper_expand_matches_golden_document():
    # CI pipes the same document into the installed console script and
    # compares its stdout with this file.
    status, out, _ = run(["snapper", "--expand"], stdin=RUNNING_DOC)
    assert status == 0
    assert out == (GOLDEN / "snapper_expand_running_example.json").read_text()


def test_equal_command_golden():
    status, out, _ = run(["equal"], stdin=RUNNING_DOC)
    assert status == 0 and out.strip() == "EQUAL"


@pytest.mark.parametrize("route, name", [("box_polynomial", "box"), ("mobius_polynomial", "mobius")])
def test_equal_command_names_the_routes_that_differ(monkeypatch, route, name):
    from cavepoly import algorithms

    correct = getattr(algorithms, route)
    monkeypatch.setattr(algorithms, route, lambda P: correct(P) + 1)
    cave = "t2^3 + t1^2*t2 + t1*t2^2 - t2^2 - t1*t2"
    assert run(["equal"], stdin=RUNNING_DOC) == (1, "UNEQUAL\ncave: %s\n%s: %s + 1\n" % (cave, name, cave), "")


def test_truncate_command():
    status, out, _ = run(["truncate", "--at", "1,1"], stdin=RUNNING_DOC)
    assert status == 0 and json.loads(out) == {"points": [[1, 2], [2, 1]]}
    status, _, err = run(["truncate", "--at", "2,2"], stdin=RUNNING_DOC)
    assert status == 2 and "independence" in err


def test_is_cave_command():
    cave_doc = json.dumps({"points": [[0, 3], [1, 2], [2, 1], [0, 2], [1, 1]]})
    status, out, _ = run(["is-cave"], stdin=cave_doc)
    assert status == 0 and json.loads(out)["is_cave"] is True
    status, out, _ = run(["is-cave"], stdin=RUNNING_DOC)
    assert status == 1
    doc = json.loads(out)
    assert doc["is_cave"] is False and doc["failed_condition"] == 2
    assert doc["witness"]["missing"] == [[0, 2], [1, 1]]


IS_CAVE_CASES = json.loads((GOLDEN / "is_cave_cases.json").read_text())


@pytest.mark.parametrize("case", IS_CAVE_CASES, ids=[" ".join(c["argv"]) + " " + c["stdin"] for c in IS_CAVE_CASES])
def test_is_cave_command_matches_golden_cases(case):
    # CI pipes two of these documents into the installed console script and
    # compares its exit status and stdout with the recorded ones.
    assert run(case["argv"], stdin=case["stdin"]) == (case["status"], case["stdout"], "")


RUNNING_EXAMPLE_CASES = json.loads((GOLDEN / "running_example_commands.json").read_text())


@pytest.mark.parametrize("case", RUNNING_EXAMPLE_CASES, ids=[" ".join(c["argv"]) for c in RUNNING_EXAMPLE_CASES])
def test_running_example_commands_match_golden_cases(case):
    # CI replays every case through the installed console script.
    assert run(case["argv"], stdin=case["stdin"]) == (case["status"], case["stdout"], "")


def test_random_command_is_deterministic_and_valid():
    args = ["random", "--seed", "5", "--p", "3", "--strategy", "lattice-path"]
    first = run(args)
    second = run(args)
    assert first == second and first[0] == 0
    P = parse_instance(first[1])
    assert P.p == 3


def test_random_lattice_path_at_p12_matches_golden():
    # Recorded while every lattice-path step ran a full axiom check; CI runs
    # the installed console script on the same draw under a time limit.
    status, out, _ = run(["random", "--p", "12", "--strategy", "lattice-path", "--seed", "0"])
    assert status == 0
    assert out == (GOLDEN / "random_p12_lattice-path.json").read_text()


def test_verify_command():
    args = ["verify", "--count", "5", "--seed", "3", "--p", "2"]
    status, out, _ = run(args)
    assert status == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True and doc["count"] == 5
    assert run(args) == (status, out, "")


@pytest.mark.parametrize("strategy", ["submodular-rejection", "uniform-family", "lattice-path"])
def test_verify_campaign_matches_golden_document(strategy):
    status, out, err = run(["verify", "--p", "4", "--count", "40", "--max-rank", "6",
                            "--max-cage-entry", "4", "--strategy", strategy])
    assert (status, err) == (0, "")
    assert out.encode("utf-8") == (GOLDEN / ("verify_p4_%s.json" % strategy)).read_bytes()


def test_generator_commands_refuse_p_beyond_the_ground_set_bound(monkeypatch):
    from cavepoly import genverify

    def no_table(weights):
        raise AssertionError("a subset-sum table was built")

    monkeypatch.setattr(genverify, "_subset_sums", no_table)
    for argv in (["random", "--p", "40"], ["verify", "--p", "17", "--count", "1"]):
        assert run(argv) == (2, "", "error: p must be <= 16\n"), argv


@pytest.mark.parametrize("command", ["validate", "points", "cave", "stal", "box", "mobius", "snapper", "equal"])
def test_points_of_length_zero_are_refused_in_one_line(command):
    message = "error: points have length 0, expected at least 1\n"
    assert run([command], stdin='{"points": [[]]}') == (2, "", message)


HUGE = 2**70
HUGE_TERMS = [{"exponents": [0, HUGE], "coefficient": 1}, {"exponents": [1, HUGE - 1], "coefficient": 1},
              {"exponents": [0, HUGE - 1], "coefficient": -1}]
HUGE_MONOMIALS = "t2^%d + t1*t2^%d - t2^%d" % (HUGE, HUGE - 1, HUGE - 1)


# Each answer takes O(points) operations on the sparse threshold masks,
# however large the entries; a table with one entry per value would not fit.
@pytest.mark.parametrize("command, expected", [
    ("validate", {"valid": True, "p": 2, "rank": HUGE, "base_points": 2, "cage": [1, HUGE]}),
    ("points", {"points": [[0, HUGE], [1, HUGE - 1]]}),
    ("cave", {"basis": "monomial", "p": 2, "terms": HUGE_TERMS, "canonical": HUGE_MONOMIALS}),
    ("stal", {"basis": "monomial", "p": 2, "order": [1, 2], "terms": HUGE_TERMS, "canonical": HUGE_MONOMIALS}),
    ("snapper", {"basis": "binomial", "p": 2, "shift": 0, "terms": HUGE_TERMS, "canonical":
                 "C(t2+%d,%d) + C(t1+1,1)*C(t2+%d,%d) - C(t2+%d,%d)" % ((HUGE,) * 2 + (HUGE - 1,) * 4)}),
])
def test_huge_entries_run_in_bounded_time_and_memory(command, expected):
    doc = '{"points": [[0, %d], [1, %d]]}' % (HUGE, HUGE - 1)
    status, out, err = run_bounded("from cavepoly.cli import main; main()", [command], stdin=doc)
    assert (status, err) == (0, "") and list(json.loads(out).items()) == list(expected.items())


# The region of that document cannot be listed: the commands that walk it
# refuse the span at once, before any row as long as the span is built.
@pytest.mark.parametrize("command", ["independence", "mobius", "box", "equal"])
def test_region_walks_refuse_a_huge_span_in_one_line(command):
    doc = '{"points": [[0, %d], [1, %d]]}' % (HUGE, HUGE - 1)
    message = "error: coordinate 2 spans %d lattice values, more than a list can hold\n" % (HUGE + 2)
    assert run([command], stdin=doc) == (2, "", message)


# Nor can its Snapper polynomial be expanded: no factorial reaches the index.
def test_snapper_expansion_refuses_a_huge_index_in_one_line():
    doc = '{"points": [[0, %d], [1, %d]]}' % (HUGE, HUGE - 1)
    status, out, err = run_bounded("from cavepoly.cli import main; main()", ["snapper", "--expand"], stdin=doc)
    assert (status, out) == (2, "")
    assert err == "error: coordinate 2 has binomial index %d, more than a factorial can take\n" % HUGE


@pytest.mark.parametrize("points", [[[HUGE, 0], [HUGE - 1, 1], [HUGE - 1, 0]], [[HUGE]], [[100_000_000]]])
def test_is_cave_on_huge_entries_runs_in_bounded_time_and_memory(points):
    status, out, err = run_bounded("from cavepoly.cli import main; main()", ["is-cave"],
                                   stdin=json.dumps({"points": points}))
    order = list(range(1, len(points[0]) + 1))
    assert (status, err) == (0, "")
    assert json.loads(out) == {"is_cave": True, "failed_condition": None, "witness": None, "order": order}


def test_exit_statuses_on_bad_input():
    assert run(["cave"], stdin="{oops")[0] == 2
    assert run(["cave"], stdin='{"points": [[2,0],[0,2]]}')[0] == 2
    assert run(["nonsense"], stdin="")[0] == 2
    assert run(["truncate"], stdin=RUNNING_DOC)[0] == 2  # --at is required


def test_internal_error_has_its_own_exit_status(monkeypatch):
    from cavepoly import InternalInvariantFailure, algorithms, cli

    def broken(P):
        raise InternalInvariantFailure("injected")

    monkeypatch.setattr(algorithms, "cave_polynomial", broken)
    status, out, err = run(["cave"], stdin=RUNNING_DOC)
    assert (status, out, err) == (cli.EXIT_INTERNAL, "", "internal error: injected\n")
    assert cli.EXIT_INTERNAL not in (cli.EXIT_OK, cli.EXIT_UNEQUAL, cli.EXIT_INPUT)
    monkeypatch.setattr("sys.argv", ["cavepoly", "cave", "-"])
    monkeypatch.setattr("sys.stdin", io.StringIO(RUNNING_DOC))
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == cli.EXIT_INTERNAL


@pytest.mark.parametrize("depth", [900, 1000, 100000])  # json's decoder gives up within 100000 on every version
def test_deeply_nested_document_is_an_input_error(depth):
    nested = "[" * depth + "]" * depth
    rank = '{"rank": {"p": 1, "cage": [1], "values": {"[]": 0, "[1]": 1, %s: 1}}}' % json.dumps(nested)
    for doc in ('{"points": %s}' % nested, rank):
        status, out, err = run(["validate"], stdin=doc)
        assert (status, out) == (2, ""), doc[:40]
        assert err.startswith("error: ") and err.count("\n") == 1, err[:200]


def test_any_exception_escaping_a_handler_is_an_internal_error(monkeypatch):
    from cavepoly import algorithms, cli

    for exc in (KeyError("no\nsuch key"), RecursionError("deep"), ZeroDivisionError()):
        def broken(P, exc=exc):
            raise exc

        monkeypatch.setattr(algorithms, "cave_polynomial", broken)
        assert run(["cave"], stdin=RUNNING_DOC) == (cli.EXIT_INTERNAL, "", "internal error: %r\n" % (exc,))
    for exc in (KeyboardInterrupt(), SystemExit(5)):
        def interrupted(P, exc=exc):
            raise exc

        monkeypatch.setattr(algorithms, "cave_polynomial", interrupted)
        with pytest.raises(type(exc)):
            run(["cave"], stdin=RUNNING_DOC)


def test_file_input(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(RUNNING_DOC)
    status, out, _ = run(["equal", str(path)])
    assert status == 0 and out.strip() == "EQUAL"
    missing = "/nonexistent/instance.json"
    assert run(["cave", missing]) == (2, "", "error: [Errno 2] No such file or directory: %r\n" % missing)
    path.write_bytes(b'{"points": [[0, 3]]}\xff')
    status, out, err = run(["cave", str(path)])
    assert (status, out) == (2, "") and err.startswith("error: input is not UTF-8: ") and err.count("\n") == 1


def test_one_parser_serves_every_invocation_of_a_process():
    from cavepoly import cli

    assert cli._build_parser() is cli._build_parser()
    sequence = [(["stal", "--order", "2,1"], RUNNING_DOC), (["stal"], RUNNING_DOC),
                (["snapper", "--eval", "1,1"], RUNNING_DOC), (["snapper"], RUNNING_DOC),
                (["stal", "--order"], RUNNING_DOC), (["stal", "--order"], RUNNING_DOC),
                (["mobius", "--table"], RUNNING_DOC), (["mobius"], RUNNING_DOC)]
    reused = [run(argv, stdin) for argv, stdin in sequence]
    for (argv, stdin), result in zip(sequence, reused):
        cli._build_parser.cache_clear()
        assert run(argv, stdin) == result, argv
    assert [status for status, _, _ in reused] == [0, 0, 0, 0, 2, 2, 0, 0]
    assert reused[0][1] != reused[1][1] and reused[2][1] != reused[3][1]


INSTANCE_DEFAULTS = {"file": None}
GENERATOR_DEFAULTS = {"seed": 0, "p": 3, "strategy": "submodular-rejection"}


PARSED_DEFAULTS = [
    (["validate"], INSTANCE_DEFAULTS),
    (["points"], INSTANCE_DEFAULTS),
    (["independence"], INSTANCE_DEFAULTS),
    (["cave"], INSTANCE_DEFAULTS),
    (["stal"], {**INSTANCE_DEFAULTS, "order": None}),
    (["box"], INSTANCE_DEFAULTS),
    (["mobius"], {**INSTANCE_DEFAULTS, "table": False}),
    (["snapper"], {**INSTANCE_DEFAULTS, "expand": False, "eval_at": None}),
    (["equal"], INSTANCE_DEFAULTS),
    (["truncate", "--at", "1,1"], {**INSTANCE_DEFAULTS, "at": (1, 1)}),
    (["is-cave"], {**INSTANCE_DEFAULTS, "order": None}),
    (["random"], {**GENERATOR_DEFAULTS, "max_rank": 5, "max_cage_entry": 4}),
    (["verify"], {"count": 25, **GENERATOR_DEFAULTS, "max_rank": 4, "max_cage_entry": 3}),
]


@pytest.mark.parametrize("argv, parsed", PARSED_DEFAULTS, ids=[argv[0] for argv, _ in PARSED_DEFAULTS])
def test_parsed_defaults_of_every_subcommand(argv, parsed):
    from cavepoly import cli

    assert vars(cli._build_parser().parse_args(argv)) == {"command": argv[0], **parsed}


def test_usage_errors_are_one_line_on_the_given_stderr(capsys):
    assert run(["truncate"], stdin=RUNNING_DOC) == (2, "", "error: the following arguments are required: --at\n")
    assert run(["cave", "--unknown"], stdin=RUNNING_DOC) == (2, "", "error: unrecognized arguments: --unknown\n")
    assert run(["truncate", "--at", "x"], stdin=RUNNING_DOC) == (
        2, "", "error: argument --at: expected comma-separated integers, got 'x'\n")
    status, out, err = run(["truncate", "--help"])
    assert (status, err) == (0, "") and out.startswith("usage: cavepoly truncate")
    assert capsys.readouterr() == ("", "")


def test_output_is_byte_identical_across_runs():
    for cmd in (["cave"], ["mobius", "--table"], ["snapper", "--expand"]):
        assert run(cmd, stdin=RUNNING_DOC) == run(cmd, stdin=RUNNING_DOC)


# ------------------------------------------------------ exit-status property

SMALLEST_ARGV = [["validate"], ["points"], ["independence"], ["cave"], ["stal"], ["box"], ["mobius"],
                 ["snapper"], ["equal"], ["truncate", "--at", "0,0"], ["is-cave"],
                 ["random", "--p", "1", "--max-rank", "1", "--max-cage-entry", "1"],
                 ["verify", "--p", "1", "--count", "1", "--max-rank", "1", "--max-cage-entry", "1"]]
VERDICT_COMMANDS = {"equal", "is-cave", "verify"}
INVALID_ARGV = [["truncate"], ["cave", "--unknown"], ["truncate", "--at", "x"]]
SMALL_INSTANCES = instance_mix(12, seed=700, max_rank=3, max_cage_entry=3)
VALID_DOCUMENTS = [serialize_instance(P) for P in SMALL_INSTANCES] + [rank_document(P) for P in SMALL_INSTANCES[:6]]
DOCUMENT_KEYS = st.sampled_from(["points", "rank", "p", "cage", "values", "[]", "[1]", "[2]", "[1,2]", "[2,1]", "x"])
SMALL_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-1, 3), st.sampled_from([0.5, 1.0, -0.0]),
                          st.text(max_size=4), DOCUMENT_KEYS)
SMALL_TREES = st.recursive(SMALL_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4), st.dictionaries(DOCUMENT_KEYS, children, max_size=4)), max_leaves=12)


@st.composite
def near_valid_documents(draw):
    """A valid document with one part dropped, added or replaced."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCUMENTS))))
    if "points" in doc:
        points = doc["points"]
        k = draw(st.integers(0, len(points) - 1))
        edit = draw(st.sampled_from(["drop", "add", "entry"]))
        if edit == "drop":
            del points[k]
        elif edit == "add":
            points.append(draw(st.lists(st.integers(-1, 3), min_size=1, max_size=3)))
        else:
            points[k][draw(st.integers(0, len(points[k]) - 1))] = draw(SMALL_TREES)
    else:
        rank = doc["rank"]
        part = draw(st.sampled_from(["p", "cage", "values", "value", "missing"]))
        key = draw(st.sampled_from(sorted(rank["values"])))
        if part == "missing":
            del rank["values"][key]
        elif part == "value":
            rank["values"][key] = draw(SMALL_TREES)
        else:
            rank[part] = draw(SMALL_TREES)
    return json.dumps(doc)


DOCUMENTS = st.one_of(
    st.sampled_from(VALID_DOCUMENTS).map(json.dumps),
    near_valid_documents(),
    st.builds(lambda form, tree: json.dumps({form: tree}), st.sampled_from(["points", "rank"]), SMALL_TREES),
    SMALL_TREES.map(json.dumps),
    st.builds(lambda doc, cut: json.dumps(doc)[:cut], st.sampled_from(VALID_DOCUMENTS), st.integers(0, 30)),
    st.text(max_size=12))


@settings(max_examples=100, deadline=None)
@given(DOCUMENTS)
@example('{"points": %s}' % ("[" * 1000 + "]" * 1000))
@example('{"points": %s}' % ("[" * 100000 + "]" * 100000))
def test_every_command_exits_with_a_status_its_output_explains(document):
    for argv in SMALLEST_ARGV + INVALID_ARGV:
        status, out, err = run(argv, stdin=document)
        assert status in (0, 1, 2, 3), argv
        assert status == 2 or argv not in INVALID_ARGV, (argv, err)
        assert status != 1 or argv[0] in VERDICT_COMMANDS, (argv, out)
        if status in (2, 3):
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        else:
            assert err == "", (argv, err)


# ---------------------------------------------------------------- JSON writer

def emitted(doc):
    out = io.StringIO()
    _emit(doc, out)
    return out.getvalue()


TRICKY_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800é☃😀'), st.characters()))
JSON_SCALARS = st.one_of(TRICKY_TEXT, st.integers(-10 ** 40, 10 ** 40), st.floats(), st.booleans(), st.none())
JSON_TREES = st.recursive(JSON_SCALARS, lambda children: st.one_of(
    st.lists(children), st.lists(children).map(tuple), st.dictionaries(JSON_SCALARS, children)), max_leaves=20)
DEEP = [{"a": ({"b": [[], {}, ()]},)}]
for _ in range(100):
    DEEP = [-1, {"": DEEP, 1.5: []}]


@settings(deadline=None)
@given(JSON_TREES)
@example(DEEP)
@example({True: 1, None: [-1, 0, 1], 2.5: (), float("nan"): float("-inf"), 10 ** 40: "\u00e9"})
def test_emit_writes_what_json_dump_writes(tree):
    assert emitted(tree) == json.dumps(tree, indent=2) + "\n"


class Count(int):
    pass


VECTORS = st.one_of(st.lists(st.integers(-10 ** 40, 10 ** 40), min_size=1, max_size=4),
                    st.lists(st.one_of(st.integers(), st.booleans(), st.integers().map(Count)), max_size=3))
COLUMNS = st.sampled_from([st.integers(-10 ** 40, 10 ** 40), TRICKY_TEXT, VECTORS, st.just([]), st.booleans(),
                           st.floats(), st.none(), JSON_TREES])


@st.composite
def uniform_lists(draw):
    """A list of int vectors, or of records that share one key tuple, each
    column drawn from one kind of value, at times one record's value from
    another kind or its keys in another order."""
    if draw(st.booleans()):
        return draw(st.lists(VECTORS, min_size=1, max_size=6))
    keys = draw(st.lists(TRICKY_TEXT, unique=True, max_size=4))
    kinds = [draw(COLUMNS) for _ in keys]
    records = [{key: draw(kind) for key, kind in zip(keys, kinds)} for _ in range(draw(st.integers(1, 6)))]
    if keys and draw(st.booleans()):
        odd = draw(st.sampled_from(records))
        key = draw(st.sampled_from(keys))
        odd[key] = draw(draw(COLUMNS))
        if draw(st.booleans()):
            odd[key] = odd.pop(key)
    return records


@settings(deadline=None)
@given(st.one_of(uniform_lists(), st.dictionaries(TRICKY_TEXT, uniform_lists(), max_size=2),
                 st.lists(uniform_lists(), max_size=2)))
@example([{"exponents": [0, 3], "coefficient": "1/6"}, {"exponents": [1, -2], "coefficient": "-3/2"}])
@example({"table": [{"%s": [1], "%%": 2, "\u00e9": "%d"}, {"%s": [-1, 0], "%%": 10 ** 40, "\u00e9": ""}]})
@example([[1, 2], [3], [Count(4)]])
@example([{"v": [1]}, {"v": []}])
@example([{}, {}])
def test_emit_writes_what_json_dump_writes_on_uniform_lists(doc):
    assert emitted(doc) == json.dumps(doc, indent=2) + "\n"


class CountingWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_emit_writes_a_large_document_in_chunks():
    """A document of more than 4096 parts is written in several joined
    chunks, byte for byte as ``json.dump`` writes it; a small one at once."""
    for doc, chunked in (({"points": [[0, 3], [1, 2]]}, False),
                         ({"table": [{"point": [k], "value": -k} for k in range(3000)]}, True)):
        out = CountingWrites()
        _emit(doc, out)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"
        assert (out.writes > 1) == chunked, out.writes


UNSERIALIZABLE = st.sampled_from([{1, 2}, frozenset(), b"bytes", Fraction(1, 3)])
SIBLINGS = st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3))
POISONED_TREES = st.recursive(UNSERIALIZABLE, lambda inner: st.one_of(
    st.tuples(SIBLINGS, inner).map(list),
    st.tuples(inner, SIBLINGS),
    st.builds(lambda before, bad: {**before, "bad": bad}, st.dictionaries(TRICKY_TEXT, SIBLINGS), inner),
    st.builds(lambda bad: {(1, 2): bad}, inner)), max_leaves=6)


@settings(deadline=None)
@given(POISONED_TREES)
def test_emit_refuses_what_json_dump_refuses(tree):
    with pytest.raises(TypeError):
        json.dumps(tree, indent=2)
    with pytest.raises(TypeError):
        emitted(tree)
