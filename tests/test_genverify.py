"""Instance generation, the verification engine, and counterexample shrinking."""

import gc
import importlib.util
import json
import re
import tracemalloc
import types
import weakref
from pathlib import Path

import pytest

from cavepoly import (
    AxiomViolation,
    CavepolyError,
    GenerationExhausted,
    GeneratorConfig,
    MultiPoly,
    NotMConvex,
    Polymatroid,
    UnknownFamily,
    is_m_convex,
    named_family,
    random_polymatroid,
    rank_from_points,
    shrink_instance,
    validate_rank_function,
    verify_campaign,
    verify_instance,
)
from cavepoly import genverify
from cavepoly.genverify import CHECKS, INPUTS, _shrink_candidates
from conftest import instance_mix
from test_planted_faults import FAULTS


def test_truncation_check_memory_holds_one_coefficient_dict_at_a_time():
    # (10; [4]x5) has 1753 region points, each with its own kept set.  Every
    # kept set's counts held to the end peaked at 8.6 MB (tracemalloc,
    # Python 3.11); one disagreement mask per kept set peaks at about 0.9 MB.
    P = named_family("uniform", r=10, m=(4,) * 5)
    for build in INPUTS["truncation-lemmas"]:
        build(P)
    tracemalloc.start()
    try:
        assert CHECKS["truncation-lemmas"](P) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20, peak


def test_strategies_are_pinned_in_order():
    # The benchmark's campaign stream and ``conftest.instance_mix`` pick a
    # strategy by position, so a reorder would change every generated stream.
    assert genverify.STRATEGIES == ("submodular-rejection", "uniform-family", "lattice-path")


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, p=0)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, p=2, max_rank=0)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, p=2, strategy="nope")
    with pytest.raises(ValueError, match="p must be <= 16"):
        GeneratorConfig(seed=0, p=17)


def test_generation_is_deterministic():
    cfg = GeneratorConfig(seed=314, p=3, max_rank=5, max_cage_entry=4)
    assert random_polymatroid(cfg) == random_polymatroid(cfg)


@pytest.mark.parametrize("strategy", genverify.STRATEGIES)
def test_generated_instances_are_valid(strategy):
    for seed in range(25):
        P = random_polymatroid(GeneratorConfig(seed=seed, p=3, strategy=strategy))
        assert is_m_convex(P.points) == (True, None)
        rk = rank_from_points(P)
        validate_rank_function(rk.p, rk.values, rk.cage)  # must not raise


def test_generation_exhausted(monkeypatch):
    monkeypatch.setattr(genverify, "_MAX_ATTEMPTS", 0)
    with pytest.raises(GenerationExhausted):
        random_polymatroid(GeneratorConfig(seed=1, p=2))


def test_named_families():
    assert named_family("running-example").points == {(0, 3), (1, 2), (2, 1)}
    assert named_family("rank-zero", p=3).points == {(0, 0, 0)}
    assert named_family("free", m=(1, 1)).points == {(1, 1)}
    with pytest.raises(UnknownFamily):
        named_family("mystery")
    with pytest.raises(ValueError, match="^family 'uniform' requires parameter 'r'$"):
        named_family("uniform", m=[1])


def test_uniform_family_reproduces_worked_example():
    # r=3 with cage (2,3) has exactly the ranks of the worked example.
    P = named_family("uniform", r=3, m=(2, 3))
    assert P.points == {(0, 3), (1, 2), (2, 1)}
    assert named_family("uniform", r=1, m=(1, 1)).points == {(1, 0), (0, 1)}
    assert named_family("uniform", r=0, m=(0,)).points == {(0,)}


def test_verify_instance_passes_on_worked_example(running):
    report = verify_instance(running)
    assert report.passed
    assert {r.name for r in report.results} == set(CHECKS)
    assert report.descriptor["p"] == 2 and report.descriptor["rank"] == 3


def test_verify_instance_passes_on_origin():
    assert verify_instance(Polymatroid([(0,)])).passed


def test_corrupted_instance_is_rejected_before_verification():
    # dropping (1,2) from the worked example breaks the exchange property
    with pytest.raises(NotMConvex) as exc:
        Polymatroid([(0, 3), (2, 1)])
    assert exc.value.witness is not None


def test_verify_instance_check_subset(running):
    report = verify_instance(running, checks=("four-way-equality", "coefficient-sum"))
    assert [r.name for r in report.results] == ["four-way-equality", "coefficient-sum"]
    assert report.passed


INPUTS_CORPUS = [*instance_mix(30, seed=2600), named_family("running-example"), named_family("uniform", r=8, m=(4,) * 4)]


def test_each_check_body_reads_only_the_inputs_it_declares():
    assert INPUTS.keys() == CHECKS.keys()
    for points in map(tuple, INPUTS_CORPUS):
        for name, check in CHECKS.items():
            P = Polymatroid(points)  # a fresh instance: an empty memo store
            for build in INPUTS[name]:
                build(P)
            built = list(P._memo)
            assert check(P) == (True, None)
            assert list(P._memo) == built, (name, points)


def verdicts(points, checks=None):
    """(name, passed, detail) of each check in the order run on a fresh
    instance, or the exception that ``verify_instance`` raised."""
    try:
        results = verify_instance(Polymatroid(points), checks=checks).results
    except CavepolyError as exc:
        return [repr(exc)]
    return [(r.name, r.passed, r.detail) for r in results]


@pytest.mark.parametrize("fault", [None, *FAULTS])
def test_checks_give_the_same_verdicts_in_reverse_order(fault, monkeypatch):
    if fault is not None:
        owner, name, plant, _ = FAULTS[fault]
        monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    for points in map(tuple, INPUTS_CORPUS):
        assert verdicts(points, reversed(CHECKS))[::-1] == verdicts(points), (fault, points)


def test_verify_instance_builds_the_declared_inputs_once_before_any_check(monkeypatch, running):
    calls = []

    def record(tag):
        return lambda P: calls.append(tag) or (True, None)

    a, b, c = map(record, "abc")
    for name in ("first", "probe", "second"):
        monkeypatch.setitem(CHECKS, name, record(name))
    monkeypatch.setitem(INPUTS, "first", (a, b))
    monkeypatch.setitem(INPUTS, "second", (b, c, a))  # "probe" declares none
    report = verify_instance(running, checks=["first", "probe", "second"])
    assert calls == ["a", "b", "c", "first", "probe", "second"]
    assert report.passed and report.inputs_elapsed > 0


def test_unknown_check_names_are_refused_before_any_input_is_built(monkeypatch, running):
    built = []
    monkeypatch.setitem(INPUTS, "four-way-equality", (built.append,))
    monkeypatch.setattr(genverify, "random_polymatroid", lambda cfg: built.append(cfg) or running)
    message = r"^unknown check 'typo'; known checks: %s$" % ", ".join(CHECKS)
    with pytest.raises(ValueError, match=message):
        verify_instance(running, checks=["four-way-equality", "typo"])
    with pytest.raises(ValueError, match=message):
        verify_campaign(GeneratorConfig(seed=0, p=2), 3, checks=["four-way-equality", "typo"])
    # An empty selection would pass vacuously; a bare string would be read
    # one character at a time.
    for checks in ((), "four-way-equality"):
        message = r"^checks must be a nonempty collection of check names, got %s$" % re.escape(repr(checks))
        with pytest.raises(ValueError, match=message):
            verify_instance(running, checks=checks)
        with pytest.raises(ValueError, match=message):
            verify_campaign(GeneratorConfig(seed=0, p=2), 3, checks=checks)
    assert built == []
    # A name added to CHECKS is known.
    monkeypatch.setitem(CHECKS, "typo", lambda P: (True, None))
    assert [r.name for r in verify_instance(running, checks=["typo"]).results] == ["typo"]
    assert verify_campaign(GeneratorConfig(seed=0, p=2), 2, checks=["typo"]).passed


def test_cancellation_free_reports_the_smallest_wrong_sign(monkeypatch, running):
    # Two coefficients of the running example's cave polynomial flipped, the
    # flipped terms inserted in either order: the detail names the smaller.
    golden = {(0, 3): 1, (1, 2): 1, (0, 2): -1, (2, 1): 1, (1, 1): -1}
    details = set()
    for first, second in (((2, 1), (0, 3)), ((0, 3), (2, 1))):
        terms = {first: -golden[first], second: -golden[second]}
        terms.update((e, c) for e, c in golden.items() if e not in terms)
        monkeypatch.setattr(genverify, "cave_polynomial", lambda P, terms=terms: MultiPoly(2, terms))
        assert list(genverify.cave_polynomial(running).terms)[0] == first
        details.add(CHECKS["cancellation-free"](running))
    assert details == {(False, "coefficient -1 at t^[0, 3] has the wrong sign")}


def test_campaign_rejects_zero_count():
    with pytest.raises(ValueError):
        verify_campaign(GeneratorConfig(seed=0, p=2), 0)


def test_campaign_aggregates_and_passes():
    cfg = GeneratorConfig(seed=9, p=2, max_rank=4, max_cage_entry=3)
    report = verify_campaign(cfg, 8)
    assert report.passed
    assert report.count == 8 and len(report.reports) == 8
    doc = report.to_document()
    assert doc["all_passed"] is True and doc["failed"] == 0
    assert doc["failures"] == []
    seeds = [r.descriptor["seed"] for r in report.reports]
    assert seeds == sorted(seeds)


def test_campaign_reports_are_byte_identical_for_fixed_seed():
    cfg = GeneratorConfig(seed=77, p=3, max_rank=4, max_cage_entry=3, strategy="lattice-path")
    first = json.dumps(verify_campaign(cfg, 6).to_document())
    second = json.dumps(verify_campaign(cfg, 6).to_document())
    assert first == second


def test_campaign_failure_carries_seed_and_shrunk_witness(monkeypatch):
    def too_big(P):
        if P.rank >= 2:
            return False, "rank is %d" % P.rank
        return True, None

    monkeypatch.setitem(CHECKS, "rank-under-two", too_big)
    cfg = GeneratorConfig(seed=0, p=2, max_rank=4, max_cage_entry=4, strategy="uniform-family")
    report = verify_campaign(cfg, 10, checks=("rank-under-two",))
    assert not report.passed
    failure = report.failures[0]
    assert failure.check == "rank-under-two"
    shrunk = Polymatroid(failure.shrunk_points)
    assert shrunk.rank >= 2  # still fails the same check
    # and it is locally minimal: every further shrink step passes the check
    for cand in _shrink_candidates(shrunk):
        assert cand.rank < 2
    # seeds reproduce the original instance
    assert random_polymatroid(
        GeneratorConfig(seed=failure.seed, p=2, max_rank=4, max_cage_entry=4,
                        strategy="uniform-family")).points == set(failure.points)


def test_shrink_instance_directly(running):
    small = shrink_instance(running, lambda Q: Q.rank >= 1)
    assert small.points == {(1,)}


def test_shrinker_skips_a_lowered_cage_entry_that_breaks_submodularity(monkeypatch):
    # Capping rk at 0 on coordinate 3 leaves min(rk, capped sums) not submodular.
    P = Polymatroid([(0, 2, 1), (1, 1, 1), (2, 0, 1)])
    refused = []

    def validate(p, values, cage):
        try:
            return validate_rank_function(p, values, cage)
        except AxiomViolation as exc:
            refused.append((list(cage), exc.violations))
            raise

    monkeypatch.setattr(genverify, "validate_rank_function", validate)
    assert [sorted(Q.points) for Q in _shrink_candidates(P)] == [
        [(2, 1)], [(2, 1)], [(0, 2), (1, 1), (2, 0)],  # each coordinate dropped
        [(0, 2, 1), (1, 1, 1)], [(1, 1, 1), (2, 0, 1)],  # cage entries 1 and 2 lowered; entry 3 skipped
        [(0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0)],  # rank truncated to 2
    ]
    assert refused == [([2, 2, 0], [("submodular", ((1, 2), (1, 3))), ("submodular", ((1, 2), (2, 3)))])]


def test_verified_instance_is_freed_when_dropped_without_the_collector():
    P = random_polymatroid(GeneratorConfig(seed=81, p=4, max_rank=6, max_cage_entry=4,
                                           strategy="uniform-family"))
    assert len(P.points) == 30
    alive = weakref.ref(P)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # the collector keeps what it finds in gc.garbage
    try:
        assert verify_instance(P).passed
        assert P._memo  # the checks filled the instance's store
        del P
        assert alive() is None
        for seed in range(19):
            assert verify_instance(random_polymatroid(GeneratorConfig(seed=seed, p=3))).passed
        gc.collect()
        cyclic = [obj.__qualname__ for obj in gc.garbage if isinstance(obj, types.FunctionType)]
        assert cyclic == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def load_tool(name):
    """The module ``tools/<name>.py``, loaded from this checkout."""
    path = Path(__file__).resolve().parent.parent / "tools" / ("%s.py" % name)
    spec = importlib.util.spec_from_file_location(name, path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_ladder_checks_tool_measures_its_smallest_row():
    tool = load_tool("ladder_checks")
    assert tool.ROWS[0] == (8, (4,) * 4)
    row = tool.measure(*tool.ROWS[0])
    assert row["passed"]
    assert list(row["checks_s"]) == list(CHECKS)
    assert row["independence_points"] == 355 and row["base_points"] == 85
    assert 0 < max(row["checks_s"].values()) <= row["total_s"] and 0 < row["inputs_s"] <= row["total_s"]


def test_ladder_checks_tool_measures_one_row_in_cli_row_syntax(tmp_path):
    tool = load_tool("ladder_checks")
    out = tmp_path / "row.json"
    assert tool.main(["--row", "6;3,3,3,3", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert list(rows) == ["6; [3, 3, 3, 3]"] and rows["6; [3, 3, 3, 3]"]["passed"]
    assert list(rows["6; [3, 3, 3, 3]"]["checks_s"]) == list(CHECKS)
    for argv in (["--row", "6"], ["--row", "6;3,3", "--campaign", "2"]):
        with pytest.raises(SystemExit):
            tool.main(argv)


def test_ladder_checks_tool_measures_a_campaign_mix(tmp_path, capsys, monkeypatch):
    tool = load_tool("ladder_checks")
    configs = tool.campaign_configs(4)
    assert [cfg.strategy for cfg in configs] == [*genverify.STRATEGIES, genverify.STRATEGIES[0]]
    assert [cfg.seed for cfg in configs] == [1000, 1000, 1000, 1001] and {cfg.p for cfg in configs} == {4}
    out = tmp_path / "campaign.json"
    assert tool.main(["--campaign", "3", "--out", str(out)]) == 0
    campaign = json.loads(out.read_text())["campaign"]
    assert campaign["instances"] == 3 and campaign["passed"]
    assert list(campaign["checks_s"]) == list(CHECKS)
    assert 0 < max(campaign["checks_s"].values()) <= campaign["total_s"]
    assert 0 < campaign["inputs_s"] <= campaign["total_s"]
    monkeypatch.setitem(CHECKS, "coefficient-sum", lambda P: (False, "planted"))
    capsys.readouterr()
    assert tool.main(["--campaign", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["campaign"]["passed"] is False


def test_cli_row_tool_times_every_instance_command_by_stage(tmp_path):
    tool = load_tool("cli_row")
    assert tool.ROW == (12, (4,) * 6) and tool.parse_row("8;4,4,4,4") == (8, (4,) * 4)
    out = tmp_path / "cli_row.json"
    assert tool.main(["--row", "8;4,4,4,4", "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["row"] == "8; [4, 4, 4, 4]" and document["repeats"] == 3
    assert list(document["commands"]) == [
        "validate", "points", "independence", "cave", "stal", "box", "mobius --table", "snapper",
        "snapper --expand", "equal"]
    stages = ("parse_s", "compute_s", "document_s", "emit_s")
    for name, command in document["commands"].items():
        assert command["status"] == 0 and command["stdout_chars"] > 0, name
        assert 0 < command["parse_s"] <= command["total_s"] and min(map(command.get, stages)) >= 0, name
        assert command["emit_s"] > 0 or name == "equal", name
    assert document["commands"]["cave"]["document_s"] > 0 and document["commands"]["equal"]["document_s"] == 0
    with pytest.raises(SystemExit):
        tool.main(["--row", "8"])


def test_untested_lines_tool_reports_the_lines_its_counts_never_saw():
    tool = load_tool("untested_lines")
    errors = tool.SRC / "cavepoly" / "errors.py"
    lines = tool.executable_lines(errors)
    # the module docstring, a class statement and its docstring, a method body; no blank line
    assert {1, 4, 5, 24} <= lines and not {2, 3, 6} & lines
    unrun = max(lines)
    # every line but one under another spelling of the path, and a line of a file outside src/
    counts = {(str(tool.SRC / "cavepoly" / ".." / "cavepoly" / "errors.py"), line): 1 for line in lines - {unrun}}
    counts[(__file__, 1)] = 1
    report = tool.untested_lines(counts)
    assert set(report) == {module.relative_to(tool.SRC).as_posix() for module in tool.SRC.rglob("*.py")}
    assert report["cavepoly/errors.py"] == [unrun]
    assert report["cavepoly/polyalg.py"] == sorted(tool.executable_lines(tool.SRC / "cavepoly" / "polyalg.py"))
    ignore = tool.OutsideSrc()
    assert not ignore.names(str(errors), "errors")
    assert ignore.names(__file__, "test_genverify")
    assert ignore.names(str(tool.SRC) + "-copy/cavepoly/errors.py", "errors")


def test_src_lines_tool_splits_a_module_by_kind(tmp_path, capsys):
    tool = load_tool("src_lines")
    module = tmp_path / "pkg" / "mod.py"
    module.parent.mkdir()
    module.write_text('"""Module\n\ndocstring."""\n\n# a comment\nx = 1  # code\n\n\n'
                      'def f():\n    """One line."""\n    s = """not a\n    docstring"""\n    return s\n')
    counts = {"total": 13, "docstring": 4, "blank": 3, "comment": 1, "code": 5}
    assert tool.count_lines(module.read_text()) == counts
    assert tool.main([str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"modules": {"pkg/mod.py": counts}, "total": counts}


def test_bench_pairs_gives_every_run_a_fresh_empty_pycache_prefix(tmp_path, monkeypatch):
    tool = load_tool("bench_pairs")
    seen = []

    def fake_run(argv, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cache, cache.is_dir() and not any(cache.iterdir()), cwd))
        return types.SimpleNamespace(returncode=0, stdout='{"correct": true}\n', stderr="")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    for side in ("parent", "change"):
        assert tool.run(tmp_path / side, "ladder", 1, 24) == {"correct": True}
    assert [(fresh, cwd) for _, fresh, cwd in seen] == [(True, tmp_path / "parent"), (True, tmp_path / "change")]
    assert seen[0][0] != seen[1][0] and not any(cache.exists() for cache, _, _ in seen)
