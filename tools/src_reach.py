"""The ``src/`` functions that no command, campaign or acceptance test calls.

    python3 tools/src_reach.py

Records, in this process, every function of the library that is called
while it runs:

* each instance command (``validate``, ``points``, ``independence``,
  ``cave``, ``stal`` and ``stal --order``, ``box``, ``mobius`` and
  ``mobius --table``, ``snapper`` with ``--expand`` and ``--eval``,
  ``equal``, ``truncate --at`` and ``is-cave`` on the points and on the
  region of each document) on four documents: the running example, the
  rank documents of the rows (8; [4]x4) and (3; [2,1]x5), and the single
  point ``[[2,0,3,1]]``;
* ``random`` and ``verify --count 40`` for each strategy;
* the acceptance suite, through ``pytest.main``.

Recording starts before ``cavepoly`` is imported, so a function called
only at import counts as reached.  A function is keyed by its module and
the first line of its definition, read with ``ast`` (a decorated one
starts at its first decorator, as its code object does), and named by its
dotted path in the module.

Prints ``{"unreached": [...], "allowed": [...], "stale": [...],
"failed": [...]}``: ``unreached`` lists the never-called functions that
``ALLOWED`` does not name, ``allowed`` those it names, ``stale`` the
allowed names that were called or no longer exist, and ``failed`` the
runs that did not finish as expected (a command exiting other than 0 or
1, or a failing acceptance suite).  The exit status is 1 when any of
``unreached``, ``stale`` and ``failed`` is not empty, else 0.  Takes about
10 s; standard library and pytest only.
"""

from __future__ import annotations

import ast
import io
import itertools
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Never called by the runs above, and kept, each for the reason given.
SHRINKER = "campaign shrinker: only a failing check reaches it (tests/test_planted_faults.py)"
HOSTILE = "axiom check of rank tables whose spread needs more than 61 bits (hostile magnitudes)"
SPACED = 'parses a subset key that is not spelled compactly, such as "[1, 2]"'
VALUE = "value protocol of an exported value class: equality, hashing, truth, size, membership, repr"
IMMUTABLE = "refuses a write to a value that a memo store may hand to other callers"
ALLOWED = {
    **dict.fromkeys(["genverify.shrink_instance", "genverify._delete_coordinate",
                     "genverify._shrink_candidates"], SHRINKER),
    "genverify._poly_diff_detail": "names the first differing term when two routes disagree (planted faults)",
    "core.rank_from_points": "rank table of a point set, read by the shrinker and cli.rank_document",
    **dict.fromkeys(["core._sliced_axiom_failures", "core._split", "core._unsplit"], HOSTILE),
    "cli._parse_subset_key": SPACED,
    "cli.main": "the console script's entry point",
    "cli._Parser.error": "reports a usage error as a ParseError",
    "cli.rank_document": "writes a rank document; tools/cli_row.py calls it in CI",
    **dict.fromkeys(["genverify.named_family", "genverify.named_family.need"],
                    "builds the ladder rows of tools/cli_row.py, tools/ladder_checks.py and the tests"),
    **dict.fromkeys(["algorithms.MobiusTable.__eq__", "algorithms.MobiusTable.__len__",
                     "algorithms.MobiusTable.__repr__", "core.Polymatroid.__contains__", "core.Polymatroid.__hash__",
                     "core.Polymatroid.__len__", "core.Polymatroid.__repr__", "core.RankFunction.__eq__",
                     "core.RankFunction.__hash__", "core.RankFunction.__repr__", "polyalg._SparsePoly.__bool__",
                     "polyalg._SparsePoly.__hash__", "polyalg._SparsePoly.__repr__",
                     "polyalg.BinomialBasisPoly._fields"], VALUE),
    **dict.fromkeys(["polyalg.BinomialBasisPoly.__init__", "polyalg.RationalPoly.__init__"],
                    "public constructor, which checks outside input; the library builds its results by _of"),
    **dict.fromkeys(["core.Immutable.__setattr__", "core.Immutable.__delattr__"], IMMUTABLE),
}


def uniform_rank_document(r, m) -> dict:
    """The rank document of rk(S) = min(r, sum of m over S), compact keys."""
    subsets = [s for k in range(len(m) + 1) for s in itertools.combinations(range(1, len(m) + 1), k)]
    values = {json.dumps(list(s), separators=(",", ":")): min(r, sum(m[i - 1] for i in s)) for s in subsets}
    return {"rank": {"p": len(m), "cage": list(m), "values": values}}


DOCUMENTS = [{"points": [[0, 3], [1, 2], [2, 1]]}, uniform_rank_document(8, (4,) * 4),
             uniform_rank_document(3, (2, 1) * 5), {"points": [[2, 0, 3, 1]]}]


def definitions() -> dict:
    """``{(path, first line): dotted name}`` for every ``def`` under ``src/``."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.stem if path.stem != "__init__" else path.parent.name
        stack = [(module, node) for node in ast.parse(path.read_text(encoding="utf-8")).body]
        while stack:
            prefix, node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = "%s.%s" % (prefix, node.name)
                if not isinstance(node, ast.ClassDef):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[(str(path.resolve()), first)] = name
                stack.extend((name, child) for child in node.body)
    return found


def command_runs(run_command):
    """Run every instance command on every document, then ``random`` and
    ``verify`` for each strategy; yield (argv, status) per run."""
    def run(argv, stdin=""):
        out = io.StringIO()
        status = run_command(argv, io.StringIO(stdin), out, io.StringIO())
        return status, out.getvalue()

    for document in DOCUMENTS:
        text = json.dumps(document)
        points = json.loads(run(["points"], text)[1])["points"]
        p = len(points[0])
        unit, reverse = ",".join(["1"] + ["0"] * (p - 1)), ",".join(map(str, range(p, 0, -1)))
        for argv in (["validate"], ["points"], ["independence"], ["cave"], ["stal"], ["stal", "--order", reverse],
                     ["box"], ["mobius"], ["mobius", "--table"], ["snapper"], ["snapper", "--expand"],
                     ["snapper", "--eval", unit], ["snapper", "--expand", "--eval", unit], ["equal"],
                     ["truncate", "--at", unit]):
            yield argv, run(argv, text)[0]
        for source in (["points"], ["independence"]):
            for argv in (["is-cave"], ["is-cave", "--order", reverse]):
                yield argv, run(argv, run(source, text)[1])[0]
    from cavepoly.genverify import STRATEGIES

    for strategy in STRATEGIES:
        for argv in (["random", "--strategy", strategy], ["verify", "--count", "40", "--strategy", strategy]):
            yield argv, run(argv)[0]


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    called, failed = set(), []

    def record(frame, event, arg):  # a global trace function: called once per new frame
        called.add(frame.f_code)

    sys.settrace(record)  # before the import: functions called only at import count
    try:
        from cavepoly.cli import run_command

        failed += [" ".join(argv) for argv, status in command_runs(run_command) if status not in (0, 1)]
        import pytest

        if pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_acceptance.py"]):
            failed.append("the acceptance suite")
    finally:
        sys.settrace(None)

    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in called}
    names = definitions()
    unreached = sorted(name for key, name in names.items() if key not in reached)
    allowed = [name for name in unreached if name in ALLOWED]
    report = {"unreached": [name for name in unreached if name not in ALLOWED], "allowed": allowed,
              "stale": sorted(set(ALLOWED) - set(allowed)), "failed": failed}
    print(json.dumps(report, indent=1))
    return int(bool(report["unreached"] or report["stale"] or failed))


if __name__ == "__main__":
    sys.exit(main())
