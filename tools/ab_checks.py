"""Per-check seconds of two checkouts' libraries, alternated in one process, as JSON.

    python3 tools/ab_checks.py PARENT CHANGE --campaign 60 --rounds 15
    python3 tools/ab_checks.py PARENT CHANGE --row "12;4,4,4,4,4,4" --rounds 5

PARENT and CHANGE are checkouts.  Their ``src/cavepoly`` trees are copied
into a temporary directory as the packages ``cavepoly_parent`` and
``cavepoly_change`` (the library imports itself relatively), and both are
imported into this one process, so the two sides share the interpreter,
its heap and the host's load of the moment.  Each round builds every
instance afresh under each side, so no memoised result carries over, and
runs ``verify_instance`` on it with all ten checks; the side that goes
first alternates from one round to the next.  ``--campaign N`` measures
``ladder_checks.py``'s campaign mix of N instances, ``--row "r;m1,...,mp"``
the uniform row rk(S) = min(r, sum of m over S).

A figure is a check's ``elapsed`` summed over a round's instances,
``inputs`` the inputs stage and ``total`` both.  The output maps each
figure to both sides' medians over the rounds, the change's median over
the parent's (``ratio``), and the number of rounds in which the change was
faster (``change_wins`` of ``rounds``).  Nothing is written into either
checkout: the copies and their bytecode live in the temporary directory,
removed on exit.  The exit status is 1 when any check failed on either
side.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # before any import from a checkout
sys.path.insert(0, str(Path(__file__).resolve().parent))

from cli_row import parse_row  # noqa: E402

SIDES = ("parent", "change")
CAMPAIGN_SEED = 1000  # ladder_checks.py's campaign mix


def load(checkouts, root: Path) -> dict:
    """Each side's library, copied from its checkout into ``root`` and imported."""
    sys.path.insert(0, str(root))
    libraries = {}
    for side, checkout in zip(SIDES, checkouts):
        source = checkout / "src" / "cavepoly"
        if not (source / "__init__.py").is_file():
            raise SystemExit("error: %s has no src/cavepoly package" % checkout)
        shutil.copytree(source, root / ("cavepoly_" + side), ignore=shutil.ignore_patterns("__pycache__"))
        libraries[side] = importlib.import_module("cavepoly_" + side)
    return libraries


def builds(lib, args) -> list:
    """The round's instances, built afresh by ``lib``."""
    if args.row:
        r, m = args.row
        return [lib.named_family("uniform", r=r, m=m)]
    strategies = lib.genverify.STRATEGIES
    return [lib.random_polymatroid(lib.GeneratorConfig(
        seed=CAMPAIGN_SEED + i // len(strategies), p=4, max_rank=6, max_cage_entry=4,
        strategy=strategies[i % len(strategies)])) for i in range(args.campaign)]


def one_round(lib, args) -> tuple:
    """(seconds by figure, every check passed) of one round under ``lib``."""
    gc.collect()
    sums, passed = {"inputs": 0.0}, True
    for P in builds(lib, args):
        report = lib.verify_instance(P)
        passed = passed and report.passed
        sums["inputs"] += report.inputs_elapsed
        for result in report.results:
            sums[result.name] = sums.get(result.name, 0.0) + result.elapsed
    sums["total"] = sum(sums.values())
    return sums, passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--row", type=parse_row, metavar="R;M1,...,MP", help="measure this uniform row")
    what.add_argument("--campaign", type=int, metavar="N", help="measure N campaign-mix instances")
    parser.add_argument("--rounds", type=int, default=5, metavar="K")
    args = parser.parse_args(argv)
    if args.campaign is not None and args.campaign < 1 or args.rounds < 1:
        parser.error("--campaign and --rounds need at least 1")
    runs, passed = {side: [] for side in SIDES}, True
    with tempfile.TemporaryDirectory(prefix="ab-checks-") as root:
        libraries = load((args.parent, args.change), Path(root))
        for k in range(args.rounds):
            for side in SIDES if k % 2 == 0 else reversed(SIDES):
                sums, ok = one_round(libraries[side], args)
                runs[side].append(sums)
                passed = passed and ok
            print("round %d: parent %.3f s, change %.3f s" % (
                k + 1, runs["parent"][-1]["total"], runs["change"][-1]["total"]), file=sys.stderr)
    figures = {}
    for name in runs["parent"][0]:
        parent, change = ([sums[name] for sums in runs[side]] for side in SIDES)
        medians = statistics.median(parent), statistics.median(change)
        figures[name] = {"parent_s": medians[0], "change_s": medians[1],
                         "ratio": medians[1] / medians[0] if medians[0] else None,
                         "change_wins": sum(map(float.__lt__, change, parent)), "rounds": args.rounds}
    document = {"python": platform.python_version(), "rounds": args.rounds,
                "instances": {"row": "%d; %s" % (args.row[0], list(args.row[1]))} if args.row
                else {"campaign": args.campaign}, "passed": passed, "figures": figures}
    sys.stdout.write(json.dumps(document, indent=2) + "\n")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
