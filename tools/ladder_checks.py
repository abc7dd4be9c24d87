"""Per-check seconds of ``verify_instance`` on the scale ladder or on a
campaign mix, as JSON.

    python3 tools/ladder_checks.py --out ladder_checks.json
    python3 tools/ladder_checks.py --row "6;3,3,3,3"
    python3 tools/ladder_checks.py --campaign 60

The ladder is five uniform polymatroids rk(S) = min(r, sum of m over S),
the rows (r; m) of the ROADMAP's measurement table, up to (12; [4]x6) with
8688 independence points; ``--row "r;m1,...,mp"``, in ``cli_row.py``'s
syntax, measures that one row instead.  Each of three repeats builds every
row afresh, so no memoised result carries over, and runs all ten checks on
it; a check's figure is the best of its ``elapsed`` over the repeats,
``inputs_s`` the best of the report's ``inputs_elapsed`` (the stage that
builds the checks' inputs before any check runs), and ``total_s`` the best
sum of the inputs stage and the checks.  Building the row (rank table,
base points) is not timed.  One line per row and repeat goes to stderr.

``--campaign N`` measures N generated instances instead of the ladder:
p = 4, max_rank 6, max_cage_entry 4, instance i drawn by strategy i mod 3
from seed 1000 + i // 3.  Each of three repeats generates them
afresh; each figure is the best over the repeats of its seconds summed
over the N instances, ``total_s`` again the inputs stage and the checks.

The document goes to ``--out``, or to stdout without it.  The library is
imported from this checkout's ``src/``; the exit status is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"), str(Path(__file__).resolve().parent)]

from cavepoly import GeneratorConfig, independence_points, named_family, random_polymatroid, verify_instance  # noqa: E402
from cavepoly.genverify import STRATEGIES  # noqa: E402
from cli_row import parse_row  # noqa: E402

ROWS = ((8, (4,) * 4), (10, (4,) * 5), (9, (3,) * 6), (8, (2,) * 7), (12, (4,) * 6))
REPEATS = 3
CAMPAIGN_SEED = 1000


def best_of(builds, label) -> dict:
    """Verify the polymatroids of each of ``REPEATS`` calls of ``builds`` and
    take the best inputs and per-check sums and the best total over the
    repeats."""
    best, inputs, totals, passed = {}, [], [], True
    for _ in range(REPEATS):
        sums, stage = {}, 0.0
        for P in builds():
            report = verify_instance(P)
            passed = passed and report.passed
            stage += report.inputs_elapsed
            for result in report.results:
                sums[result.name] = sums.get(result.name, 0.0) + result.elapsed
        for name, seconds in sums.items():
            best[name] = min(best.get(name, seconds), seconds)
        inputs.append(stage)
        totals.append(stage + sum(sums.values()))
        print("%s: %.3f s (inputs %.3f s)" % (label, totals[-1], stage), file=sys.stderr)
    return {"passed": passed, "inputs_s": min(inputs), "total_s": min(totals), "checks_s": best}


def measure(r, m) -> dict:
    """Sizes, verdict and best per-check seconds of the row (r; m)."""
    P = named_family("uniform", r=r, m=m)
    row = {"base_points": len(P.points), "independence_points": len(independence_points(P).points)}
    row.update(best_of(lambda: [named_family("uniform", r=r, m=m)], "%d; %s" % (r, list(m))))
    return row


def campaign_configs(count) -> list:
    """The generator configs of a campaign mix of ``count`` instances."""
    return [GeneratorConfig(seed=CAMPAIGN_SEED + i // len(STRATEGIES), p=4, max_rank=6, max_cage_entry=4,
                            strategy=STRATEGIES[i % len(STRATEGIES)]) for i in range(count)]


def measure_campaign(count) -> dict:
    """Verdict and best per-check seconds, summed over a campaign mix."""
    configs = campaign_configs(count)
    row = {"instances": count}
    row.update(best_of(lambda: map(random_polymatroid, configs), "campaign of %d" % count))
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    instead = parser.add_mutually_exclusive_group()
    instead.add_argument("--row", type=parse_row, metavar="R;M1,...,MP", help="measure this one row, not the ladder")
    instead.add_argument("--campaign", type=int, metavar="N", help="measure N campaign-mix instances, not the ladder")
    args = parser.parse_args(argv)
    if args.campaign is not None and args.campaign < 1:
        parser.error("--campaign needs N >= 1")
    document = {"python": platform.python_version(), "repeats": REPEATS}
    if args.campaign is None:
        document["rows"] = {"%d; %s" % (r, list(m)): measure(r, m) for r, m in ([args.row] if args.row else ROWS)}
        rows = document["rows"].values()
    else:
        document["campaign"] = measure_campaign(args.campaign)
        rows = [document["campaign"]]
    text = json.dumps(document, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0 if all(row["passed"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
