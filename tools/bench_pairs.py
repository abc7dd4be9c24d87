"""Parent/change benchmark pairs: medians of the end-to-end metrics as JSON.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workloads campaign ladder cli-wide \
        --seeds 61 62 63 --out BENCH_<n>.json

PARENT_DIR and CHANGE_DIR are checkouts (each with its own ``perfbench/`` and
``src/``).  For every workload and seed the script runs
``perfbench/run.py --trace 0`` once in each checkout, alternating which side
runs first from one seed to the next, for the ``run_seconds`` that the change
checkout's BENCHMARK.json fixes.  Each run gets a fresh empty
``PYTHONPYCACHEPREFIX``, which perfbench's worker processes inherit, so both
sides compile from source and no ``__pycache__`` is written into either
checkout.  Each run's result line goes to stderr.
The output maps ``"<workload>/<metric>"`` to the parent's and the change's
median over the seeds, with the metric's unit.  Each entry also holds both
sides' runs in seed order (``parent_runs``, ``change_runs``), the spread of
the parent's runs (``parent_iqr``, upper minus lower quartile) and, for a
metric whose better direction BENCHMARK.json gives, the number of seeds on
which the change beat the parent (``change_wins`` of ``pairs``).  The exit
status is 1 when any run failed an op or printed no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """One ``--trace 0`` run in ``checkout``; its result line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, env=env)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s in %s exited with status %d: %s" % (workload, checkout, proc.returncode,
                                                                    proc.stderr.strip()))
    return json.loads(lines[-1])


def iqr(runs) -> float:
    """Upper minus lower quartile; 0 for fewer than two runs."""
    if len(runs) < 2:
        return 0.0
    lower, _, upper = statistics.quantiles(runs, n=4)
    return upper - lower


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    sides = {"parent": args.parent, "change": args.change}
    values, units, clean = {}, {}, True
    for workload in args.workloads:
        for turn, seed in enumerate(args.seeds):
            for side in sorted(sides, reverse=turn % 2 == 1):  # change first on even turns
                result = run(sides[side], workload, seed, seconds)
                print(json.dumps({"workload": workload, "seed": seed, "side": side, **result}), file=sys.stderr)
                clean = clean and result["correct"] and not result["failed"]
                for metric, entry in result["metrics"].items():
                    key = "%s/%s" % (workload, metric)
                    values.setdefault(key, {"parent": [], "change": []})[side].append(entry["value"])
                    units[key] = entry["unit"]
    summary = {}
    for key, runs in values.items():
        parent, change = runs["parent"], runs["change"]
        entry = summary[key] = {"parent": statistics.median(parent), "change": statistics.median(change),
                                "unit": units[key], "parent_runs": parent, "change_runs": change,
                                "parent_iqr": iqr(parent)}
        direction = better.get(key.split("/", 1)[1])
        if direction and len(parent) == len(change):
            sign = 1 if direction == "higher" else -1
            entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            entry["pairs"] = len(parent)
    args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
