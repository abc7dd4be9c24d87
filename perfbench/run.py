"""cavepoly benchmark: one workload, one run, metrics as JSON on the last line.

    python3 perfbench/run.py --workload {campaign,ladder,cli-wide} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout; it measures the ``src/cavepoly`` tree
there and exits with status 2, printing no result, when that tree is missing.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  One worker
process runs the blocks of ``--seconds`` (see worker.py).  Set-up is sampled
SETUP_SAMPLES times, each in a fresh interpreter (that worker among them),
and reported as the median.  Times are scaled to the host speed at which the
benchmark was defined: the worker measures the host's speed with a fixed
reference loop after set-up and between ops (see worker.py), and each op's
time and each set-up sample is multiplied by the host factor measured next to
it.  The raw figures are in the details line.

``--trace 1`` prints the per-layer metrics.  Worker A runs the blocks of half
of ``--seconds`` with a span around every call into a layer, and worker B, a
fresh process, runs the same ops untraced.  The pair gives the tracing
overhead, and their per-op sizes must agree exactly (the determinism check).

Every op's output is checked; failures are counted, never fatal.  Lines
before the last one hold the run record (Python, CPUs, platform, seed,
commit) and details: failed_frac, sample counts, the latency median and
tail, and for traced runs the campaign's per-check split and the ladder's
rows in the ROADMAP baseline-table columns.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("campaign", "ladder", "cli-wide")
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
BUDGET_S = 170  # the whole run, workers included
SIZE_KEYS = ("base_points", "independence_points", "cave_terms", "box_volume", "subset_sums",
             "distinct_truncations", "truncations_visited")
LADDER_COLUMNS = (
    ("points_from_rank", ("core.points_from_rank",)),
    ("is_m_convex", ("core.is_m_convex",)),
    ("independence", ("geometry.independence_points",)),
    ("cave", ("algorithms.cave_polynomial",)),
    ("stalactite", ("algorithms.stalactite_polynomial",)),
    ("box", ("algorithms.box_polynomial",)),
    ("mobius", ("algorithms.mobius_polynomial",)),
    ("snapper", ("algorithms.snapper_from_cave", "algorithms.snapper_eur_larson", "polyalg.expand_binomial")),
)


class WorkerError(RuntimeError):
    pass


def run_worker(argv, deadline):
    """Run one worker to completion.  Returns ((set-up seconds, host factor),
    result dict or None for a set-up-only worker).  Set-up runs from the
    spawn to the worker's ready line; both ends read the system-wide
    monotonic clock."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + argv, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("worker %s ran past the time budget" % argv)
    finally:
        _stop_group(proc)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError("worker %s exited with status %s" % (argv, proc.returncode))
    ready = json.loads(lines[0])
    result = json.loads(lines[-1]) if len(lines) > 1 else None
    if result is not None and not result["latencies"]:
        raise WorkerError("worker %s ran no ops" % argv)
    return (ready["ready"] - spawned, ready["host_factor"]), result


def _stop_group(proc):
    """Kill whatever the worker left in its process group and wait for it."""
    if proc.poll() is None:
        proc.kill()
        proc.wait()
    end = time.monotonic() + 5
    while time.monotonic() < end:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def tail(values):
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it, and its value; the maximum when there are too few samples."""
    if len(values) > TAIL_BEYOND:
        cuts = statistics.quantiles(values, n=100, method="inclusive")
        for q in range(99, 0, -1):
            if sum(1 for x in values if x > cuts[q - 1]) >= TAIL_BEYOND:
                return q, cuts[q - 1]
    return 100, max(values)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(setups, result):
    lat = result["latencies"]
    adjusted = [latency * factor for latency, factor in zip(lat, result["host_factors"])]
    values = {
        "setup_s": statistics.median(seconds * factor for seconds, factor in setups),
        "ops_per_s.adjusted": len(lat) / sum(adjusted),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    q, value = tail(lat)
    details = {
        "ops": len(lat),
        "blocks": result["blocks"],
        "timed_s": sum(lat),
        "ops_per_s": len(lat) / sum(lat),
        "host_factor": sum(adjusted) / sum(lat),
        "latency_s.p50": statistics.median(lat),
        "latency_s.tail": value,
        "tail_percentile": q,
        "setup_samples_s": [seconds for seconds, _ in setups],
        "setup_host_factors": [factor for _, factor in setups],
    }
    return values, details


def per_layer(traced, replay):
    sizes = traced["sizes"]
    n = len(sizes)

    def total(key):
        return sum(s[key] for s in sizes)

    self_times = traced["self_times"]
    values = {"size." + key: total(key) / n for key in SIZE_KEYS}
    values["core.base_yield"] = total("base_points") / total("box_volume")
    values["geometry.independence_yield"] = total("independence_points") / total("box_volume")
    visited = total("truncations_visited")
    values["geometry.truncation_yield"] = total("distinct_truncations") / visited if visited else 0.0
    values["trace.ops_per_s"] = n / sum(traced["latencies"])
    values["trace.untraced_ops_per_s"] = n / sum(replay["latencies"])
    values["trace.overhead_frac"] = sum(traced["latencies"]) / sum(replay["latencies"]) - 1
    values["unattributed_s"] = self_times.get("op", 0.0)
    return values, self_times


def ladder_table(traced):
    """The first pass's rows in the ROADMAP baseline-table columns (seconds,
    inclusive of nested layers)."""
    inclusive = {}
    for op, name, value in traced["inclusive"]:
        inclusive[op, name] = value
    lines = ["| row | |B| | |I| | " + " | ".join(name for name, _ in LADDER_COLUMNS) + " |"]
    for op in range(min(5, len(traced["sizes"]))):
        cells = ["%.3f" % sum(inclusive.get((op, layer), 0.0) for layer in layers) for _, layers in LADDER_COLUMNS]
        size = traced["sizes"][op]
        lines.append("| %s | %d | %d | %s |" % (traced["labels"][op], size["base_points"], size["independence_points"],
                                                 " | ".join(cells)))
    return lines


def check_split(traced):
    """Inclusive seconds per verification check, and its share of op time."""
    prefix = "genverify.check."
    totals = {}
    for _, name, value in traced["inclusive"]:
        if name.startswith(prefix):
            check = name[len(prefix):]
            totals[check] = totals.get(check, 0.0) + value
    busy = sum(traced["latencies"])
    return {name: {"s": value, "share": value / busy} for name, value in sorted(totals.items(), key=lambda kv: -kv[1])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ops", type=int, default=None, help="run exactly this many ops (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cavepoly" / "__init__.py").is_file():
        print("perfbench: no cavepoly source tree under %s" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    record = {"python": platform.python_version(), "nproc": os.cpu_count(), "platform": platform.platform(),
              "seed": args.seed, "commit": git_commit(), "workload": args.workload, "trace": args.trace,
              "seconds": args.seconds}

    def blocks(seconds):
        return ["--seconds", str(seconds)] + ([] if args.ops is None else ["--ops", str(args.ops)])

    try:
        if args.trace == 0:
            setups = [run_worker(base + ["--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
            setup, first = run_worker(base + blocks(args.seconds) + ["--trace", "0"], deadline)
            values, details = end_to_end(setups + [setup], first)
            failed = first["failed"]
            metrics = spec["end_to_end"]
            correct = True
        else:
            _, first = run_worker(base + blocks(args.seconds / 2) + ["--trace", "1"], deadline)
            _, second = run_worker(base + ["--trace", "0", "--ops", str(len(first["latencies"])), "--sizes"],
                                   deadline)
            values, self_times = per_layer(first, second)
            for metric in spec["per_layer"]:
                name = metric["name"]
                if name not in values and name.endswith("_s"):
                    values[name] = self_times.get(name[:-2], 0.0)
            failed = sorted(set(first["failed"]) | set(second["failed"]))
            correct = first["sizes"] == second["sizes"]
            details = {"ops": len(first["latencies"]), "blocks": first["blocks"], "spans": first["spans"],
                       "spans_file": first["spans_file"], "deterministic": correct, "self_times_s": self_times}
            if args.workload == "campaign":
                details["check_split"] = check_split(first)
            metrics = spec["per_layer"]
    except WorkerError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    attempted = len(first["latencies"])
    details["failed_frac"] = len(failed) / attempted
    print(json.dumps({"record": record, "details": details}))
    if args.trace and args.workload == "ladder":
        print("\n".join(ladder_table(first)))
    print(json.dumps({
        "correct": correct and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
