"""One workload process, started by run.py.

It sets up (imports the library, runs one untimed warm-up op), prints a
``{"ready": ..., "host_factor": ...}`` line (the factor from a probe of
SETUP_PROBE_S run after set-up ends), then runs a fixed number of whole
blocks of ops (or exactly ``--ops`` ops), and prints one result line.  The
block count is ``--seconds`` over the workload's ``block_seconds``, rounded,
and at least one.  ``block_seconds`` is a block's op time as measured when
the benchmark was defined (Python 3.11, 2-CPU host), so a run is the same
work on every commit and took about ``--seconds`` then.

With ``--trace 1`` it records spans; with ``--sizes`` it records the exact
per-op counts after each op, outside the timed region.  ``--generator``
turns it into the campaign's instance server instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import workloads as wl
from spans import Tracer

# The host-speed probe.  On a shared host, other tenants' work slows this
# process's CPU by up to 1.7x for minutes at a time.  reference_loop is the
# yardstick: REFERENCE_LOOP_S is its time on the 2-CPU host the benchmark was
# defined on (Python 3.11), and PROBE_SHARE is the probe's time after each op
# as a share of the op's time.
REFERENCE_ITERATIONS = 2000
REFERENCE_LOOP_S = 0.0015
PROBE_SHARE = 0.05
SETUP_PROBE_S = 0.05
PROBE_MIN_LOOPS = 2


def serve_generator(seed):
    stream = wl.campaign_stream(seed)
    print(json.dumps(next(stream)), flush=True)
    for request in sys.stdin:
        if request.strip() != "next":
            break
        print(json.dumps(next(stream, None)), flush=True)


def reference_loop():
    """Fixed interpreter work (tuple keys, a dict, integer arithmetic, a
    sort), in the style of the library's inner loops but never calling it."""
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i % 7
    return sorted(table.items())


def probe(seconds):
    """Run reference_loop for about ``seconds``, at least PROBE_MIN_LOOPS
    times, with the garbage collector off so that the library's heap does not
    change its cost.  Returns (elapsed seconds, loops)."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        loops, start = 0, time.perf_counter()
        while True:
            reference_loop()
            loops += 1
            elapsed = time.perf_counter() - start
            if loops >= PROBE_MIN_LOOPS and elapsed >= seconds:
                return elapsed, loops
    finally:
        if gc_was_on:
            gc.enable()


def run_ops(workload, digests, max_blocks, max_ops, tracer, with_sizes):
    """Run ``max_blocks`` whole blocks (or ``max_ops`` ops).  Returns per-op
    latencies, host factors, failures, sizes and labels, and the block count.

    Right after each op (and once before the first) the host-speed probe runs
    for PROBE_SHARE of the op's time.  An op's host factor is
    REFERENCE_LOOP_S over the mean loop time of the probes just before and
    just after it: below 1 when the host ran slower than the reference."""
    latencies, failed, op_sizes, labels = [], [], [], []
    gaps = [probe(0.0)]
    seen = {workload.key(workload.warmup)}
    blocks = 0
    for block in workload.blocks:
        keys = [workload.key(op) for op in block]
        wl.assert_distinct(list(seen) + keys)
        seen.update(keys)
        blocks += 1
        for op in block:
            if tracer:
                tracer.op_id = len(latencies)
                start = time.perf_counter()
                with tracer.span("op"):
                    out = workload.run(op)
            else:
                start = time.perf_counter()
                out = workload.run(op)
            latencies.append(time.perf_counter() - start)
            gaps.append(probe(PROBE_SHARE * latencies[-1]))
            labels.append(workload.label(op))
            if tracer:
                tracer.enabled = False
            if not workload.gate(op, out, digests):
                failed.append(len(latencies) - 1)
            if with_sizes:
                op_sizes.append(wl.sizes(workload.instance(op, out), workload.visits_truncations))
            if tracer:
                tracer.enabled = True
            if max_ops is not None and len(latencies) >= max_ops:
                break
        if blocks == max_blocks if max_ops is None else len(latencies) >= max_ops:
            break
    factors = [REFERENCE_LOOP_S * (before[1] + after[1]) / (before[0] + after[0])
               for before, after in zip(gaps, gaps[1:])]
    return {"latencies": latencies, "host_factors": factors, "failed": failed, "sizes": op_sizes,
            "labels": labels, "blocks": blocks}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None)
    parser.add_argument("--sizes", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--generator", action="store_true")
    args = parser.parse_args(argv)
    if args.generator:
        serve_generator(args.seed)
        return 0

    digests = wl.load_digests()
    tracer = Tracer() if args.trace else None
    workload = wl.WORKLOADS[args.workload](args.seed, tracer)
    try:
        out = workload.run(workload.warmup)
        if not workload.gate(workload.warmup, out, digests):
            raise RuntimeError("warm-up op failed its gate")
        ready = time.monotonic()
        elapsed, loops = probe(SETUP_PROBE_S)
        print(json.dumps({"ready": ready, "host_factor": REFERENCE_LOOP_S * loops / elapsed}), flush=True)
        if args.setup_only:
            return 0
        if tracer:
            tracer.install(wl.MODULES, wl.LAYERS)
        result = run_ops(workload, digests, max(1, round(args.seconds / workload.block_seconds)), args.ops, tracer,
                         args.sizes or bool(tracer))
        if tracer:
            tracer.uninstall()
    finally:
        workload.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["self_times"] = tracer.self_times()
        result["inclusive"] = [[op, name, value] for (op, name), value in tracer.inclusive_by_op().items()]
        result["spans"] = len(tracer.starts)
        path = Path(wl.ROOT, "perfbench", "out", "spans-%s-%d.tsv.gz" % (args.workload, args.seed))
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(wl.ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
