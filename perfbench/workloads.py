"""The three benchmark workloads: their inputs, their ops and their gates.

Importing this module puts the checkout's ``src`` tree first on ``sys.path``
and imports ``cavepoly`` from there; it refuses any other copy, so the
benchmark always measures the source it was checked out with.

Each workload class yields *blocks* of ops, each block with the same op mix;
a run executes a fixed number of whole blocks (see worker.py):

* ``ladder``   -- a block is one pass over the five ROADMAP rows;
* ``cli-wide`` -- a block is all 6 commands x 12 (p, r, form) strata;
* ``campaign`` -- a block is 96 distinct generated instances drawn from
  consecutive generator seeds to fixed quotas per |B|*|I| bucket (see
  ``CAMPAIGN_QUOTAS``), served by a separate generator process so that the
  measured process never builds an instance before its timed op does.

No two ops of one process share a point set (``assert_distinct``), so the
library's result caches never serve one op from another.
"""

from __future__ import annotations

import bisect
import hashlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().with_name("worker.py")
GENERATOR_TIMEOUT = 120


def _import_library():
    if not (SRC / "cavepoly" / "__init__.py").is_file():
        raise SystemExit("perfbench: no cavepoly source tree at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import cavepoly

    if Path(cavepoly.__file__).resolve().parent != (SRC / "cavepoly").resolve():
        raise SystemExit("perfbench: imported cavepoly from %s, not from %s" % (cavepoly.__file__, SRC))
    return cavepoly


cavepoly = _import_library()
from cavepoly import algorithms, cli, core, genverify, geometry, polyalg  # noqa: E402

MODULES = (cavepoly, core, geometry, algorithms, polyalg, genverify, cli)

# Layer name -> the module attributes whose calls it times.  ``cli.emit`` is
# building and writing the output document.
LAYERS = {
    "core.validate_rank_function": (core, ("validate_rank_function",)),
    "core.points_from_rank": (core, ("points_from_rank",)),
    "core.is_m_convex": (core, ("is_m_convex",)),
    "core.rank_from_points": (core, ("rank_from_points",)),
    "geometry.independence_points": (geometry, ("independence_points",)),
    "geometry.is_cave": (geometry, ("is_cave",)),
    "algorithms.cave_polynomial": (algorithms, ("cave_polynomial",)),
    "algorithms.stalactite_polynomial": (algorithms, ("stalactite_polynomial",)),
    "algorithms.box_polynomial": (algorithms, ("box_polynomial",)),
    "algorithms.mobius_polynomial": (algorithms, ("mobius_polynomial",)),
    "algorithms.snapper_from_cave": (algorithms, ("snapper_from_cave",)),
    "algorithms.snapper_eur_larson": (algorithms, ("snapper_eur_larson",)),
    "polyalg.expand_binomial": (polyalg, ("expand_binomial",)),
    "genverify.random_polymatroid": (genverify, ("random_polymatroid",)),
    "cli.parse_instance": (cli, ("parse_instance",)),
    "cli.emit": (cli, ("polynomial_document", "serialize_instance", "_emit")),
}


def digest(text: str) -> str:
    """First 16 hex digits of the SHA-256 of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_digests() -> dict:
    with open(Path(__file__).with_name("digests.json"), encoding="utf-8") as handle:
        return json.load(handle)


def assert_distinct(keys) -> None:
    """Cache isolation: every op (and the warm-up) has its own point set."""
    keys = list(keys)
    if len(set(keys)) != len(keys):
        raise AssertionError("two ops share a point set; library caches would serve one from the other")


# ---------------------------------------------------------------- uniform family

def uniform_values(p, r, m):
    """Mask-indexed rank table of rk(S) = min(r, sum of m over S)."""
    return [min(r, sum(m[i] for i in range(p) if mask >> i & 1)) for mask in range(1 << p)]


def uniform_key(r, m):
    """(p, rank, tight cage): distinct keys have distinct base-point sets."""
    return (len(m), min(r, sum(m)), tuple(min(r, x) for x in m))


def uniform_points(r, m):
    """Base points {n <= m : |n| = r} of the uniform polymatroid."""
    return [n for n in itertools.product(*(range(x + 1) for x in m)) if sum(n) == r]


def rank_document(r, m) -> str:
    p = len(m)
    masks = sorted(range(1 << p), key=lambda mask: (bin(mask).count("1"), mask_subset(mask)))
    values = {json.dumps(mask_subset(mask), separators=(",", ":")): min(r, sum(m[i - 1] for i in mask_subset(mask)))
              for mask in masks}
    return json.dumps({"rank": {"p": p, "cage": list(m), "values": values}})


def points_document(r, m) -> str:
    return json.dumps({"points": [list(n) for n in uniform_points(r, m)]})


def mask_subset(mask):
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def box_volume(cage) -> int:
    return math.prod(c + 1 for c in cage)


# ---------------------------------------------------------------- ladder

LADDER_ROWS = ((6, (3,) * 4), (8, (4,) * 4), (10, (4,) * 5), (9, (3,) * 6), (8, (2,) * 7))
LADDER_WARMUP = (4, (2, 2, 2))


def ladder_variants(r, m):
    """The row itself, then every cage m + e_i - e_k (i != k): one entry up by
    one and one down by one, so p, r and the cage total stay fixed."""
    out = [tuple(m)]
    for i, k in itertools.permutations(range(len(m)), 2):
        v = list(m)
        v[i] += 1
        v[k] -= 1
        out.append(tuple(v))
    return out


def ladder_key(r, m) -> str:
    return "%d;%s" % (r, ",".join(map(str, m)))


def ladder_blocks(seed):
    """Passes over the ladder.  Seed 0 starts with the exact ROADMAP rows;
    every other pass uses a seed-chosen single swap of each row."""
    per_row = []
    for index, (r, m) in enumerate(LADDER_ROWS):
        exact, *swaps = ladder_variants(r, m)
        random.Random("ladder:%d:%d" % (seed, index)).shuffle(swaps)
        per_row.append(([exact] if seed == 0 else []) + swaps)
    for cages in zip(*per_row):
        yield [{"r": r, "m": cage} for (r, _), cage in zip(LADDER_ROWS, cages)]


# ---------------------------------------------------------------- cli-wide

CLI_COMMANDS = (("validate",), ("points",), ("independence",), ("cave",), ("equal",), ("snapper", "--expand"))
CLI_STRATA = tuple((p, r, form) for p in (8, 9, 10) for r in (2, 3) for form in ("rank", "points"))
CLI_MAX_BLOCKS = 4
CLI_POOL = CLI_MAX_BLOCKS * len(CLI_COMMANDS) * 2  # cages per (p, r): one per op over all blocks
CLI_WARMUP = (2, (1,) * 8)  # no pool cage is all ones


def cli_pool(p, r):
    """The fixed cages for (p, r): vectors in {1,2}^p with floor(p/2) twos, so
    every document of one (p, r) walks a box of the same volume."""
    cages = [tuple(2 if i in twos else 1 for i in range(p)) for twos in itertools.combinations(range(p), p // 2)]
    random.Random("cli-pool:%d:%d" % (p, r)).shuffle(cages)
    return cages[:CLI_POOL]


def cli_key(command, r, m) -> str:
    return "%s|%d;%s" % (" ".join(command), r, ",".join(map(str, m)))


def cli_blocks(seed):
    """Blocks of 72 (command, document) pairs.  Position t of a block runs
    command t % 6 on stratum (t // 6 + t % 6) % 12, so commands cycle and
    every command meets every stratum once per block."""
    queues = {}
    for p in (8, 9, 10):
        for r in (2, 3):
            pool = cli_pool(p, r)
            random.Random("cli:%d:%d:%d" % (seed, p, r)).shuffle(pool)
            queues[p, r] = iter(pool)
    per_block = len(CLI_COMMANDS) * len(CLI_STRATA)
    for _ in range(CLI_MAX_BLOCKS):
        block = []
        for t in range(per_block):
            command = CLI_COMMANDS[t % len(CLI_COMMANDS)]
            p, r, form = CLI_STRATA[(t // len(CLI_COMMANDS) + t % len(CLI_COMMANDS)) % len(CLI_STRATA)]
            m = next(queues[p, r])
            doc = rank_document(r, m) if form == "rank" else points_document(r, m)
            block.append({"command": command, "r": r, "m": m, "form": form, "doc": doc})
        yield block


# ---------------------------------------------------------------- campaign

CAMPAIGN_P, CAMPAIGN_MAX_RANK, CAMPAIGN_MAX_CAGE = 4, 6, 4
CAMPAIGN_STREAM = 10_000_000  # generator seeds per benchmark seed
# Buckets of |B|*|I| (base points times independence points, the best
# single predictor of an op's time) and how many instances of each a 96-op
# block holds.  The edges are deciles (finer in the tail) over the first 700
# distinct instances of a stream, so a block has the stream's size
# distribution and the median op sits mid-bucket.  Fixed quotas keep the few
# heavy instances from deciding a run's figures by chance.  The last edge
# sits at the stream's 99th percentile: the instances beyond it reach 2x its
# weight, so each of the two heaviest ops has a bucket of its own.
CAMPAIGN_EDGES = (24, 87, 144, 435, 704, 1071, 2080, 3094, 4160, 6900)
CAMPAIGN_QUOTAS = (14, 15, 10, 19, 10, 9, 10, 5, 2, 1, 1)
CAMPAIGN_MAX_CANDIDATES = 50_000  # per block; beyond this the stream counts as exhausted


def campaign_config(strategy, gen_seed):
    return genverify.GeneratorConfig(seed=gen_seed, p=CAMPAIGN_P, max_rank=CAMPAIGN_MAX_RANK,
                                     max_cage_entry=CAMPAIGN_MAX_CAGE, strategy=strategy)


def points_digest(P) -> str:
    return digest(repr(sorted(P.points)))


def campaign_stream(seed):
    """Generator-process side: the warm-up instance (the first one in the
    lightest bucket, so set-up time does not hinge on the seed), then
    blocks.  Candidates cycle the three strategies on consecutive generator
    seeds; a candidate whose point set came up before is skipped (yielded as
    None)."""
    seen = set()

    def candidates():
        for k in itertools.count():
            strategy = genverify.STRATEGIES[k % len(genverify.STRATEGIES)]
            gen_seed = seed * CAMPAIGN_STREAM + k // len(genverify.STRATEGIES)
            P = genverify.random_polymatroid(campaign_config(strategy, gen_seed))
            key = points_digest(P)
            if key in seen:
                yield None
                continue
            seen.add(key)
            yield {"k": k, "strategy": strategy, "seed": gen_seed, "digest": key,
                   "weight": len(P.points) * len(down_closure(P.points))}

    stream = candidates()
    yield next(inst for inst in stream if inst and inst["weight"] < CAMPAIGN_EDGES[0])
    queues = [[] for _ in CAMPAIGN_QUOTAS]
    while True:
        tried = 0
        while any(len(q) < n for q, n in zip(queues, CAMPAIGN_QUOTAS)):
            tried += 1
            if tried > CAMPAIGN_MAX_CANDIDATES:
                return
            inst = next(stream)
            if inst:
                queues[bisect.bisect_right(CAMPAIGN_EDGES, inst["weight"])].append(inst)
        block = []
        for q, n in zip(queues, CAMPAIGN_QUOTAS):
            block.extend(q[:n])
            del q[:n]
        yield sorted(block, key=lambda inst: inst["k"])


# ---------------------------------------------------------------- sizes

def truncation_counts(points):
    """(distinct truncations, points visited) of cave-predicate condition 3:
    it visits every nonzero b in the bounding box of C and checks each
    distinct {q in C : q >= b} with at least two points once."""
    pts = sorted(points)
    p = len(pts[0])
    bounds = [max(q[i] for q in pts) for i in range(p)]
    above = [[sum(1 << j for j, q in enumerate(pts) if q[i] >= v) for v in range(bounds[i] + 1)] for i in range(p)]
    distinct = set()
    for b in itertools.product(*(range(x + 1) for x in bounds)):
        mask = -1
        for i, v in enumerate(b):
            mask &= above[i][v]
        if any(b) and mask & (mask - 1):
            distinct.add(mask)
    return len(distinct), box_volume(bounds) - 1


def down_closure(points) -> set:
    """All n >= 0 below some point.  For a polymatroid this is its
    independence region: every integral independent vector lies under an
    integral base."""
    seen = set(points)
    frontier = list(seen)
    while frontier:
        n = frontier.pop()
        for i, c in enumerate(n):
            if c:
                below = n[:i] + (c - 1,) + n[i + 1:]
                if below not in seen:
                    seen.add(below)
                    frontier.append(below)
    return seen


def sizes(P, visits_truncations):
    """Exact per-op counts, computed from public results after the op."""
    cave = algorithms.cave_polynomial(P)
    box = box_volume(P.cage)
    distinct, visited = truncation_counts(cave.terms) if visits_truncations else (0, 0)
    return {
        "base_points": len(P.points),
        "independence_points": len(down_closure(P.points)),
        "cave_terms": len(cave.terms),
        "box_volume": box,
        "subset_sums": box << P.p,
        "distinct_truncations": distinct,
        "truncations_visited": visited,
    }


# ---------------------------------------------------------------- workloads

class Workload:
    """One workload as a worker runs it.  ``blocks`` yields lists of ops;
    ``run`` is the timed op; ``gate`` checks its output; ``instance`` gives
    the op's polymatroid for the size counts."""

    visits_truncations = False  # only the campaign reaches the cave predicate

    def key(self, op):
        """The op's point set, up to equality (cache isolation)."""
        return uniform_key(op["r"], op["m"])

    def close(self):
        pass


class Ladder(Workload):
    block_seconds = 5.5

    def __init__(self, seed, tracer=None):
        self.blocks = ladder_blocks(seed)
        self.warmup = {"r": LADDER_WARMUP[0], "m": LADDER_WARMUP[1]}

    def label(self, op):
        return ladder_key(op["r"], op["m"])

    def run(self, op):
        r, m = op["r"], op["m"]
        p = len(m)
        rk = core.validate_rank_function(p, uniform_values(p, r, m), m)
        P = core.points_from_rank(rk)
        geometry.independence_points(P)
        cave = algorithms.cave_polynomial(P)
        stal = algorithms.stalactite_polynomial(P)
        box = algorithms.box_polynomial(P)
        mob = algorithms.mobius_polynomial(P)
        via_cave = polyalg.expand_binomial(algorithms.snapper_from_cave(P))
        via_sum = polyalg.expand_binomial(algorithms.snapper_eur_larson(P))
        checks = {
            "four-way": stal == cave and box == cave and mob == cave,
            "snapper": via_cave == via_sum,
            "coefficient-sum": cave.evaluate((1,) * p) == 1,
        }
        return {"P": P, "checks": checks, "canonical": polyalg.canonical_string(cave)}

    def gate(self, op, out, digests):
        return all(out["checks"].values()) and digests["ladder"].get(self.label(op)) == digest(out["canonical"])

    def instance(self, op, out):
        return out["P"]


class CliWide(Workload):
    block_seconds = 8.5

    def __init__(self, seed, tracer=None):
        self.blocks = cli_blocks(seed)
        r, m = CLI_WARMUP
        self.warmup = {"command": ("validate",), "r": r, "m": m, "form": "points", "doc": points_document(r, m)}

    def label(self, op):
        return cli_key(op["command"], op["r"], op["m"])

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        status = cli.run_command(list(op["command"]), stdin=io.StringIO(op["doc"]), stdout=out, stderr=err)
        return {"status": status, "stdout": out.getvalue()}

    def gate(self, op, out, digests):
        return out["status"] == 0 and digests["cli-wide"].get(self.label(op)) == digest(out["stdout"])

    def instance(self, op, out):
        p, r, m = len(op["m"]), op["r"], op["m"]
        return core.points_from_rank(core.RankFunction(p, uniform_values(p, r, m), m))


class Campaign(Workload):
    block_seconds = 6.5
    visits_truncations = True

    def __init__(self, seed, tracer=None):
        self.check_span = tracer.span if tracer else None
        self.server = subprocess.Popen([sys.executable, str(WORKER), "--generator", "--seed", str(seed)],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.warmup = self._receive()
        self.blocks = self._blocks()

    def _receive(self):
        line = self.server.stdout.readline()
        if not line:
            raise RuntimeError("campaign generator ended unexpectedly")
        return json.loads(line)

    def _blocks(self):
        while True:
            self.server.stdin.write("next\n")
            self.server.stdin.flush()
            block = self._receive()
            if block is None:
                return
            yield block

    def key(self, op):
        return op["digest"]

    def label(self, op):
        return "%s:%d" % (op["strategy"], op["seed"])

    def run(self, op):
        P = genverify.random_polymatroid(campaign_config(op["strategy"], op["seed"]))
        if self.check_span is None:
            return {"P": P, "passed": genverify.verify_instance(P).passed}
        passed = True
        for name in genverify.CHECKS:
            with self.check_span("genverify.check." + name):
                passed = genverify.verify_instance(P, checks=[name]).passed and passed
        return {"P": P, "passed": passed}

    def gate(self, op, out, digests):
        return out["passed"] and points_digest(out["P"]) == op["digest"]

    def instance(self, op, out):
        return out["P"]

    def close(self):
        self.server.stdin.close()
        try:
            self.server.wait(timeout=GENERATOR_TIMEOUT)
        finally:
            if self.server.poll() is None:
                self.server.kill()
                self.server.wait()


WORKLOADS = {"campaign": Campaign, "ladder": Ladder, "cli-wide": CliWide}
