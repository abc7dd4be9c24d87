"""Record the regression digests in digests.json from the current library.

    python3 perfbench/record_digests.py ladder     # every ladder row variant
    python3 perfbench/record_digests.py cli-wide   # every pool document x command

Each section is merged into digests.json.  A digest is the first 16 hex
digits of a SHA-256: of ``canonical_string(cave_polynomial(P))`` for a ladder
row, of the command's stdout for a cli-wide op.  They are a regression
reference only; the independent correctness check is the four-way agreement.
Rank and point documents of one cage give the same stdout, so cli-wide keys
omit the form.
"""

import json
import sys
from pathlib import Path

import workloads as wl


def ladder():
    workload = wl.Ladder(0)
    out = {}
    rows = [wl.LADDER_WARMUP] + [(r, cage) for r, m in wl.LADDER_ROWS for cage in wl.ladder_variants(r, m)]
    for r, m in rows:
        op = {"r": r, "m": m}
        res = workload.run(op)
        if not all(res["checks"].values()):
            raise SystemExit("ladder row %s fails its checks: %s" % (workload.label(op), res["checks"]))
        out[workload.label(op)] = wl.digest(res["canonical"])
    return out


def cli_wide():
    workload = wl.CliWide(0)
    out = {}
    ops = [workload.warmup] + [
        {"command": command, "r": r, "m": m, "doc": wl.points_document(r, m)}
        for p in (8, 9, 10) for r in (2, 3) for m in wl.cli_pool(p, r) for command in wl.CLI_COMMANDS]
    for op in ops:
        res = workload.run(op)
        if res["status"] != 0:
            raise SystemExit("%s exits %d" % (workload.label(op), res["status"]))
        out[workload.label(op)] = wl.digest(res["stdout"])
    return out


def main(section):
    path = Path(__file__).with_name("digests.json")
    table = json.loads(path.read_text()) if path.exists() else {}
    table[section] = {"ladder": ladder, "cli-wide": cli_wide}[section]()
    path.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
