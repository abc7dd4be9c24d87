"""Seconds of every instance command on one ladder row, in process, by
stage, as JSON.

    python3 tools/cli_row.py --out cli_row.json
    python3 tools/cli_row.py --row "8;4,4,4,4"

The row (r; m) is the uniform polymatroid rk(S) = min(r, sum of m over S),
(12; [4]x6) by default; ``--row "r;m1,...,mp"`` picks another.  Its rank
document, as ``cli.rank_document`` writes it, is fed to ``cli.run_command``
for each command of ``COMMANDS``, with the output written to a string.
Each command's run is split into stages by timing the CLI's own module
attributes while it runs:

* ``parse_s``: ``parse_instance``;
* ``document_s``: ``polynomial_document`` and ``serialize_instance``;
* ``emit_s``: ``_emit``;
* ``compute_s``: the rest of the run (argument parsing, the route, and a
  document built inline, such as the independence points or the Mobius
  table).

Each of three repeats parses the document afresh, so no memoised result
carries over.  A stage's figure is its best over the repeats, ``total_s``
the best whole run.  The document goes to ``--out``, or to stdout without
it; the exit status is 1 when any command exits nonzero.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cavepoly import cli, named_family  # noqa: E402

ROW = (12, (4,) * 6)
REPEATS = 3
COMMANDS = (["validate"], ["points"], ["independence"], ["cave"], ["stal"], ["box"], ["mobius", "--table"],
            ["snapper"], ["snapper", "--expand"], ["equal"])
STAGES = {"parse_s": ("parse_instance",), "document_s": ("polynomial_document", "serialize_instance"),
          "emit_s": ("_emit",)}


def timed(seconds, stage, function):
    """``function``, adding the seconds of each call to ``seconds[stage]``."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            seconds[stage] += time.perf_counter() - start
    return wrapper


def run_once(argv, document) -> dict:
    """One in-process run of ``cavepoly <argv>`` on ``document``, by stage."""
    seconds = dict.fromkeys(STAGES, 0.0)
    originals = {name: getattr(cli, name) for names in STAGES.values() for name in names}
    for stage, names in STAGES.items():
        for name in names:
            setattr(cli, name, timed(seconds, stage, originals[name]))
    out, err = io.StringIO(), io.StringIO()
    try:
        start = time.perf_counter()
        status = cli.run_command(list(argv), stdin=io.StringIO(document), stdout=out, stderr=err)
        total = time.perf_counter() - start
    finally:
        for name, function in originals.items():
            setattr(cli, name, function)
    seconds["compute_s"] = total - sum(seconds.values())
    return {"status": status, "stdout_chars": len(out.getvalue()), "total_s": total, **seconds}


def measure(argv, document) -> dict:
    """The best of ``REPEATS`` runs, stage by stage."""
    runs = [run_once(argv, document) for _ in range(REPEATS)]
    best = {key: min(run[key] for run in runs) for key in ("total_s", "parse_s", "compute_s", "document_s", "emit_s")}
    return {"status": max(run["status"] for run in runs), "stdout_chars": runs[0]["stdout_chars"], **best}


def parse_row(text):
    """``"r;m1,...,mp"`` as (r, (m1, ..., mp))."""
    try:
        r, m = text.split(";")
        return int(r), tuple(int(part) for part in m.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError('expected "r;m1,...,mp", e.g. "8;4,4,4,4", got %r' % text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", type=parse_row, default=ROW, metavar="R;M1,...,MP")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    r, m = args.row
    document = json.dumps(cli.rank_document(named_family("uniform", r=r, m=m)))
    commands = {}
    for command in COMMANDS:
        commands[" ".join(command)] = measure(command, document)
        print("%s: %.4f s" % (" ".join(command), commands[" ".join(command)]["total_s"]), file=sys.stderr)
    result = {"python": platform.python_version(), "repeats": REPEATS, "row": "%d; %s" % (r, list(m)),
              "commands": commands}
    text = json.dumps(result, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0 if all(row["status"] == 0 for row in commands.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
