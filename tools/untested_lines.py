"""The ``src/`` lines that tier-1 never runs, as JSON per module.

    python3 tools/untested_lines.py --out untested_lines.json

Runs tier-1 (``pytest -q`` from the root of this checkout) in this
process under the stdlib ``trace`` module, with the library imported from
this checkout's ``src/``, and writes one entry per module:
``{"cavepoly/polyalg.py": [lines never run], ...}``.  A line is executable
when it starts a line in the module's compiled code (the module's, a class
body's or a function's).  Only frames of files under ``src/`` are traced,
but tracing the library still makes tier-1 several times slower (minutes,
not seconds), so this is not a CI step.  The exit status is pytest's.
"""

from __future__ import annotations

import argparse
import dis
import json
import os
import sys
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable_lines(path: Path) -> set:
    """The line numbers at which the compiled code of ``path`` starts a line."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


class OutsideSrc(dict):
    """trace's ignore filter, by file: ``names`` is true for a file outside
    ``src/``.  (trace's own filter caches its verdict per module basename,
    so an ignored ``__init__`` or ``core`` elsewhere would hide the library's.)"""

    def names(self, filename, modulename):
        if filename not in self:
            self[filename] = not os.path.realpath(filename).startswith(str(SRC) + os.sep)
        return self[filename]


def untested_lines(counts) -> dict:
    """Per ``src/`` module (path relative to ``src/``), the sorted executable
    lines that ``counts`` (trace's ``{(filename, line): hits}``) never saw."""
    seen = {}
    for filename, line in counts:
        seen.setdefault(os.path.realpath(filename), set()).add(line)
    return {path.relative_to(SRC).as_posix(): sorted(executable_lines(path) - seen.get(str(path.resolve()), set()))
            for path in sorted(SRC.rglob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import pytest

    out = args.out.resolve()
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = OutsideSrc()
    status = tracer.runfunc(pytest.main, ["-q", "-p", "no:cacheprovider"])
    out.write_text(json.dumps(untested_lines(tracer.results().counts), indent=1) + "\n")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
