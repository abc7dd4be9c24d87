"""Line counts of the library's modules, by kind, as JSON.

    python3 tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to this checkout's ``src/``.  Every ``*.py`` file under it
gets one entry, keyed by its path relative to SRC_DIR, and ``"total"`` sums
them.  Each line of a file is one of:

* ``docstring`` -- inside a module, class or function docstring;
* ``blank``     -- empty or whitespace only;
* ``comment``   -- a ``#`` comment and nothing else;
* ``code``      -- anything else.

Uses the standard library's ``ast`` only.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("docstring", "blank", "comment", "code")


def docstring_lines(tree) -> set:
    """The line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> dict:
    """``{"total": n, kind: n for each kind}`` for the source ``text``."""
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    lines = text.splitlines()
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return {"total": len(lines), **counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    modules = {path.relative_to(args.src).as_posix(): count_lines(path.read_text(encoding="utf-8"))
               for path in sorted(args.src.rglob("*.py"))}
    total = {key: sum(entry[key] for entry in modules.values()) for key in ("total", *KINDS)}
    print(json.dumps({"modules": modules, "total": total}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
