"""Per-check seconds of ``verify_instance`` on the scale ladder, as JSON.

    python3 tools/ladder_checks.py --out ladder_checks.json

The ladder is five uniform polymatroids rk(S) = min(r, sum of m over S),
the rows (r; m) of the ROADMAP's measurement table, up to (12; [4]x6) with
8688 independence points.  Each of three repeats builds every row afresh,
so no memoised result carries over, and runs all ten checks on it; a
check's figure is the best of its ``elapsed`` over the repeats, and
``total_s`` the best sum.  Building the row (rank table, base points) is
not timed.  The library is imported from this checkout's ``src/``.  One
line per row and repeat goes to stderr; the exit status is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cavepoly import independence_points, named_family, verify_instance  # noqa: E402

ROWS = ((8, (4,) * 4), (10, (4,) * 5), (9, (3,) * 6), (8, (2,) * 7), (12, (4,) * 6))
REPEATS = 3


def measure(r, m) -> dict:
    """Sizes, verdict and best per-check seconds of the row (r; m)."""
    best, totals, passed = {}, [], True
    for _ in range(REPEATS):
        P = named_family("uniform", r=r, m=m)
        report = verify_instance(P)
        passed = passed and report.passed
        for result in report.results:
            best[result.name] = min(best.get(result.name, result.elapsed), result.elapsed)
        totals.append(sum(result.elapsed for result in report.results))
        print("%d; %s: %.3f s" % (r, list(m), totals[-1]), file=sys.stderr)
    return {"base_points": len(P.points), "independence_points": len(independence_points(P)),
            "passed": passed, "total_s": min(totals), "checks_s": best}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    rows = {"%d; %s" % (r, list(m)): measure(r, m) for r, m in ROWS}
    document = {"python": platform.python_version(), "repeats": REPEATS, "rows": rows}
    args.out.write_text(json.dumps(document, indent=2) + "\n")
    return 0 if all(row["passed"] for row in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
