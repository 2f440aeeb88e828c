"""Sweep the bundled groups and cross-check all three spherical engines.

Usage: python scripts/run_reconcile.py [max_n]

Prints one line per (group, twist, sign character, degree) configuration and
exits 1 if any engine pair disagrees anywhere.  max_n, a non-negative
integer, caps the degree; anything else prints this usage and exits 2.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wreathsph.groups import bundled, linear_characters
from wreathsph.spherical import SphericalContext, reconcile
from wreathsph.wreath import PI_NAMES


BUDGETS = {  # group name -> max degree worth running exhaustively
    "c1": 3,
    "c2": 2,
    "c3": 2,
    "c4": 2,
    "c5": 1,
    "c6": 1,
    "q8": 1,
}


def main() -> int:
    args = sys.argv[1:]
    if len(args) > 1 or not all(arg.isdecimal() for arg in args):
        print(__doc__, file=sys.stderr)
        return 2
    cap = int(args[0]) if args else 99
    bad = 0
    for name, nmax in BUDGETS.items():
        group, table = bundled(name)
        for xi in linear_characters(table):
            for pi in PI_NAMES:
                for n in range(1, min(nmax, cap) + 1):
                    t0 = time.time()
                    ctx = SphericalContext(group, table, xi, pi, n)
                    report = reconcile(ctx)
                    status = "ok" if report.ok() else "MISMATCH"
                    print(
                        f"{name:6s} xi={table.names[xi]:5s} pi={pi:10s} n={n}"
                        f"  rows={len(ctx.rows):3d}  {status}"
                        f"  ({time.time()-t0:.2f}s)"
                    )
                    bad += not report.ok()
    print("all engines agree" if not bad else f"{bad} configurations disagree")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
