"""Emit spherical-function tables for the bundled groups into an output
directory, one CSV per (group, twist, sign character, degree).

Usage: python scripts/make_tables.py OUTDIR [group ...]

Each group is one of c1, c2, c3, c4, c5, c6 and q8 (all of them when none
is given); anything else prints this usage and exits 2.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wreathsph.groups import bundled, linear_characters
from wreathsph.spherical import SphericalContext, build_table
from wreathsph.wreath import PI_NAMES

DEGREES = {"c1": 3, "c2": 3, "c3": 2, "c4": 2, "c5": 1, "c6": 1, "q8": 1}


def main() -> int:
    names = sys.argv[2:] or list(DEGREES)
    if len(sys.argv) < 2 or any(name not in DEGREES for name in names):
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        group, table = bundled(name)
        for xi in linear_characters(table):
            for pi in PI_NAMES:
                for n in range(1, DEGREES[name] + 1):
                    ctx = SphericalContext(group, table, xi, pi, n)
                    tab = build_table(ctx, "brute")
                    path = outdir / f"{name}_{table.names[xi]}_{pi}_n{n}.csv"
                    path.write_text(tab.to_csv())
                    print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
