"""Dump the full exact character table of a bundled group's wreath product.

Usage: python scripts/dump_wreath_table.py GROUP N [OUT.json]

GROUP is a bundled group name and N a non-negative integer; anything else
prints this usage and exits 2.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wreathsph.groups import bundled, bundled_names
from wreathsph.spherical import canonical_json
from wreathsph.wreath import wreath_table_json


def main() -> int:
    args = sys.argv[1:]
    if not 2 <= len(args) <= 3 or args[0] not in bundled_names() or not args[1].isdecimal():
        print(__doc__, file=sys.stderr)
        return 2
    name, n = args[0], int(args[1])
    _group, table = bundled(name)
    payload = canonical_json(wreath_table_json(table, n))
    if len(args) == 3:
        Path(args[2]).write_text(payload)
        print("wrote", args[2])
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
