"""Dump the full exact character table of a bundled group's wreath product.

Usage: python scripts/dump_wreath_table.py GROUP N [OUT.json]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wreathsph.groups import bundled
from wreathsph.spherical import canonical_json
from wreathsph.wreath import wreath_table_json


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    name, n = sys.argv[1], int(sys.argv[2])
    group, table = bundled(name)
    payload = canonical_json(wreath_table_json(table, n))
    if len(sys.argv) > 3:
        Path(sys.argv[3]).write_text(payload)
        print("wrote", sys.argv[3])
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
