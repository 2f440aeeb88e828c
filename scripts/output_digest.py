"""Print one SHA-256 over the package's table output, as a golden digest.

Usage: python scripts/output_digest.py

It hashes, in this order:
  * for each bundled configuration in LIMITS (group, then every linear xi,
    every pi in PI_NAMES, and n = 1..limit): the symfunc table's to_json()
    text, then str() of the closed engine's value at every cell in
    row-major order, None included;
  * str(classical_spherical(shape, pi, rho_hat)) for n = 1..6, every shape
    of 2n, every pi and every rho_hat of n.

A change that alters any of these values on purpose changes the digest,
which tests/test_cli.py pins.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wreathsph.groups import bundled, linear_characters
from wreathsph.partitions import partitions_of
from wreathsph.spherical import (
    SphericalContext,
    build_table,
    classical_spherical,
    spherical_closed,
)
from wreathsph.wreath import PI_NAMES

LIMITS = {  # group name -> largest n hashed
    "c1": 6,
    "c2": 5,
    "c3": 3,
    "c4": 3,
    "q8": 3,
    "c5": 2,
    "c6": 2,
    "gl2f3": 2,
}


def output_digest() -> str:
    h = hashlib.sha256()
    for name, nmax in LIMITS.items():
        group, table = bundled(name)
        for xi in linear_characters(table):
            for pi in PI_NAMES:
                for n in range(1, nmax + 1):
                    ctx = SphericalContext(group, table, xi, pi, n)
                    h.update(build_table(ctx, "symfunc").to_json().encode())
                    for lam in ctx.rows:
                        for rho in ctx.cols:
                            h.update(str(spherical_closed(ctx, lam, rho)).encode())
    for n in range(1, 7):
        for shape in partitions_of(2 * n):
            for pi in PI_NAMES:
                for rho_hat in partitions_of(n):
                    h.update(str(classical_spherical(shape, pi, rho_hat)).encode())
    return h.hexdigest()


if __name__ == "__main__":
    print(output_digest())
