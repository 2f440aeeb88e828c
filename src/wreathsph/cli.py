"""Command-line surface: validate data, print indicator matrices, decompose
induced characters, emit spherical tables, reconcile engines, run the
acceptance suite.  All algebra lives in the library modules; this file only
parses arguments and formats output.

Exit codes: 0 ok, 1 mathematical violation or bad data, 2 usage, 3 cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .groups import (
    Caps,
    CapExceeded,
    GroupError,
    linear_characters,
    load_group,
    load_table,
    twisted_indicator,
    validate_table,
)
from .spherical import (
    ENGINES,
    TABLE_FORMAT,
    SphericalContext,
    atomic_write,
    build_table,
    cache_key,
    cache_load,
    cache_store,
    canonical_json,
    csv_label,
    reconcile,
    table_csv,
)
from .wreath import PI_NAMES, decompose_induced

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _emit(text: str, out: str | None):
    if out:
        atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _load_pair(args):
    group = load_group(args.group)
    table = load_table(args.table, group)
    return group, table


def _context(args, group, table) -> SphericalContext:
    try:
        xi = table.row_by_name(args.xi)
    except KeyError as e:
        raise GroupError(str(e)) from None
    caps = Caps(max_elements=args.cap_elements, max_classwork=args.cap_classwork)
    return SphericalContext(group, table, xi, args.pi, args.n, caps)


def cmd_validate(args) -> int:
    group = load_group(args.group)
    table = load_table(args.table, group, validate=False)
    problems = validate_table(table)
    if problems:
        for p in problems:
            print(f"violation: {p}")
        return EXIT_MATH
    print(
        f"ok: {group.name} of order {group.order}, {len(group.classes)} classes, "
        f"table validated"
    )
    return EXIT_OK


def cmd_nu2(args) -> int:
    group, table = _load_pair(args)
    lin = linear_characters(table)
    matrix = [
        [twisted_indicator(table, xi, chi) for xi in lin]
        for chi in range(len(table.rows))
    ]
    if args.format == "json":
        obj = {
            "group": group.name,
            "rows": list(table.names),
            "cols": [table.names[xi] for xi in lin],
            "matrix": matrix,
        }
        _emit(canonical_json(obj), args.out)
    else:
        lines = ["chi," + ",".join(table.names[xi] for xi in lin)]
        for chi, row in enumerate(matrix):
            lines.append(table.names[chi] + "," + ",".join(str(v) for v in row))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    group, table = _load_pair(args)
    ctx = _context(args, group, table)
    dec = decompose_induced(table, ctx.theta, ctx.caps)
    items = sorted(dec.items(), key=lambda kv: kv[0].sort_key())
    if args.format == "json":
        obj = {
            "group": group.name,
            "xi": args.xi,
            "pi": args.pi,
            "n": args.n,
            "components": [
                {"label": lam.to_json(table.names), "multiplicity": m}
                for lam, m in items
            ],
        }
        _emit(canonical_json(obj), args.out)
    else:
        lines = ["label,multiplicity"]
        for lam, m in items:
            lines.append(f"{csv_label(lam.to_json(table.names))},{m}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _table_payload(args) -> str:
    """The table's JSON text: from the cache when it holds the entry, else
    computed (loading and validating the group and table only then) and
    stored.  The key covers both files' bytes."""
    key = None
    if args.cache_dir:
        key = cache_key(
            __version__,
            TABLE_FORMAT,
            Path(args.group).read_bytes(),
            Path(args.table).read_bytes(),
            args.xi,
            args.pi,
            args.n,
            args.engine,
        )
        hit = cache_load(args.cache_dir, key)
        if hit is not None:
            return hit
    group, table = _load_pair(args)
    tab = build_table(_context(args, group, table), args.engine)
    payload = tab.to_json()
    if key:
        cache_store(args.cache_dir, key, payload)
    return payload


def cmd_spherical(args) -> int:
    payload = _table_payload(args)
    # csv is formatted from the payload, which may be a cache hit
    text = payload if args.format == "json" else table_csv(json.loads(payload))
    _emit(text, args.out)
    return EXIT_OK


def cmd_reconcile(args) -> int:
    group, table = _load_pair(args)
    ctx = _context(args, group, table)
    report = reconcile(ctx)
    _emit(report.to_json(), args.out)
    if not report.ok():
        print(f"reconcile: {len(report.mismatches)} mismatches", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def _criterion_numbers(text: str) -> list[int]:
    # the acceptance suite is loaded by selftest alone, not by every command
    from .acceptance import ALL_CRITERIA

    numbers = [int(v) if v.strip().isdigit() else 0 for v in text.split(",")]
    if not all(1 <= v <= len(ALL_CRITERIA) for v in numbers):
        raise argparse.ArgumentTypeError(f"criteria are numbered 1 to {len(ALL_CRITERIA)}")
    return numbers


def cmd_selftest(args) -> int:
    from .acceptance import run_criteria

    results = run_criteria(args.criteria)
    for r in results:
        print(r.line())
    return EXIT_OK if all(r.ok for r in results) else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathsph",
        description="exact spherical functions of wreath-product Gelfand triples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--group", required=True, help="group JSON file")
        p.add_argument("--table", required=True, help="character table JSON file")

    def add_run(p):
        p.add_argument("--xi", required=True, help="linear character name, e.g. chi2")
        p.add_argument("--pi", required=True, choices=PI_NAMES)
        p.add_argument("--n", required=True, type=_positive_int)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--cap-elements", type=_positive_int, default=Caps.max_elements)
        p.add_argument("--cap-classwork", type=_positive_int, default=Caps.max_classwork)

    p = sub.add_parser("validate", help="check group axioms and table orthogonality")
    add_io(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("nu2", help="print the twisted indicator matrix")
    add_io(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_nu2)

    p = sub.add_parser("decompose", help="decompose the induced character")
    add_io(p)
    add_run(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("spherical", help="emit the spherical-function table")
    add_io(p)
    add_run(p)
    p.add_argument("--engine", choices=ENGINES, default=ENGINES[0])
    p.add_argument("--cache-dir", help="content-addressed table cache directory")
    p.set_defaults(func=cmd_spherical)

    p = sub.add_parser("reconcile", help="cross-check all engines, emit a report")
    add_io(p)
    add_run(p)
    p.set_defaults(func=cmd_reconcile)

    p = sub.add_parser("selftest", help="run the bundled acceptance criteria")
    p.add_argument(
        "--criteria",
        type=_criterion_numbers,
        help="comma-separated criterion numbers (default all)",
    )
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_CAP
    except (GroupError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
