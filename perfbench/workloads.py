"""The benchmark's workloads: fixed job lists and the code that runs one job.

A job is a tuple whose first field is its kind.  Its id is the tuple's
fields joined by spaces; expected output digests are keyed by that id.
A workload is a list of stages; the seed shuffles the jobs inside each
stage, and stages run in order (the cli_session cache-hit rounds must
follow the round that fills the cache).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re

# Why each workload exists, and which layer it should and should not move,
# is recorded in BENCHMARK.json ("workloads") and perfbench/layer_map.json.
CLI_SPHERICAL = (
    ("gl2f3", "chi2", "triv", 2, "symfunc"),
    ("c1", "chi1", "iota", 4, "closed"),
    ("c3", "chi1", "triv", 2, "brute"),
    ("q8", "chi1", "iota", 3, "symfunc"),
    ("c6", "chi2", "triv", 3, "symfunc"),
    ("c4", "chi2", "delta", 2, "brute"),
)

WORKLOADS: dict[str, list[list[tuple]]] = {
    "oracle": [[
        ("table", "q8", "chi2", "iota", 2, "brute"),
        ("table", "c2", "chi2", "triv", 4, "brute"),
        ("table", "c4", "chi2", "delta", 2, "brute"),
        ("table", "c3", "chi2", "iota", 2, "brute"),
        ("table", "c1", "chi1", "iota", 5, "closed"),
        ("reconcile", "c3", "chi2", "triv", 2),
    ]],
    "symfunc_large": [[
        ("table", "q8", "chi1", "triv", 4, "symfunc"),
        ("table", "gl2f3", "chi2", "triv", 3, "symfunc"),
        ("table", "c2", "chi1", "iota", 10, "symfunc"),
        ("table", "c6", "chi2", "iota", 4, "symfunc"),
        ("table", "c4", "chi2", "delta-iota", 5, "symfunc"),
    ]],
    "char_tables": [[
        ("wreath_table", "q8", 3),
        ("wreath_table", "c5", 3),
        ("wreath_table", "gl2f3", 2),
        ("decompose", "q8", "chi2", "triv", 2),
    ]],
    "cli_session": [
        [("cli", "spherical", *c, "json", "miss") for c in CLI_SPHERICAL],
        [("cli", "spherical", *c, "csv", "hit") for c in CLI_SPHERICAL],
        [("cli", "spherical", *c, "json", "hit") for c in CLI_SPHERICAL],
        [
            ("cli", "validate", "gl2f3"),
            ("cli", "nu2", "gl2f3"),
            ("cli", "decompose", "q8", "chi2", "triv", 1),
            ("cli", "selftest", "1,2,3,6,7,9"),
        ],
    ],
}


def job_id(job: tuple) -> str:
    return " ".join(str(f) for f in job)


def job_list(workload: str, seed: int) -> list[tuple]:
    """The workload's jobs in the order fixed by the seed."""
    rng = random.Random(seed)
    out = []
    for stage in WORKLOADS[workload]:
        stage = list(stage)
        rng.shuffle(stage)
        out.extend(stage)
    return out


def groups_used(workload: str) -> list[str]:
    """The bundled groups a workload's jobs name, in first-use order."""
    names = []
    for stage in WORKLOADS[workload]:
        for job in stage:
            if job[0] != "cli":
                names.append(job[1])
            elif job[1] != "selftest":
                names.append(job[2])
    return list(dict.fromkeys(names))


# Criterion lines end in "(<seconds>s)"; the timing is masked before digesting.
_TIMING = re.compile(rb"\(\d+\.\d+s\)")


def _cli_argv(job: tuple, cache_dir: str) -> list[str]:
    from wreathsph.groups import bundled_group_path, bundled_table_path

    cmd = job[1]
    if cmd == "selftest":
        return ["selftest", "--criteria", job[2]]
    files = ["--group", str(bundled_group_path(job[2])),
             "--table", str(bundled_table_path(job[2]))]
    if cmd in ("validate", "nu2"):
        return [cmd, *files]
    xi, pi, n = job[3], job[4], str(job[5])
    run = ["--xi", xi, "--pi", pi, "--n", n]
    if cmd == "decompose":
        return [cmd, *files, *run, "--format", "json"]
    engine, fmt = job[6], job[7]
    return [cmd, *files, *run, "--engine", engine, "--format", fmt,
            "--cache-dir", cache_dir]


def _cli_cells(cmd: str, text: str) -> int:
    """Spherical values, indicator entries or multiplicities in CLI output."""
    if cmd in ("validate", "selftest"):
        return 0
    if text.startswith("{"):
        obj = json.loads(text)
        if cmd == "decompose":
            return len(obj["components"])
        grid = obj["matrix"] if cmd == "nu2" else obj["values"]
        return sum(len(row) for row in grid)
    lines = text.splitlines()[1:]
    return sum(len(line.split(",")) - 1 for line in lines)


def run_job(job: tuple, pairs: dict, cache_dir: str) -> tuple[bytes, int, int]:
    """Run one job; return the bytes whose digest is checked, the cell count
    and the number of bytes the command line wrote to stdout.

    pairs maps a bundled group name to its loaded (group, table).
    """
    from wreathsph import cli
    from wreathsph.spherical import SphericalContext, build_table, reconcile
    from wreathsph.wreath import PairedChar, decompose_induced, wreath_table_json

    kind = job[0]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(_cli_argv(job, cache_dir))
        text = out.getvalue()
        payload = _TIMING.sub(b"(T)", text.encode()) + b"\nexit %d\n" % code
        return payload, _cli_cells(job[1], text), len(text.encode())
    group, table = pairs[job[1]]
    if kind == "wreath_table":
        obj = wreath_table_json(table, job[2])
        return json.dumps(obj, sort_keys=True).encode(), sum(map(len, obj["values"])), 0
    xi = table.row_by_name(job[2])
    pi, n = job[3], job[4]
    if kind == "decompose":
        dec = decompose_induced(table, PairedChar(table, xi, pi, n))
        items = sorted(dec.items(), key=lambda kv: kv[0].sort_key())
        obj = [[lam.to_json(table.names), m] for lam, m in items]
        return json.dumps(obj).encode(), len(items), 0
    ctx = SphericalContext(group, table, xi, pi, n)
    if kind == "reconcile":
        report = reconcile(ctx)
        if not report.ok():
            raise AssertionError(f"{len(report.mismatches)} reconcile mismatches")
        return report.to_json().encode(), len(report.cells), 0
    tab = build_table(ctx, job[5])
    return tab.to_json().encode(), len(tab.values), 0


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()
