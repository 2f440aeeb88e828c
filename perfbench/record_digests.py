"""Record the expected output digest of every benchmark job.

Usage: python3 perfbench/record_digests.py

Runs every job of every workload once and writes perfbench/digests.json.
Before writing it checks that the output is trustworthy: for every brute
table of the oracle workload the symfunc engine must agree cell by cell,
and a cached command-line table must reproduce the table that filled the
cache.  Re-record only when the program's output is meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from wreathsph.groups import bundled  # noqa: E402
from wreathsph.spherical import SphericalContext, build_table  # noqa: E402


def check_brute_against_symfunc(pairs: dict) -> None:
    for stage in workloads.WORKLOADS["oracle"]:
        for job in stage:
            if job[0] != "table" or job[5] != "brute":
                continue
            group, table = pairs[job[1]]
            ctx = SphericalContext(group, table, table.row_by_name(job[2]), job[3], job[4])
            brute, sym = build_table(ctx, "brute"), build_table(ctx, "symfunc")
            bad = [cell for cell, v in brute.values.items() if sym.values[cell] != v]
            if bad:
                raise SystemExit(f"{workloads.job_id(job)}: engines differ at {bad}")
            print(f"brute == symfunc on {len(brute.values)} cells: {workloads.job_id(job)}")


def main() -> int:
    digests = {}
    pairs = {}
    for name, stages in workloads.WORKLOADS.items():
        for group in workloads.groups_used(name):
            pairs.setdefault(group, bundled(group))
        with tempfile.TemporaryDirectory() as cache_dir:
            for stage in stages:
                for job in stage:
                    payload, _cells, _out = workloads.run_job(job, pairs, cache_dir)
                    digests[workloads.job_id(job)] = workloads.digest(payload)
    check_brute_against_symfunc(pairs)
    for jid, d in digests.items():
        if jid.endswith(" json hit") and digests[jid[: -len("hit")] + "miss"] != d:
            raise SystemExit(f"{jid}: cached output differs from the computed one")
    (HERE / "digests.json").write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
