"""The wreathsph benchmark.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs the workload's job list, in the order the seed fixes, in
a fresh child interpreter (perfbench/child.py), one child at a time, so
that memo caches start cold.  Every job's output is checked against the
digest recorded in perfbench/digests.json.

--trace 0 first starts SETUP_SAMPLES children that only set up, then runs
passes while the next one is expected to end within S seconds (at least
one), and prints the end-to-end metrics: medians over the passes, job
latency quantiles pooled over them, and the median set-up time.
--trace 1 runs one untraced pass and one traced pass, whatever S is, so
that the per-layer counts repeat exactly for a seed, and prints the
per-layer metrics with trace_overhead = traced wall / untraced wall.

End-to-end times are reference-normalized seconds (see child.py): a
shared 2-vCPU virtual machine was seen to change its speed by up to 1.6x
for tens of seconds at a time, so raw seconds do not repeat.  The raw
median wall time is printed too.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_SAMPLES = 9
# Every run must end within 180 s; children share what is left of this.
DEADLINE_S = 170.0


def git_sha() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def child(self, mode: str) -> dict | None:
        """Run one child to completion; None if it failed or ran out of time."""
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 1:
            return None
        cmd = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed), mode]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            print(f"child {mode} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"child {mode} exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])


def tally(passes: list[dict | None], n_jobs: int) -> tuple[int, int]:
    """Jobs attempted and failed; a pass that crashed fails all its jobs."""
    attempted = failed = 0
    for p in passes:
        attempted += n_jobs
        if p is None:
            failed += n_jobs
            continue
        for job in p["jobs"]:
            if not job["ok"]:
                failed += 1
                print(f"FAILED {job['id']}: {job.get('error')}", file=sys.stderr)
    return attempted, failed


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: it picks the same job whether a run
    made one pass or several."""
    ranked = sorted(values)
    return ranked[max(math.ceil(q * len(ranked)) - 1, 0)]


def end_to_end(runner: Runner, seconds: float, n_jobs: int):
    setups = [r["setup_s"] for r in (runner.child("setup") for _ in range(SETUP_SAMPLES)) if r]
    passes = []
    begin = time.monotonic()
    while True:
        t = time.monotonic()
        result = runner.child("pass")
        passes.append(result)
        if result is None or time.monotonic() - begin + (time.monotonic() - t) > seconds:
            break
    attempted, failed = tally(passes, n_jobs)
    done = [p for p in passes if p]
    if not done:
        return attempted, failed, None
    setups += [p["setup_s"] for p in done]
    latencies = [j["s"] for p in done for j in p["jobs"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in done), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in done), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_p90_s": (nearest_rank(latencies, 0.9), "s"),
        "cells_per_s": (statistics.median(
            sum(j["cells"] for j in p["jobs"]) / p["wall_s"] for p in done), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in done), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    print(f"# {len(done)} passes of {n_jobs} jobs, {len(setups)} set-ups, "
          f"{len(latencies)} job latencies; failed_frac = {failed / attempted:.4f}; "
          f"raw (unnormalized) median wall "
          f"{statistics.median(p['raw_wall_s'] for p in done):.4f} s")
    return attempted, failed, metrics


def per_layer(runner: Runner, n_jobs: int):
    plain = runner.child("pass")
    traced = runner.child("traced") if plain else None
    attempted, failed = tally([plain, traced], n_jobs)
    if not traced:
        return attempted, failed, None
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace_overhead"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wreathsph" / "__init__.py").is_file():
        print(f"error: no wreathsph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    n_jobs = len(workloads.job_list(args.workload, args.seed))
    measure = per_layer(runner, n_jobs) if args.trace else end_to_end(
        runner, args.seconds, n_jobs)
    attempted, failed, metrics = measure
    if metrics is None:
        print("error: no pass completed", file=sys.stderr)
        return 1
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "git_sha": git_sha(), "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0))}
    print("# " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>18.10g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
