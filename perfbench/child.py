"""One benchmark pass in a fresh interpreter, so that every memo cache
starts cold, as it does for each wreathsph command-line process.

Usage: python3 perfbench/child.py WORKLOAD SEED MODE
  MODE is "setup" (set up and stop), "pass" (run the job list) or
  "traced" (run the job list with every public function wrapped).

Prints one JSON object: setup_s, and for a pass wall_s, cpu_s,
peak_rss_mb and one record per job (latency, cells, whether its output
digest matched); a traced pass adds the per-layer metrics and writes its
spans under .bench_build/perfbench/.

Times are reference-normalized.  A shared host can change the
interpreter's speed by half or more for seconds to minutes at a time, so
a SIGALRM handler times a small fixed reference loop every SAMPLE_PERIOD_S
seconds, and once more between jobs.  Each job's time, less the time the
handler took, is multiplied by REF_NOMINAL_S / (mean reference time over
the samples taken during the job and at its two ends).  The ratio of the
program's time to the reference loop's time stays steady across speed
swings; raw seconds are reported beside the normalized ones.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
from fractions import Fraction  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

# Nominal duration of reference_loop: about its time on an idle 2-vCPU
# Intel Xeon virtual machine running Python 3.11.
REF_NOMINAL_S = 0.001
SAMPLE_PERIOD_S = 0.1


def reference_loop():
    """Fixed pure-Python work of the program's kind: rationals, dicts and
    tuple hashing.  It must never change, or normalized times shift."""
    table = {}
    total = Fraction(0)
    for i in range(1, 180):
        key = (i % 37, i % 11, i % 5)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, i % 7 + 1)
        total += Fraction(i % 13, i % 6 + 1)
    return total, len(table)


class SpeedSampler:
    """Samples the interpreter's speed with reference loops, from a timer
    signal while work runs and on demand between pieces of work."""

    def __init__(self):
        self.samples: list[float] = []  # reference-loop durations
        self.spent = 0.0  # seconds spent taking samples
        self._busy = False

    def sample(self, *_signal):
        if self._busy:  # the timer fired during a sample taken on demand
            return
        self._busy = True
        t = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - t)
        self.spent += time.perf_counter() - t
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, since: int) -> float:
        """REF_NOMINAL_S over the mean reference time of samples[since - 1:]."""
        window = self.samples[max(since - 1, 0):]
        return REF_NOMINAL_S * len(window) / sum(window)


def main(workload: str, seed: int, mode: str) -> dict:
    sampler = SpeedSampler()
    sampler.start()
    try:
        return measure(workload, seed, mode, sampler)
    finally:
        sampler.stop()


def measure(workload: str, seed: int, mode: str, sampler: SpeedSampler) -> dict:
    tracer = None
    if mode == "traced":
        from tracing import Tracer

        tracer = Tracer().install()
    from wreathsph.groups import bundled

    pairs = {name: bundled(name) for name in workloads.groups_used(workload)}
    setup = time.perf_counter() - T0 - sampler.spent
    for _ in range(3):
        sampler.sample()
    result = {"setup_s": setup * sampler.scale(0), "raw_setup_s": setup}
    if mode == "setup":
        return result
    expected = json.loads((HERE / "digests.json").read_text())
    OUT.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    jobs = []
    try:
        for job in workloads.job_list(workload, seed):
            jid = workloads.job_id(job)
            record = {"id": jid, "cells": 0, "ok": False}
            since, spent = len(sampler.samples), sampler.spent
            t, c = time.perf_counter(), time.process_time()
            try:
                with tracer.job_span(jid) if tracer else contextlib.nullcontext():
                    payload, cells, stdout_bytes = workloads.run_job(job, pairs, cache_dir)
            except Exception as e:  # a failed job is counted; the pass goes on
                record["error"] = f"{type(e).__name__}: {e}"
            else:
                record.update(cells=cells, stdout_bytes=stdout_bytes)
            taken = sampler.spent - spent
            raw_s = time.perf_counter() - t - taken
            raw_cpu_s = time.process_time() - c - taken
            sampler.sample()
            scale = sampler.scale(since)
            record.update(s=raw_s * scale, cpu_s=raw_cpu_s * scale, raw_s=raw_s)
            if "error" not in record:
                record["ok"] = workloads.digest(payload) == expected.get(jid)
                if not record["ok"]:
                    record["error"] = "output digest mismatch"
            jobs.append(record)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    result["wall_s"] = sum(j["s"] for j in jobs)
    result["cpu_s"] = sum(j["cpu_s"] for j in jobs)
    result["raw_wall_s"] = sum(j["raw_s"] for j in jobs)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["jobs"] = jobs
    if tracer:
        tracer.uninstall()
        stdout_bytes = sum(r.get("stdout_bytes", 0) for r in jobs)
        result["layers"] = tracer.per_layer(stdout_bytes)
        tracer.write_jsonl(OUT / f"trace-{workload}-seed{seed}.jsonl")
    return result


if __name__ == "__main__":
    workload, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    print(json.dumps(main(workload, seed, mode)))
