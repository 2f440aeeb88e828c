"""Tests of the benchmark's own tracing.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import wreathsph  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from wreathsph import acceptance, cyclo, spherical, wreath  # noqa: E402
from wreathsph.groups import bundled  # noqa: E402
from wreathsph.partitions import multipartitions  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer().install()
    try:
        yield t
    finally:
        t.uninstall()


def counted(tracer, name, calls):
    before = tracer.calls(name)
    for call in calls:
        call()
    return tracer.calls(name) - before


def test_a_call_through_every_binding_is_counted(tracer):
    group, table = bundled("c2")
    x = wreath.w_identity(2)
    assert counted(tracer, "wreath.class_type", [
        lambda: wreath.class_type(group, x),
        lambda: spherical.class_type(group, x),
        lambda: wreathsph.class_type(group, x),
    ]) == 3

    a, r = cyclo.zeta(3), cyclo.CycNum.rational(2)
    assert counted(tracer, "cyclo.CycNum.add", [lambda: a + a, lambda: 1 + a]) == 2
    assert counted(tracer, "cyclo.CycNum.mul", [lambda: r * a, lambda: 3 * r]) == 2

    lam = tau = multipartitions(len(table.rows), 1)[0]
    misses = tracer.extra["wreath.wreath_character.misses"]
    assert counted(tracer, "wreath.wreath_character", [
        lambda: wreath.wreath_character(table, lam, tau),
        lambda: spherical.wreath_character(table, lam, tau),
        lambda: acceptance.wreath_character(table, lam, tau),
    ]) == 3
    assert tracer.extra["wreath.wreath_character.misses"] - misses == 1

    assert counted(tracer, "acceptance.criterion_1",
                   [lambda: acceptance.run_criteria([1])]) == 1


def test_uninstall_restores_every_binding():
    originals = (wreath.class_type, spherical.class_type, acceptance.ALL_CRITERIA,
                 cyclo.CycNum.__add__, cyclo.CycNum.__radd__)
    t = Tracer().install()
    try:
        assert spherical.class_type is wreath.class_type is not originals[0]
        assert cyclo.CycNum.__radd__ is cyclo.CycNum.__add__ is not originals[3]
        assert acceptance.ALL_CRITERIA[0] is acceptance.criterion_1
    finally:
        t.uninstall()
    assert (wreath.class_type, spherical.class_type, acceptance.ALL_CRITERIA,
            cyclo.CycNum.__add__, cyclo.CycNum.__radd__) == originals


# One cheap job per kind; the cli ones in the order that fills, then reads, the cache.
TRACED_JOBS = (
    "table c3 chi2 iota 2 brute",
    "table c1 chi1 iota 5 closed",
    "table c4 chi2 delta-iota 5 symfunc",
    "reconcile c3 chi2 triv 2",
    "decompose q8 chi2 triv 2",
    "cli spherical c4 chi2 delta 2 brute json miss",
    "cli spherical c4 chi2 delta 2 brute csv hit",
    "cli nu2 gl2f3",
)


def test_traced_jobs_give_the_recorded_untraced_digests(tracer, tmp_path):
    jobs = {workloads.job_id(j): j for stages in workloads.WORKLOADS.values()
            for stage in stages for j in stage}
    expected = json.loads((HERE / "digests.json").read_text())
    pairs = {name: bundled(name) for name in ("c1", "c3", "c4", "q8")}
    for jid in TRACED_JOBS:
        with tracer.job_span(jid):
            payload, _cells, _out = workloads.run_job(jobs[jid], pairs, str(tmp_path))
        assert workloads.digest(payload) == expected[jid], jid
    job_spans = {s["job"]: s for s in tracer.spans if s["name"] == "job"}
    assert job_spans["table c3 chi2 iota 2 brute"]["calls"]["wreath.class_type"] > 0
    assert "wreath.class_type" not in job_spans["table c4 chi2 delta-iota 5 symfunc"]["calls"]


def test_benchmark_json_lists_every_metric(tracer):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer"]]
    assert listed == [*tracer.per_layer(0), "trace_overhead"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
