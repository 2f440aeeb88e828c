"""Every benchmark job gives the output digest recorded for it.

The jobs run in process, the way perfbench/record_digests.py records them:
each workload's stages in order, with one fresh cache directory per
workload, so the cli_session cache-hit rounds read what the first round
stored.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from wreathsph.groups import bundled  # noqa: E402

EXPECTED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_job_gives_its_recorded_digest(name, tmp_path):
    pairs = {group: bundled(group) for group in workloads.groups_used(name)}
    for stage in workloads.WORKLOADS[name]:
        for job in stage:
            payload, _cells, _out = workloads.run_job(job, pairs, str(tmp_path))
            jid = workloads.job_id(job)
            assert workloads.digest(payload) == EXPECTED[jid], jid
