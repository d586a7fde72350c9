"""Checkpoint → restore → continue equals the uninterrupted run.

The stream: a seeded ``pram_partial`` run of 200 operations over a random
4-process, 6-variable distribution, exported as a trace, with one read
(record 103) turned into a read of ⊥ that the stream monitors and the
window's bad patterns both prove wrong.  A tenant checks it with a window of
24 operations every 4: it evicts on proof and by force and splices in a
stand-in, so every part of the checkpointed state is exercised.  Each
criterion runs one decision path: causal the columnar one, slow the object
checker on the materialised window.

At every cut point the checkpoint of the uninterrupted tenant is sent
through JSON, restored and fed the rest of the stream; the verdict, the
violations in order, the ``WindowMetrics`` and the final checkpoint must
equal the uninterrupted run's.  ``data/windowed-checkpoint-v1.json`` holds
payloads written at record 100 by the checker as it was before its window
became arena rows (commit ae71bdb), with that checker's verdict, metrics
and final checkpoint: they restore and continue to the same.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import Session
from repro.core.consistency.incremental import WindowedChecker
from repro.core.operations import BOTTOM
from repro.serve.monitor import TenantMonitor
from repro.serve.spec import TenantSpec
from repro.serve.trace import read_trace
from repro.workloads.access_patterns import uniform_access_script
from repro.workloads.distributions import random_distribution

FIXTURE = Path(__file__).parent / "data" / "windowed-checkpoint-v1.json"
CRITERIA = ("causal", "slow")
#: The record turned into a read of ⊥.
BOTTOM_READ = 103


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    dist = random_distribution(4, 6, 2, seed=3)
    script = uniform_access_script(dist, 50, 0.4, seed=3)
    path = str(tmp_path_factory.mktemp("trace") / "t.jsonl")
    Session("pram_partial", dist, script, seed=3, check=False, keep_history=False,
            trace_out=path).run()
    meta, records = read_trace(path)
    records[BOTTOM_READ] = dataclasses.replace(records[BOTTOM_READ], value=BOTTOM, source=None)
    return meta, records


def tenant(meta, criterion, payload=None):
    monitor = TenantMonitor(TenantSpec(name="t", criterion=criterion, policy="every:4",
                                       window=24), meta=meta)
    if payload is not None:
        monitor._checker = WindowedChecker.restore(payload, distribution=monitor.distribution)
    return monitor


def outcome(monitor):
    result = monitor.finalize()
    return {"verdict": {"consistent": result.consistent, "exact": result.exact,
                        "violations": list(result.violations)},
            "metrics": monitor.metrics.as_dict(),
            "final_checkpoint": json.loads(json.dumps(monitor.checkpoint()))}


@pytest.mark.parametrize("criterion", CRITERIA)
def test_every_cut_point_resumes_to_the_uninterrupted_run(stream, criterion):
    meta, records = stream
    straight = tenant(meta, criterion)
    payloads = [json.loads(json.dumps(straight.checkpoint()))]
    for record in records:
        straight.ingest(record)
        payloads.append(json.loads(json.dumps(straight.checkpoint())))
    expected = outcome(straight)
    # not vacuous: a monitor hit and window findings, both kinds of eviction
    # and a stand-in
    assert len(records) == 200 and len(expected["verdict"]["violations"]) == 3
    metrics = expected["metrics"]
    assert metrics["evicted_proved"] and metrics["evicted_forced"] and metrics["standins"]
    for cut, payload in enumerate(payloads):
        resumed = tenant(meta, criterion, payload)
        assert resumed.checkpoint() == payload, cut
        for record in records[cut:]:
            resumed.ingest(record)
        assert outcome(resumed) == expected, cut


def test_a_payload_of_the_object_window_resumes_to_its_verdict(stream):
    meta, records = stream
    cases = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert sorted(case["criterion"] for case in cases) == sorted(CRITERIA)
    for case in cases:
        resumed = tenant(meta, case["criterion"], case["checkpoint"])
        assert resumed.checkpoint() == case["checkpoint"]
        for record in records[case["cut"]:]:
            resumed.ingest(record)
        assert outcome(resumed) == {key: case[key] for key in
                                    ("verdict", "metrics", "final_checkpoint")}
