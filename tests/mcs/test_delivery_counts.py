"""Count-based guard of the causal delivery path (seed-deterministic, no timing).

On the shape of the ``full_broadcast`` benchmark — ``causal_full`` over 16
fully replicated processes, reliable FIFO channels, constant latency —
nothing is ever buffered, so each delivered message costs exactly one
deliverability test (``VectorClock.admits``, which ``accept`` makes for an
arrival at an empty buffer and ``_deliverable`` otherwise) and no pass over
the buffer.  Every copy of a fan-out is due at the same instant, so each
write pushes exactly one queue record (one ``Simulator.call_at``).
"""

import pytest

from repro.mcs.base import MCSProcess
from repro.mcs.system import MCSystem
from repro.mcs.vector_clock import VectorClock
from repro.netsim.simulator import Simulator
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import full_replication


@pytest.fixture
def counts(monkeypatch):
    counts = {"tests": 0, "drains": 0, "records": 0}
    admits, drain = VectorClock.admits, MCSProcess._drain_pending
    call_at = Simulator.call_at

    def counted_admits(self, sender, stamp):
        counts["tests"] += 1
        return admits(self, sender, stamp)

    def counted_drain(self, pending):
        counts["drains"] += 1
        return drain(self, pending)

    def counted_call_at(self, *args):
        counts["records"] += 1
        return call_at(self, *args)

    monkeypatch.setattr(VectorClock, "admits", counted_admits)
    monkeypatch.setattr(MCSProcess, "_drain_pending", counted_drain)
    monkeypatch.setattr(Simulator, "call_at", counted_call_at)
    return counts


def test_full_broadcast_shape_tests_each_message_once_and_queues_one_record_per_write(counts):
    dist = full_replication(16, 8)
    script = uniform_access_script(dist, operations_per_process=12, write_fraction=0.4, seed=1)
    system = MCSystem(dist, protocol="causal_full")
    run_script(system, script)
    writes = sum(access.kind == "write" for access in script)
    delivered = system.stats.messages_delivered
    assert delivered == 15 * writes > 0
    assert system.simulator.processed_events == delivered
    assert counts == {"tests": delivered, "drains": 0, "records": writes}
