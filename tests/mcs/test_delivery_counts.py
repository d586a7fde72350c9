"""Count-based guard of the causal delivery path (seed-deterministic, no timing).

On the shape of the ``full_broadcast`` benchmark — ``causal_full`` over 16
fully replicated processes, reliable FIFO channels, constant latency —
nothing is ever buffered, so each delivered message costs exactly one
deliverability test (``VectorClock.admits``, which ``accept`` makes for an
arrival at an empty buffer and ``_deliverable`` otherwise) and no pass over
the buffer.  Every copy of a fan-out is due at the same instant, so each
write pushes exactly one queue record.  The heap orders ``(time, priority,
sequence, ...)`` records, so it never compares two :class:`Event` objects.
"""

import pytest

from repro.mcs.base import MCSProcess
from repro.mcs.system import MCSystem
from repro.mcs.vector_clock import VectorClock
from repro.netsim.events import Event, EventQueue
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import full_replication

COMPARISONS = ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__")


@pytest.fixture
def counts(monkeypatch):
    counts = {"tests": 0, "drains": 0, "event_comparisons": 0, "records": 0}
    admits, drain = VectorClock.admits, MCSProcess._drain_pending
    push, push_call = EventQueue.push, EventQueue.push_call

    def counted_admits(self, sender, stamp):
        counts["tests"] += 1
        return admits(self, sender, stamp)

    def counted_drain(self, pending):
        counts["drains"] += 1
        return drain(self, pending)

    def counted_comparison(self, other):
        counts["event_comparisons"] += 1
        return NotImplemented

    def counted_push(self, *args, **kwargs):
        counts["records"] += 1
        return push(self, *args, **kwargs)

    def counted_push_call(self, *args):
        counts["records"] += 1
        return push_call(self, *args)

    monkeypatch.setattr(VectorClock, "admits", counted_admits)
    monkeypatch.setattr(MCSProcess, "_drain_pending", counted_drain)
    monkeypatch.setattr(EventQueue, "push", counted_push)
    monkeypatch.setattr(EventQueue, "push_call", counted_push_call)
    for name in COMPARISONS:
        monkeypatch.setattr(Event, name, counted_comparison, raising=False)
    return counts


def test_the_comparison_probe_sees_a_comparison(counts):
    first, second = Event(1.0, 0, 0, print), Event(1.0, 0, 1, print)
    assert first != second
    assert counts["event_comparisons"] > 0


def test_full_broadcast_shape_tests_each_message_once_and_never_compares_events(counts):
    dist = full_replication(16, 8)
    script = uniform_access_script(dist, operations_per_process=12, write_fraction=0.4, seed=1)
    system = MCSystem(dist, protocol="causal_full")
    run_script(system, script)
    writes = sum(access.kind == "write" for access in script)
    delivered = system.stats.messages_delivered
    assert delivered == 15 * writes > 0
    assert system.simulator.processed_events == delivered
    assert counts == {"tests": delivered, "drains": 0, "event_comparisons": 0,
                      "records": writes}
