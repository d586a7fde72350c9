"""Sizing invariants of the protocol layer.

Message sizes are measured once, when a message is built, and shared by the
siblings of one fan-out.  That is only sound while nobody writes a message's
``payload`` / ``control`` after handing it to the network, so for every
registered protocol the sizes cached on the traced messages — and every byte
counter derived from them — are compared with a *fresh* measurement taken
after the run: a protocol that mutates a message it sent or received (or a
dependency list it shares between siblings) shows up as a mismatch.  The
causal protocols' dependency tuples carry their size as a running sum, and a
vector-clock stamp carries its own, so those numbers are checked against what
they describe, and the sizing work per message is pinned not to grow with the
causal past.
"""

from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mcs.causal_past import CausalPast
from repro.mcs.vector_clock import VectorClock
from repro.mcs.system import PROTOCOL_CRITERION, MCSystem
from repro.netsim import message as message_module
from repro.netsim.latency import UniformLatency
from repro.netsim.message import Message, SizedDict, SizedTuple, estimate_size
from repro.netsim.models import FaultyNetworkModel
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import random_distribution


def fresh_sizes(message):
    """``(payload_bytes, control_bytes)`` measured from the fields, now.

    A :class:`SizedTuple` or :class:`SizedDict` is measured as a plain copy,
    so the size it carries is checked here, not trusted."""
    accounted = {k: tuple(v) if type(v) is SizedTuple else dict(v) if type(v) is SizedDict else v
                 for k, v in message.control.items() if not k.startswith("_")}
    control = estimate_size(accounted)
    if message.variable is not None:
        control += estimate_size(message.variable)
    return estimate_size(message.payload), control


def run_traced(protocol, network):
    distribution = random_distribution(processes=5, variables=6,
                                       replicas_per_variable=3, seed=1)
    script = uniform_access_script(distribution, operations_per_process=10,
                                   write_fraction=0.6, seed=1)
    if network == "reliable":
        system = MCSystem(distribution, protocol=protocol, record_trace=True,
                          latency=UniformLatency(0.5, 1.5, seed=1))
    else:  # duplicating and reordering, but lossless: every sent message is traced
        system = MCSystem(distribution, protocol=protocol, record_trace=True, fifo=False,
                          network_model=FaultyNetworkModel(
                              latency={"kind": "uniform", "low": 0.2, "high": 3.0},
                              duplicate_rate=0.3, seed=1))
    run_script(system, script)
    return system


@pytest.mark.parametrize("network", ["reliable", "faulty"])
@pytest.mark.parametrize("protocol", sorted(PROTOCOL_CRITERION))
def test_cached_sizes_equal_a_fresh_measurement_after_the_run(protocol, network):
    system = run_traced(protocol, network)
    stats, trace = system.stats, system.network.trace
    assert stats.messages_sent > 0 and stats.messages_dropped == 0
    assert len(trace) == stats.messages_delivered
    if network == "faulty":
        assert stats.messages_duplicated > 0

    received = defaultdict(int)
    for message in trace:  # one entry per delivered copy
        payload, control = fresh_sizes(message)
        assert (message.payload_bytes, message.control_bytes) == (payload, control), message
        assert message.total_bytes == payload + control
        if message.variable is not None:
            received[(message.dst, message.variable)] += control
    assert dict(stats.received_variable_control_bytes) == dict(received)

    sent = {message.uid: message for message in trace}  # one entry per sent message
    assert len(sent) == stats.messages_sent
    by_kind = defaultdict(int)
    for message in sent.values():
        by_kind[message.kind] += fresh_sizes(message)[1]
    assert stats.payload_bytes == sum(fresh_sizes(m)[0] for m in sent.values())
    assert stats.control_bytes == sum(by_kind.values())
    assert dict(stats.control_bytes_by_kind) == dict(by_kind)


def test_send_to_all_sizes_the_fan_out_once(monkeypatch):
    calls = []
    real = message_module.estimate_size

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(message_module, "estimate_size", counting)
    counts = {}
    for replicas in (2, 5):
        distribution = random_distribution(processes=5, variables=1,
                                           replicas_per_variable=replicas, seed=0)
        system = MCSystem(distribution, protocol="causal_partial", record_trace=True)
        writer = min(distribution.holders("x0"))
        deps = tuple((0, n, "x0") for n in range(20))
        del calls[:]
        sent = system.process(writer).send_to_all(
            distribution.holders("x0"), "update", variable="x0",
            payload={"value": 1}, control={"wid": [writer, 99], "deps": deps})
        counts[replicas] = len(calls)
        assert sent == replicas - 1
        assert sum(1 for obj in calls if obj is deps) == 1

        system.simulator.run()  # deliveries only read what the fan-out shared
        siblings = system.network.trace
        assert sorted(m.dst for m in siblings) == sorted(distribution.holders("x0") - {writer})
        assert len({m.uid for m in siblings}) == sent
        assert all(m.control["deps"] is deps for m in siblings)
        assert len({(m.payload_bytes, m.control_bytes, m.total_bytes) for m in siblings}) == 1
        assert siblings[0].control_bytes == 3 + 16 + 4 + 20 * 18 + 2
        assert system.stats.control_bytes == sent * siblings[0].control_bytes
    assert counts[2] == counts[5] > 0  # sizing work does not grow with the fan-out


VARIABLES = ("x0", "y", "ü3", "変数")
ENTRIES = st.tuples(st.integers(0, 4), st.integers(1, 30), st.sampled_from(VARIABLES))


@given(st.lists(st.tuples(st.sampled_from(VARIABLES), st.lists(ENTRIES, max_size=8)),
                max_size=30))
def test_a_dependency_snapshot_carries_its_own_size(steps):
    # Own writes (writer 9) interleave with delivered updates (writer 8) that
    # bring random, unsorted, partly known pasts; "y" is never relayed.
    past = CausalPast(frozenset({"x0", "ü3"}), relays=lambda variable: variable != "y")
    for seq, (variable, deps) in enumerate(steps, start=1):
        if not deps:
            snapshot = past.write((9, seq), "ü3")
            assert snapshot.size == estimate_size(tuple(snapshot))
            assert list(snapshot) == sorted(set(snapshot))
        else:
            past.merge(deps, (8, seq), variable)
    snapshot = past.write((9, 0), "x0")
    assert estimate_size(snapshot) == estimate_size(tuple(snapshot))
    assert len(snapshot) == len(past.entries) - 1


@given(st.dictionaries(st.integers(0, 40), st.integers(0, 2**40), max_size=20),
       st.lists(st.integers(0, 45), max_size=10))
def test_a_vector_clock_stamp_carries_its_own_size(values, increments):
    clock = VectorClock(range(4), values)
    for process in increments:  # a process the clock did not know adds an entry
        clock.increment(process)
    stamp = clock.as_dict()
    assert type(stamp) is SizedDict and stamp == clock._clock
    assert estimate_size(stamp) == estimate_size(dict(stamp)) == clock.size_bytes()
    assert stamp.size == 16 * len(clock)


def test_causal_full_ships_sized_stamps():
    distribution = random_distribution(processes=5, variables=4, replicas_per_variable=5, seed=2)
    script = uniform_access_script(distribution, operations_per_process=6, write_fraction=0.7,
                                   seed=2)
    system = MCSystem(distribution, protocol="causal_full", record_trace=True)
    run_script(system, script)
    stamps = [message.control["vc"] for message in system.network.trace]
    assert stamps and all(type(stamp) is SizedDict and stamp.size == 16 * 5
                          for stamp in stamps)


def sizing_calls_per_message(monkeypatch, operations_per_process):
    """``estimate_size`` calls (recursive ones included) per message built, and
    the largest causal past, on the ``partial_causal`` benchmark shape."""
    counts = {"calls": 0, "built": 0}
    real, post_init = message_module.estimate_size, Message.__post_init__

    def counting(obj):
        counts["calls"] += 1
        return real(obj)

    def counted_post_init(self):
        counts["built"] += 1
        post_init(self)

    distribution = random_distribution(6, 12, 3, seed=3)
    script = uniform_access_script(distribution, operations_per_process=operations_per_process,
                                   write_fraction=0.1, seed=3)
    system = MCSystem(distribution, protocol="causal_partial")
    with monkeypatch.context() as patch:
        patch.setattr(message_module, "estimate_size", counting)
        patch.setattr(Message, "__post_init__", counted_post_init)
        run_script(system, script)
    context = max(process.context_size() for process in system.processes.values())
    return counts["calls"] / counts["built"], context


def test_sizing_work_per_message_does_not_grow_with_the_causal_past(monkeypatch):
    short, short_context = sizing_calls_per_message(monkeypatch, 40)
    long, long_context = sizing_calls_per_message(monkeypatch, 160)
    assert long_context > 3 * short_context
    # payload, variable, and the key and value of "wid" and of "deps"
    assert short == long == 6
