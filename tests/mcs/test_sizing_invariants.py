"""Sizing invariants of the protocol layer.

Message sizes are measured once, when a message is built, and shared by the
siblings of one fan-out.  That is only sound while nobody writes a message's
``payload`` / ``control`` after handing it to the network, so for every
registered protocol the sizes cached on the traced messages — and every byte
counter derived from them — are compared with a *fresh* measurement taken
after the run: a protocol that mutates a message it sent or received (or a
dependency list it shares between siblings) shows up as a mismatch.
"""

from collections import defaultdict

import pytest

from repro.mcs.system import PROTOCOL_CRITERION, MCSystem
from repro.netsim import message as message_module
from repro.netsim.latency import UniformLatency
from repro.netsim.message import estimate_size
from repro.netsim.models import FaultyNetworkModel
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import random_distribution


def fresh_sizes(message):
    """``(payload_bytes, control_bytes)`` measured from the fields, now."""
    accounted = {k: v for k, v in message.control.items() if not k.startswith("_")}
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
        deps = [[0, n, "x0"] for n in range(20)]
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
