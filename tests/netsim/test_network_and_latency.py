"""Unit tests for the network (channels, FIFO, broadcast) and latency models."""

import pytest

from repro.exceptions import SimulationError
from repro.netsim.latency import (
    ConstantLatency,
    LogNormalLatency,
    PairwiseLatency,
    UniformLatency,
)
from repro.netsim.message import Message
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator


class Sink:
    """Test endpoint recording delivered messages."""

    def __init__(self):
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def build_network(fifo=True, latency=None, nodes=2, record_trace=False):
    sim = Simulator()
    net = Network(sim, latency=latency, fifo=fifo, record_trace=record_trace)
    sinks = {i: Sink() for i in range(nodes)}
    for i, sink in sinks.items():
        net.register(i, sink)
    return sim, net, sinks


class TestLatencyModels:
    def test_constant(self):
        assert ConstantLatency(2.0).sample(0, 1) == 2.0
        with pytest.raises(ValueError):
            ConstantLatency(0.0)

    def test_uniform_is_seeded_and_bounded(self):
        a = UniformLatency(0.5, 1.5, seed=7)
        b = UniformLatency(0.5, 1.5, seed=7)
        samples_a = [a.sample(0, 1) for _ in range(10)]
        samples_b = [b.sample(0, 1) for _ in range(10)]
        assert samples_a == samples_b
        assert all(0.5 <= s <= 1.5 for s in samples_a)
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)

    def test_lognormal_positive(self):
        model = LogNormalLatency(median=1.0, sigma=0.3, seed=3)
        assert all(model.sample(0, 1) > 0 for _ in range(20))
        with pytest.raises(ValueError):
            LogNormalLatency(median=-1)

    def test_pairwise(self):
        model = PairwiseLatency({(0, 1): 5.0}, default=1.0)
        assert model.sample(0, 1) == 5.0
        assert model.sample(1, 0) == 5.0  # symmetric fallback
        assert model.sample(2, 3) == 1.0


class TestNetwork:
    def test_point_to_point_delivery(self):
        sim, net, sinks = build_network()
        net.send(Message(src=0, dst=1, kind="ping"))
        sim.run()
        assert len(sinks[1].received) == 1
        assert sinks[1].received[0].delivered_at == pytest.approx(1.0)
        assert net.stats.messages_delivered == 1

    def test_unknown_destination_rejected(self):
        _, net, _ = build_network()
        with pytest.raises(SimulationError):
            net.send(Message(src=0, dst=9, kind="ping"))

    def test_self_send_rejected(self):
        _, net, _ = build_network()
        with pytest.raises(SimulationError):
            net.send(Message(src=0, dst=0, kind="ping"))

    def test_double_registration_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.register(0, Sink())
        with pytest.raises(SimulationError):
            net.register(0, Sink())

    def test_fifo_channels_preserve_send_order(self):
        latency = PairwiseLatency({}, default=1.0, jitter=5.0, seed=11)
        sim, net, sinks = build_network(fifo=True, latency=latency)
        for i in range(10):
            net.send(Message(src=0, dst=1, kind="seq", control={"i": i}))
        sim.run()
        received = [m.control["i"] for m in sinks[1].received]
        assert received == list(range(10))

    def test_non_fifo_channels_may_reorder(self):
        # A deterministic decreasing-latency pattern forces reordering.
        class Decreasing:
            def __init__(self):
                self.next = 10.0

            def sample(self, src, dst):
                self.next -= 1.0
                return self.next

        sim, net, sinks = build_network(fifo=False, latency=Decreasing())
        for i in range(5):
            net.send(Message(src=0, dst=1, kind="seq", control={"i": i}))
        sim.run()
        received = [m.control["i"] for m in sinks[1].received]
        assert received == list(reversed(range(5)))

    def test_broadcast_and_multicast(self):
        sim, net, sinks = build_network(nodes=4)
        count = net.multicast(Message(src=0, dst=1, kind="hello"), range(4))
        assert count == 3
        count = net.multicast(Message(src=1, dst=0, kind="hi"), [0, 1, 2])
        assert count == 2  # self excluded
        sim.run()
        assert [m.kind for m in sinks[2].received] == ["hello", "hi"]
        assert [len(sinks[i].received) for i in range(4)] == [1, 1, 2, 1]

    def test_trace_recording(self):
        sim, net, sinks = build_network(record_trace=True)
        net.send(Message(src=0, dst=1, kind="ping"))
        sim.run()
        assert len(net.trace) == 1
        assert net.trace[0].kind == "ping"
