"""Sizing invariants of the network layer: one logical message, sized once.

* the exact-type fast path of :func:`estimate_size` changes no result
  (property-tested against a copy of the ``isinstance`` ladder it fronts);
* a :class:`Message` measures itself in its constructor and its siblings
  (:meth:`Message.to`) inherit the measurement;
* :meth:`Network.multicast` is observably *k* :meth:`Network.send` calls
  (same delivery times, same RNG draws, same drops and duplicates);
* a message object cannot be sent twice.
"""

import enum
from collections import OrderedDict, defaultdict
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SimulationError
from repro.netsim import message as message_module
from repro.netsim.latency import LogNormalLatency, UniformLatency
from repro.netsim.message import Message, estimate_size
from repro.netsim.models import FaultyNetworkModel
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator


# -- (b) the fast path equals the ladder --------------------------------------

def reference_size(obj):
    """The ``isinstance`` ladder as it stood before the exact-type dispatch."""
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, Mapping):
        return sum(reference_size(k) + reference_size(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(reference_size(item) for item in obj)
    return len(repr(obj).encode("utf-8"))


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 2


class Exotic:
    """Sized by its (deterministic, non-ASCII) ``repr``."""

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return f"<Exotic é{self.tag}>"

    def __hash__(self):
        return hash(self.tag)

    def __eq__(self, other):
        return isinstance(other, Exotic) and other.tag == self.tag


hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.sampled_from(list(Colour)),
    st.builds(Exotic, st.integers(0, 99)),
)


def containers(children):
    keys = st.one_of(st.text(max_size=4), st.integers(), st.sampled_from(list(Colour)))
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(hashable_leaves, max_size=4),
        st.frozensets(hashable_leaves, max_size=4),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(keys, children, max_size=4).map(OrderedDict),
        st.dictionaries(keys, children, max_size=4).map(
            lambda d: defaultdict(list, d)),
    )


values = st.recursive(hashable_leaves, containers, max_leaves=20)


@given(values)
@settings(max_examples=300, deadline=None)
def test_fast_path_equals_the_ladder(value):
    assert estimate_size(value) == reference_size(value)


def test_fast_path_on_a_dependency_list():
    deps = [[i % 5, i, f"ü{i % 7}"] for i in range(50)]
    control = {"wid": [3, 9], "deps": deps, "flag": True, "none": None}
    assert estimate_size(control) == reference_size(control)


# -- the Message measures itself once -----------------------------------------

def count_sizing_calls(monkeypatch):
    """Count every (top-level and recursive) ``estimate_size`` call."""
    calls = []
    real = message_module.estimate_size

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(message_module, "estimate_size", counting)
    return calls


def test_sizes_are_measured_in_the_constructor_only(monkeypatch):
    calls = count_sizing_calls(monkeypatch)
    msg = Message(src=0, dst=1, kind="update", variable="x",
                  payload={"value": 42},
                  control={"seq": 3, "deps": [[0, 1, "y"]], "_wid": [0, 17]})
    measured = len(calls)
    assert measured > 0
    assert not any(obj == [0, 17] for obj in calls)  # bookkeeping is not sized
    assert msg.payload_bytes == 5 + 8
    assert msg.control_bytes == (3 + 8) + (4 + 8 + 8 + 1) + 1
    assert msg.total_bytes == msg.payload_bytes + msg.control_bytes
    assert len(calls) == measured  # reading the sizes measures nothing


def test_sibling_shares_content_and_sizes_but_not_identity(monkeypatch):
    msg = Message(src=0, dst=1, kind="update", variable="x",
                  payload={"value": "v"}, control={"deps": [[0, 1, "y"]]})
    msg.sent_at, msg.delivered_at = 1.0, 2.0
    calls = count_sizing_calls(monkeypatch)
    sibling = msg.to(2)
    assert calls == []
    assert (sibling.src, sibling.dst, sibling.kind, sibling.variable) == (0, 2, "update", "x")
    assert sibling.uid != msg.uid
    assert sibling.payload is msg.payload and sibling.control is msg.control
    assert sibling.payload_bytes == msg.payload_bytes
    assert sibling.control_bytes == msg.control_bytes
    assert sibling.total_bytes == msg.total_bytes
    assert sibling.sent_at is None and sibling.delivered_at is None
    assert msg.dst == 1  # the original is untouched


# -- (d) multicast is k sends ---------------------------------------------------

class Sink:
    def __init__(self):
        self.received = []

    def on_message(self, message):
        self.received.append(message)


def build_network(nodes, **kwargs):
    sim = Simulator()
    net = Network(sim, record_trace=True, **kwargs)
    for i in range(nodes):
        net.register(i, Sink())
    return sim, net


def fan_outs():
    """(src, destinations) of a few overlapping fan-outs, sent back to back."""
    return [(0, [1, 2, 3, 4]), (2, [0, 1, 2, 4]), (0, [4, 1]), (3, [3]), (1, [0])]


def deliveries(net):
    return [(m.src, m.dst, m.control["n"], m.delivered_at) for m in net.trace]


def via_multicast(net):
    for n, (src, dsts) in enumerate(fan_outs()):
        others = [d for d in dsts if d != src]
        count = net.multicast(
            Message(src=src, dst=min(others, default=src), kind="update",
                    variable="x", control={"n": n}),
            dsts,
        )
        assert count == len(others)


def via_sends(net):
    for n, (src, dsts) in enumerate(fan_outs()):
        for dst in sorted(dsts):
            if dst != src:
                net.send(Message(src=src, dst=dst, kind="update", variable="x",
                                 control={"n": n}))


@pytest.mark.parametrize("fifo", [True, False])
@pytest.mark.parametrize("latency", [UniformLatency, LogNormalLatency])
def test_multicast_matches_per_message_sends(latency, fifo):
    runs = []
    for drive in (via_multicast, via_sends):
        sim, net = build_network(5, latency=latency(seed=11), fifo=fifo)
        drive(net)
        sim.run()
        runs.append((deliveries(net), net.stats))
    (multi, multi_stats), (single, single_stats) = runs
    assert multi == single
    assert len(multi) == 10
    assert multi_stats == single_stats


@pytest.mark.parametrize("fifo", [True, False])
def test_multicast_under_a_faulty_model_plans_per_message(fifo):
    runs = []
    for drive in (via_multicast, via_sends):
        model = FaultyNetworkModel(latency={"kind": "uniform"}, drop_rate=0.3,
                                   duplicate_rate=0.4, seed=5)
        sim, net = build_network(5, model=model, fifo=fifo)
        drive(net)
        sim.run()
        runs.append((deliveries(net), net.stats))
    (multi, multi_stats), (single, single_stats) = runs
    assert multi == single
    assert multi_stats == single_stats
    assert multi_stats.messages_dropped > 0 and multi_stats.messages_duplicated > 0


def test_multicast_sends_the_message_itself_to_its_own_destination():
    sim, net = build_network(4)
    msg = Message(src=0, dst=2, kind="update", control={"n": 0})
    assert net.multicast(msg, [0, 1, 2, 3, 3]) == 3
    sim.run()
    assert [m.dst for m in net.trace] == [1, 2, 3]
    assert net.trace[1] is msg
    assert len({m.uid for m in net.trace}) == 3
    assert all(m.control is msg.control for m in net.trace)
    assert net.multicast(Message(src=0, dst=1, kind="update"), [0]) == 0


# -- a message goes out once ------------------------------------------------------

def test_a_sent_message_cannot_be_sent_again():
    sim, net = build_network(3)
    msg = Message(src=0, dst=1, kind="update", control={"seq": 0})
    net.send(msg)
    with pytest.raises(SimulationError, match="already sent"):
        net.send(msg)
    with pytest.raises(SimulationError, match="already sent"):
        net.multicast(msg, [1])
    sim.run()
    with pytest.raises(SimulationError, match="already sent"):
        net.send(msg)
    assert net.stats.messages_sent == 1
    net.send(msg.to(2))  # a sibling is a new message
    net.multicast(msg, [2])  # ...which is also what multicast sends elsewhere
    assert net.stats.messages_sent == 3
