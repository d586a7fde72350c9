"""Differential test of the causal past kept by :class:`CausalPast`.

``causal_partial`` and ``causal_tree`` keep their causal past incrementally:
a set and a list sorted only when needed, a snapshot that carries its size,
an arrival admitted by membership with only its unknown entries tested.  The
reference below is the code that object replaced: a ``wid -> variable`` dict
re-sorted into a fresh list of lists on every write, and every dependency
walked on every arrival and every merge.  Both sides run the same generated
workloads over reliable, reordering, duplicating and lossy networks, and must
agree on every traced message, every process' delivery sequence, the history,
the read-from map, the network statistics and the end-of-run diagnostics.
"""

import pytest

from repro.mcs.base import MCSProcess
from repro.mcs.causal_partial import CausalPartialReplication
from repro.mcs.causal_past import CausalPast
from repro.mcs.causal_tree import CausalTreeReplication
from repro.mcs.system import MCSystem
from repro.netsim.latency import LatencyModel, UniformLatency
from repro.netsim.models import FaultyNetworkModel
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import random_distribution

SEEDS = range(4)


# -- the reference: the dict context, as both protocols had it -------------------------
def reference_deps(self):
    return [[wid[0], wid[1], var] for wid, var in sorted(self._context.items())]


def reference_deliverable(self, message):
    for writer, seq, var in message.control["deps"]:
        if self.holds(var) and (writer, seq) not in self._applied:
            return False
    return True


def reference_partial_write(self, variable, value, write_id):
    deps = reference_deps(self)
    self._applied.add(write_id)
    self._context[write_id] = variable
    self.control_variables_seen.add(variable)
    self.send_to_all(self.holders(variable), "update", variable=variable,
                     payload={"value": value}, control={"wid": list(write_id), "deps": deps})


def reference_partial_on_message(self, message):
    wid = tuple(message.control["wid"])
    if wid in self._applied or wid in self._pending_wids:
        return
    if self._receive(message, self._pending):
        self._pending_wids.add(wid)


def reference_partial_deliver(self, message):
    wid = tuple(message.control["wid"])
    variable = message.variable
    self._apply(variable, message.payload["value"], wid)
    self._applied.add(wid)
    self._pending_wids.discard(wid)
    for writer, seq, var in message.control["deps"]:
        self.control_variables_seen.add(var)
        if self._should_relay(var):
            self._context[(writer, seq)] = var
    if self._should_relay(variable):
        self._context[wid] = variable
    self.control_variables_seen.add(variable)


def reference_tree_write(self, variable, value, write_id):
    deps = reference_deps(self)
    self._applied.add(write_id)
    self._seen.add(write_id)
    self._context[write_id] = variable
    self.control_variables_seen.add(variable)
    self.send_to_all(self._tree_neighbours(variable), "update", variable=variable,
                     payload={"value": value}, control={"wid": list(write_id), "deps": deps})


def reference_tree_on_message(self, message):
    wid = tuple(message.control["wid"])
    if wid in self._seen:
        return
    self._seen.add(wid)
    self.control_variables_seen.add(message.variable)
    self._forward(message)
    if self.holds(message.variable):
        self._receive(message, self._pending)


def reference_tree_deliver(self, message):
    wid = tuple(message.control["wid"])
    variable = message.variable
    self._apply(variable, message.payload["value"], wid)
    self._applied.add(wid)
    for writer, seq, var in message.control["deps"]:
        self.control_variables_seen.add(var)
        if self._is_relevant(var):
            self._context[(writer, seq)] = var
    if self._is_relevant(variable):
        self._context[wid] = variable


REFERENCE = {
    CausalPartialReplication: {"_propagate_write": reference_partial_write,
                               "on_message": reference_partial_on_message,
                               "_deliver": reference_partial_deliver},
    CausalTreeReplication: {"_propagate_write": reference_tree_write,
                            "on_message": reference_tree_on_message,
                            "_deliver": reference_tree_deliver},
}
REFERENCE_SHARED = {
    "_deliverable": reference_deliverable,
    "context_size": lambda self: len(self._context),
    "relayed_variables": lambda self: set(self._context.values()),
    "foreign_control_variables": lambda self: {
        v for v in self.control_variables_seen if not self.holds(v)},
}


def with_reference_state(init):
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._applied, self._context, self.control_variables_seen = set(), {}, set()
        self._pending_wids = set()
    return __init__


# -- the runs ---------------------------------------------------------------------------
class DecreasingLatency(LatencyModel):
    """A saw-tooth: within each run of ten messages every one is faster than the
    one before, so later sends overtake earlier ones."""

    def __init__(self):
        self._sent = 0

    def sample(self, src, dst):
        self._sent += 1
        return 3.0 - (self._sent % 10) * 0.3


NETWORKS = {
    "reliable-fifo": lambda seed: {"latency": UniformLatency(0.5, 1.5, seed=seed)},
    "sawtooth": lambda seed: {"fifo": False, "latency": DecreasingLatency()},
    "duplicating": lambda seed: {"fifo": False, "network_model": FaultyNetworkModel(
        latency={"kind": "uniform", "low": 0.05, "high": 3.0},
        duplicate_rate=0.4, duplicate_lag=3.0, seed=seed)},
    "lossy": lambda seed: {"fifo": False, "network_model": FaultyNetworkModel(
        latency={"kind": "uniform", "low": 0.05, "high": 3.0}, drop_rate=0.15, seed=seed)},
}
PROTOCOLS = {
    "causal_partial/all": ("causal_partial", {"relay_scope": "all"}),
    "causal_partial/relevant": ("causal_partial", {"relay_scope": "relevant"}),
    "causal_partial/own": ("causal_partial", {"relay_scope": "own"}),
    "causal_tree": ("causal_tree", {}),
}


def op_key(op):
    return None if op is None else (op.process, op.index)


def run(variant, network, seed, patch, reference):
    """One run's observable outcome."""
    protocol, options = PROTOCOLS[variant]
    cls = CausalTreeReplication if protocol == "causal_tree" else CausalPartialReplication
    if reference:
        patch.setattr(cls, "__init__", with_reference_state(cls.__init__))
        for name, method in {**REFERENCE[cls], **REFERENCE_SHARED}.items():
            patch.setattr(cls, name, method)
    deliveries = []
    deliver = cls._deliver

    def logged_deliver(self, message):
        deliveries.append((self.pid, message.src, tuple(message.control["wid"])))
        deliver(self, message)

    patch.setattr(cls, "_deliver", logged_deliver)
    dist = random_distribution(processes=5, variables=6, replicas_per_variable=3, seed=seed)
    script = uniform_access_script(dist, operations_per_process=14, write_fraction=0.6,
                                   seed=seed)
    system = MCSystem(dist, protocol=protocol, protocol_options=options, record_trace=True,
                      **NETWORKS[network](seed))
    run_script(system, script)
    # The side that ran is visible on the wire: lists of lists, or tuples.
    assert all(isinstance(m.control["deps"], list) == reference for m in system.network.trace)
    traced = [(m.src, m.dst, m.variable, m.sent_at, m.delivered_at, m.control["wid"],
               [list(entry) for entry in m.control["deps"]], m.payload_bytes,
               m.control_bytes) for m in system.network.trace]
    history = tuple(
        (op.kind, op.process, op.variable, op.value, op.index, op.invoked_at, op.completed_at)
        for op in system.history().operations
    )
    read_from = sorted((op_key(read), op_key(source))
                       for read, source in system.read_from().items())
    per_process = {pid: [d[1:] for d in deliveries if d[0] == pid] for pid in dist.processes}
    diagnostics = {pid: (proc.context_size(), proc.relayed_variables(),
                         proc.foreign_control_variables())
                   for pid, proc in system.processes.items()}
    return {"trace": traced, "deliveries": per_process, "history": history,
            "read_from": read_from, "stats": system.stats, "diagnostics": diagnostics}


def reference_outcome(variant, network, seed, monkeypatch):
    with monkeypatch.context() as patch:
        return run(variant, network, seed, patch, reference=True)


@pytest.mark.parametrize("network", sorted(NETWORKS))
@pytest.mark.parametrize("variant", sorted(PROTOCOLS))
def test_kept_causal_past_equals_the_rebuilt_one(variant, network, monkeypatch):
    slow_admits = []
    admits = CausalPast.admits

    def spied_admits(self, deps):
        admitted = admits(self, deps)
        slow_admits.append(admitted and not self._known.issuperset(deps))
        return admitted

    for seed in SEEDS:
        expected = reference_outcome(variant, network, seed, monkeypatch)
        with monkeypatch.context() as patch:
            patch.setattr(CausalPast, "admits", spied_admits)
            got = run(variant, network, seed, patch, reference=False)
        assert expected["trace"], (variant, network, seed)
        for name in expected:
            assert got[name] == expected[name], (variant, network, seed, name)
    # The membership fast path must not be all that ran: some arrival carried
    # entries the receiver did not know and was admitted after testing them.
    assert any(slow_admits), (variant, network)


@pytest.mark.parametrize("variant", sorted(PROTOCOLS))
def test_admitting_without_testing_unknown_entries_is_caught(variant, monkeypatch):
    disagreements = 0
    for network in ("sawtooth", "lossy"):
        for seed in SEEDS:
            expected = reference_outcome(variant, network, seed, monkeypatch)
            with monkeypatch.context() as patch:
                patch.setattr(CausalPast, "admits", lambda self, deps: True)
                got = run(variant, network, seed, patch, reference=False)
            disagreements += got != expected
    assert disagreements > 0, variant
