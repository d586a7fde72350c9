"""Differential test of the causal protocols' delivery path.

``MCSProcess._receive`` tests an arrival once and runs the pass loop only when
something is buffered; ``causal_full`` decides an arrival at an empty buffer
with that one test itself (``VectorClock.accept``, which also steps the
clock), without ``_receive``; ``VectorClock.admits`` decides a clock in one
C-level pass.  The reference below is the loop they
replace: every arrival goes to the buffer, then passes over the whole buffer
run until one delivers nothing, with the vector-clock test written entry by
entry.  Both sides run the same generated workloads over networks that
reorder, duplicate and lose messages, and must agree on every process'
delivery sequence, the recorded history, the read-from map and the network
statistics.
"""

import pytest

from repro.mcs.base import MCSProcess
from repro.mcs.causal_full import CausalFullReplication
from repro.mcs.causal_partial import CausalPartialReplication
from repro.mcs.causal_tree import CausalTreeReplication
from repro.mcs.system import MCSystem
from repro.netsim.latency import LatencyModel, UniformLatency
from repro.netsim.models import FaultyNetworkModel
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import random_distribution

PROTOCOLS = {
    "causal_full": CausalFullReplication,
    "causal_partial": CausalPartialReplication,
    "causal_tree": CausalTreeReplication,
}
SEEDS = range(6)


def reference_receive(self, message, pending):
    """Append the arrival, then pass over the buffer until nothing moves."""
    pending.append(message)
    progress = True
    while progress:
        progress = False
        for buffered in list(pending):
            if self._deliverable(buffered):
                pending.remove(buffered)
                self._deliver(buffered)
                progress = True
    return any(buffered is message for buffered in pending)


def reference_full_on_message(self, message):
    """``causal_full``'s arrival as it was: the duplicate check, then ``_receive``."""
    control = message.control
    sender = control["sender"]
    seq = control["vc"][sender]
    if seq <= self._vc[sender] or (sender, seq) in self._buffered:
        return
    if self._receive(message, self._pending):
        self._buffered.add((sender, seq))


def reference_clock_test(self, message):
    sender = message.control["sender"]
    vc = message.control["vc"]
    if vc[sender] != self._vc[sender] + 1:
        return False
    return all(count <= self._vc[pid] for pid, count in vc.items() if pid != sender)


class DecreasingLatency(LatencyModel):
    """A saw-tooth: within each run of ``period`` messages every one is faster
    than the one before, so later sends overtake earlier ones."""

    def __init__(self, start=3.0, step=0.3, period=10):
        self._start, self._step, self._period = start, step, period
        self._sent = 0

    def sample(self, src, dst):
        self._sent += 1
        return self._start - (self._sent % self._period) * self._step


NETWORKS = {
    "reorder-decreasing": lambda seed: {"latency": DecreasingLatency()},
    "reorder-random": lambda seed: {"latency": UniformLatency(0.05, 4.0, seed=seed)},
    "duplicating": lambda seed: {"network_model": FaultyNetworkModel(
        latency={"kind": "uniform", "low": 0.05, "high": 3.0},
        duplicate_rate=0.4, duplicate_lag=3.0, seed=seed)},
    "lossy": lambda seed: {"network_model": FaultyNetworkModel(
        latency={"kind": "uniform", "low": 0.05, "high": 3.0}, drop_rate=0.15, seed=seed)},
}


def op_key(op):
    return None if op is None else (op.process, op.index)


def run(protocol, network, seed, monkeypatch, reference):
    """One run; returns its observable outcome and whether anything was buffered."""
    deliveries, buffered = [], []
    cls = PROTOCOLS[protocol]
    apply = cls._apply
    on_message = (reference_full_on_message if reference and protocol == "causal_full"
                  else cls.on_message)

    def logged_apply(self, variable, value, write_id):
        # every delivery applies its update; a local write applies its own
        if write_id[0] != self.pid:
            deliveries.append((self.pid, write_id[0], tuple(write_id)))
        apply(self, variable, value, write_id)

    def logged_on_message(self, message):
        on_message(self, message)
        buffered.append(self.pending_updates() > 0)

    with monkeypatch.context() as patch:
        patch.setattr(cls, "_apply", logged_apply)
        patch.setattr(cls, "on_message", logged_on_message)
        if reference:
            patch.setattr(MCSProcess, "_receive", reference_receive)
            if protocol == "causal_full":
                patch.setattr(cls, "_deliverable", reference_clock_test)
        dist = random_distribution(processes=5, variables=6, replicas_per_variable=3, seed=seed)
        script = uniform_access_script(dist, operations_per_process=14, write_fraction=0.6,
                                       seed=seed)
        system = MCSystem(dist, protocol=protocol, fifo=False, **NETWORKS[network](seed))
        run_script(system, script)
    history = tuple(
        (op.kind, op.process, op.variable, op.value, op.index, op.invoked_at, op.completed_at)
        for op in system.history().operations
    )
    read_from = sorted((op_key(read), op_key(source))
                       for read, source in system.read_from().items())
    per_process = {pid: [d[1:] for d in deliveries if d[0] == pid] for pid in dist.processes}
    return (per_process, history, read_from, system.stats), any(buffered)


@pytest.mark.parametrize("network", sorted(NETWORKS))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_single_test_delivery_equals_the_pass_loop(protocol, network, monkeypatch):
    filled = 0
    for seed in SEEDS:
        reference, _ = run(protocol, network, seed, monkeypatch, reference=True)
        outcome, any_buffered = run(protocol, network, seed, monkeypatch, reference=False)
        assert sum(map(len, outcome[0].values())) > 0, (protocol, network, seed)
        for name, expected, got in zip(("deliveries", "history", "read_from", "stats"),
                                       reference, outcome):
            assert got == expected, (protocol, network, seed, name)
        filled += any_buffered
    # The comparison is only worth something if the buffers really fill: every
    # run of every protocol and network buffers at least one update.
    assert filled == len(SEEDS), (protocol, network, filled)
