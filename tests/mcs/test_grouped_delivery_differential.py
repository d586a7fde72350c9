"""Differential test of grouped delivery against one queue record per message.

``Network._transmit`` schedules the copies of a fan-out as handle-free calls,
one queue record per run of copies due at the same instant.  The reference
below is the per-message transmit body: every copy accounted and scheduled on
its own, as a one-call ``call_at`` record of the delivery.  Both sides run the same generated workloads
over constant latency (whole fan-outs share a record), a two-valued latency
(fan-outs split into several records), uniform latency, non-FIFO channels and
faulty models that duplicate and lose messages.  They must agree on every
process' delivery sequence, the recorded history, the read-from map, the
network statistics and the number of processed events — also when an event
budget runs out inside a group.
"""

import random

import pytest

from repro.exceptions import SimulationError
from repro.mcs.system import MCSystem
from repro.netsim.latency import LatencyModel, UniformLatency
from repro.netsim.models import FaultyNetworkModel
from repro.netsim.network import Network
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import full_replication, random_distribution

SEEDS = range(4)


def reference_transmit(self, message, targets, latencies):
    """One record per copy: the per-message transmit body, sent target by target."""
    for index, dst in enumerate(targets):
        out = message if dst == message.dst else message.to(dst)
        src = out.src
        if dst not in self._nodes:
            raise SimulationError(f"unknown destination {dst}")
        if src == dst:
            raise SimulationError("a process does not send messages to itself")
        if out.sent_at is not None:
            raise SimulationError(f"{out!r} was already sent; build a new message")
        now = self.simulator.now
        out.sent_at = now
        self.stats.record_send(out)
        if self.model is None:
            delays = (self.latency.sample(src, dst) if latencies is None else latencies[index],)
        else:
            plan = self.model.plan(src, dst, now)
            if plan.dropped:
                self.stats.record_drop(out, plan.drop_reason or "dropped")
                continue
            delays = plan.delays
        for copy, copy_delay in enumerate(delays):
            delivery_time = now + copy_delay
            if copy == 0:
                if self.fifo:
                    channel = (src, dst)
                    floor = self._last_delivery.get(channel, 0.0)
                    delivery_time = max(delivery_time, floor + 1e-9)
                    self._last_delivery[channel] = delivery_time
            else:
                self.stats.record_duplicate(out)
            self.simulator.call_at(delivery_time, self._deliver_call, [out])


class TwoValued(LatencyModel):
    """1.0 or 2.0 at random: the copies of one fan-out land at two instants,
    so it splits into several records, some of several copies."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def sample(self, src, dst):
        return self._rng.choice((1.0, 2.0))


NETWORKS = {
    "constant": lambda seed: {},
    "two-valued": lambda seed: {"latency": TwoValued(seed)},
    "uniform": lambda seed: {"latency": UniformLatency(0.05, 4.0, seed=seed)},
    "non-fifo": lambda seed: {"latency": TwoValued(seed), "fifo": False},
    "duplicating": lambda seed: {"fifo": False, "network_model": FaultyNetworkModel(
        latency=1.0, duplicate_rate=0.4, duplicate_lag=1.0, seed=seed)},
    "lossy": lambda seed: {"network_model": FaultyNetworkModel(
        latency={"kind": "uniform", "low": 0.5, "high": 1.0}, drop_rate=0.15, seed=seed)},
}
PROTOCOLS = ("causal_full", "pram_partial")


def build(protocol, network, seed):
    if protocol == "causal_full":
        dist = full_replication(6, 4)
    else:
        dist = random_distribution(processes=6, variables=6, replicas_per_variable=4, seed=seed)
    script = uniform_access_script(dist, operations_per_process=12, write_fraction=0.6,
                                   seed=seed)
    return MCSystem(dist, protocol=protocol, **NETWORKS[network](seed)), script


def log_deliveries(system):
    """Wrap every process' ``on_message``; returns the per-process log."""
    log = {pid: [] for pid in system.processes}
    for pid, process in system.processes.items():
        def logged(message, pid=pid, on_message=process.on_message):
            log[pid].append((message.src, message.kind, message.variable,
                             repr(message.payload), message.delivered_at))
            on_message(message)
        process.on_message = logged
    return log


def outcome(system, log):
    history = tuple(
        (op.kind, op.process, op.variable, op.value, op.index, op.invoked_at, op.completed_at)
        for op in system.history().operations
    )
    read_from = sorted(
        (None if read is None else (read.process, read.index),
         None if source is None else (source.process, source.index))
        for read, source in system.read_from().items()
    )
    return {
        "deliveries": {pid: list(entries) for pid, entries in log.items()},
        "history": history,
        "read_from": read_from,
        "stats": system.stats,
        "processed_events": system.simulator.processed_events,
    }


def both(monkeypatch, drive):
    """``drive`` on the grouped network, then on the per-message reference."""
    grouped = drive()
    with monkeypatch.context() as patch:
        patch.setattr(Network, "_transmit", reference_transmit)
        reference = drive()
    return grouped, reference


@pytest.mark.parametrize("network", sorted(NETWORKS))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_grouped_delivery_equals_one_record_per_message(protocol, network, monkeypatch):
    def drive(seed):
        system, script = build(protocol, network, seed)
        log = log_deliveries(system)
        run_script(system, script)
        return outcome(system, log)

    for seed in SEEDS:
        grouped, reference = both(monkeypatch, lambda: drive(seed))
        assert sum(map(len, grouped["deliveries"].values())) > 0
        for name in reference:
            assert grouped[name] == reference[name], (protocol, network, seed, name)


def test_the_networks_make_groups_of_every_size(monkeypatch):
    """The comparison is worth something only if fan-outs really group: the
    constant network makes whole-fan-out records, the two-valued one splits
    them, and the uniform one never groups."""
    sizes = {}
    for network in ("constant", "two-valued", "uniform"):
        seen = []
        system, script = build("causal_full", network, 0)
        call_at = system.simulator.call_at

        def counted(time, callback, args, seen=seen, call_at=call_at):
            seen.append(len(args))
            call_at(time, callback, args)

        monkeypatch.setattr(system.simulator, "call_at", counted)
        run_script(system, script)
        sizes[network] = set(seen)
    assert sizes["constant"] == {5}
    assert 1 in sizes["two-valued"] and max(sizes["two-valued"]) > 1
    assert sizes["uniform"] == {1}


@pytest.mark.parametrize("network", ["constant", "two-valued", "duplicating"])
@pytest.mark.parametrize("budget", [1, 3, 7, 12])
def test_a_budget_ending_inside_a_group_stops_at_the_same_delivery(network, budget,
                                                                   monkeypatch):
    def drive():
        system, script = build("causal_full", network, 1)
        log = log_deliveries(system)
        run_script_unsettled(system, script[:10])
        with pytest.raises(SimulationError, match="budget"):
            system.settle(max_events=budget)
        stopped = outcome(system, log)
        assert stopped["processed_events"] == budget
        system.settle()
        return stopped, outcome(system, log)

    grouped, reference = both(monkeypatch, drive)
    assert grouped == reference


def run_script_unsettled(system, script):
    """Every access of ``script`` at one instant: nothing is delivered yet."""
    for access in script:
        process = system.process(access.process)
        if access.kind == "write":
            process.write(access.variable, access.value)
        else:
            process.read(access.variable)



@pytest.mark.parametrize("network", ["constant", "two-valued"])
@pytest.mark.parametrize("at", [1, 2, 4, 9])
def test_a_call_queued_mid_group_runs_after_the_rest_of_its_instant(network, at, monkeypatch):
    """A delivery that queues a call at its own instant sees it run after the
    copies queued before it — the rest of its group included — as with one
    record per message."""
    def drive():
        system, script = build("causal_full", network, 2)
        log = log_deliveries(system)
        simulator, seen, delivered = system.simulator, [], []

        def probe(instant):
            seen.append((instant, simulator.now, len(delivered)))

        for pid, process in system.processes.items():
            def counting(message, on_message=process.on_message):
                on_message(message)
                delivered.append((message.dst, message.src))
                if len(delivered) == at:
                    simulator.call_at(simulator.now, probe, [simulator.now])
            process.on_message = counting
        run_script(system, script)
        return seen, outcome(system, log)

    grouped, reference = both(monkeypatch, drive)
    assert grouped == reference
    (seen, result), _ = grouped, reference
    [(instant, ran_at, count)] = seen
    assert ran_at == instant
    assert at <= count <= result["processed_events"] - 1
    if network == "constant":
        # the probe's whole fan-out group (five copies) ran before it
        assert count >= 5 * -(-at // 5)
