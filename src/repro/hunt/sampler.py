"""Seeded random generation of adversarial :class:`ScenarioSpec` trials.

The sampler is the hunt's *generate* stage: given a hunter seed and a trial
index it deterministically draws one complete scenario — protocol,
distribution or application, workload, network model with a randomized fault
schedule, check configuration and run seed — anywhere in the space the
component registries span.  Two invariants make the rest of the subsystem
work:

* **Determinism.** Trial ``i`` of hunter seed ``s`` is produced by
  ``random.Random(f"hunt:{s}:{i}")`` and nothing else — string seeds hash via
  SHA-512, stable across processes, platforms and Python runs — so the same
  ``repro hunt run --seed S --budget N`` reproduces the same findings
  bit for bit.
* **Validity.** Every sampled spec passes ``spec.validate()`` before it is
  returned; the sampler owns the cross-axis constraints (hoop workloads only
  on chain distributions, no apps on blocking protocols, partitions and
  crashes only over 0-based contiguous pid families, Bellman-Ford sources
  drawn from the topology's 1-based node range, ...) so the driver and the
  shrinker can treat specs as opaque.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Sequence, Tuple

from ..exceptions import ScenarioSpecError
from ..spec.registry import PROTOCOL_REGISTRY
from ..spec.scenario import (
    AppSpec,
    CheckSpec,
    DistributionSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)

#: Distribution families whose pids are 0..n-1 (contiguous, 0-based) — the
#: only ones fault schedules may target by process id.  The ``neighbourhood``
#: family numbers processes after 1-based topology nodes and is excluded.
ZERO_BASED_FAMILIES = ("full_replication", "disjoint_blocks", "chain", "random")


def trial_rng(hunter_seed: int, index: int) -> random.Random:
    """The one PRNG a trial may use (see the module invariants)."""
    return random.Random(f"hunt:{hunter_seed}:{index}")


def _weighted_choice(rng: random.Random, table: Sequence[Tuple[str, float]]) -> str:
    names = [name for name, _ in table]
    weights = [weight for _, weight in table]
    return rng.choices(names, weights=weights, k=1)[0]


class SpecSampler:
    """Draws adversarial scenario specs, one per ``(hunter_seed, index)`` pair."""

    #: Protocol draw weights.  ``best_effort`` is upweighted: it is the one
    #: protocol whose guarantees genuinely depend on network assumptions, so
    #: it is where violations live.  The others mostly yield stalls/passes
    #: and act as a regression net for the guarantee envelope.
    PROTOCOL_WEIGHTS = {
        "best_effort": 3.0,
        "pram_partial": 1.0,
        "causal_partial": 1.0,
        "causal_full": 1.0,
        "sequencer_sc": 0.5,
    }

    #: Fraction of trials that run a registered application instead of a
    #: scripted workload (apps are slower and their verdict adds little
    #: beyond the scripted trials, so they are a seasoning, not the base).
    APP_FRACTION = 0.08

    def __init__(self, hunter_seed: int, max_processes: int = 6,
                 max_operations: int = 40):
        self.hunter_seed = int(hunter_seed)
        self.max_processes = int(max_processes)
        self.max_operations = int(max_operations)
        if self.max_processes < 3:
            raise ScenarioSpecError("hunt sampler needs max_processes >= 3")
        if self.max_operations < 4:
            raise ScenarioSpecError("hunt sampler needs max_operations >= 4")

    # -- public API ------------------------------------------------------------
    def sample(self, index: int) -> ScenarioSpec:
        """Trial ``index``: a validated, runnable scenario spec."""
        rng = trial_rng(self.hunter_seed, index)
        protocol = self._sample_protocol(rng)
        if rng.random() < self.APP_FRACTION and not self._blocks_reads(protocol):
            spec = self._sample_app_spec(rng, index, protocol)
        else:
            spec = self._sample_workload_spec(rng, index, protocol)
        spec.validate()
        return spec

    def sample_many(self, budget: int, start: int = 0) -> List[ScenarioSpec]:
        return [self.sample(start + i) for i in range(int(budget))]

    # -- protocol axis ---------------------------------------------------------
    def _sample_protocol(self, rng: random.Random) -> ProtocolSpec:
        registered = sorted(c.name for c in PROTOCOL_REGISTRY.components())
        table = [(name, self.PROTOCOL_WEIGHTS.get(name, 1.0)) for name in registered]
        return ProtocolSpec(_weighted_choice(rng, table))

    @staticmethod
    def _blocks_reads(protocol: ProtocolSpec) -> bool:
        return bool(protocol.component.metadata.get("blocking_reads"))

    # -- scripted trials -------------------------------------------------------
    def _sample_workload_spec(self, rng: random.Random, index: int,
                              protocol: ProtocolSpec) -> ScenarioSpec:
        distribution, processes = self._sample_distribution(rng)
        workload = self._sample_workload(rng, distribution)
        network = self._sample_network(rng, distribution.family, processes)
        check = self._sample_check(rng)
        # The Figure 2 hunt: on a hoop-carrying chain, often check *causal*
        # consistency regardless of the protocol's claim — a partition across
        # the hoop turns relayed information flow into the causal bad pattern
        # (never inside the envelope; see the oracle's criteria coverage).
        if workload.pattern == "hoop_relay" and rng.random() < 0.6:
            check.criteria = ("causal",)
        return ScenarioSpec(
            name=f"hunt-t{index}",
            protocol=protocol,
            distribution=distribution,
            workload=workload,
            network=network,
            check=check,
            seed=rng.randrange(1 << 16),
        )

    def _sample_distribution(self, rng: random.Random) -> Tuple[DistributionSpec, int]:
        """A distribution spec plus its process count (for fault targeting)."""
        family = _weighted_choice(rng, (
            ("full_replication", 2.5),
            ("random", 2.0),
            ("chain", 2.0),
            ("disjoint_blocks", 1.0),
            ("neighbourhood", 0.5),
        ))
        if family == "full_replication":
            processes = rng.randint(2, self.max_processes)
            params: Dict[str, Any] = {
                "processes": processes,
                "variables": rng.randint(1, 4),
            }
        elif family == "random":
            processes = rng.randint(2, self.max_processes)
            params = {
                "processes": processes,
                "variables": rng.randint(1, 4),
                "replicas_per_variable": rng.randint(1, processes),
                "seed": rng.randrange(1 << 16),
            }
        elif family == "chain":
            intermediates = rng.randint(1, max(1, self.max_processes - 2))
            processes = intermediates + 2
            params = {"intermediates": intermediates}
        elif family == "disjoint_blocks":
            groups = rng.randint(1, 2)
            group_size = rng.randint(2, max(2, self.max_processes // groups))
            processes = groups * group_size
            params = {
                "groups": groups,
                "group_size": group_size,
                "variables_per_group": rng.randint(1, 2),
            }
        else:  # neighbourhood over a topology (1-based nodes)
            topology = rng.choice(("figure8", "line", "ring"))
            if topology == "figure8":
                processes, params = 5, {"topology": "figure8"}
            else:
                nodes = rng.randint(3, self.max_processes)
                processes = nodes
                params = {"topology": topology, "nodes": nodes}
        return DistributionSpec(family, params), processes

    def _sample_workload(self, rng: random.Random,
                         distribution: DistributionSpec) -> WorkloadSpec:
        choices: List[Tuple[str, float]] = [("uniform", 2.0),
                                            ("single_writer", 1.0),
                                            ("zipfian", 1.0)]
        if distribution.family == "chain":
            # the hoop relay is the Figure 2 information flow — the pattern
            # partition faults turn into causal violations
            choices.append(("hoop_relay", 2.0))
        pattern = _weighted_choice(rng, choices)
        if pattern == "uniform":
            params: Dict[str, Any] = {
                "operations_per_process": rng.randint(4, self.max_operations),
                "write_fraction": rng.choice((0.3, 0.5, 0.7)),
            }
        elif pattern == "zipfian":
            params = {
                "operations_per_process": rng.randint(4, self.max_operations),
                "write_fraction": rng.choice((0.3, 0.5, 0.7)),
                "skew": rng.choice((0.5, 1.0, 2.0)),
                "hot_migration_every": rng.choice((0, 0, 8)),
            }
        elif pattern == "single_writer":
            params = {
                "writes_per_variable": rng.randint(2, 10),
                "reads_per_replica": rng.randint(2, 10),
            }
        else:
            params = {"rounds": rng.randint(2, 8)}
        return WorkloadSpec(pattern, params)

    # -- application trials ----------------------------------------------------
    def _sample_app_spec(self, rng: random.Random, index: int,
                         protocol: ProtocolSpec) -> ScenarioSpec:
        name = rng.choice(("bellman_ford", "jacobi", "matrix_product",
                           "producer_consumer"))
        if name == "bellman_ford":
            topology = rng.choice(("figure8", "ring"))
            params: Dict[str, Any] = {"topology": topology}
            if topology == "ring":
                params["nodes"] = rng.randint(3, 5)
            # topology nodes are 1-based (figure8: 1..5, ring: 1..nodes)
            params["source"] = rng.randint(1, params.get("nodes", 5))
            # an explicit round count gives the shrinker a size handle
            params["rounds"] = rng.randint(3, 8)
            processes = params.get("nodes", 5)
        elif name == "jacobi":
            workers = rng.randint(2, 3)
            params = {
                "unknowns": workers * rng.randint(1, 2),
                "workers": workers,
                "iterations": rng.randint(10, 25),
                "seed": rng.randrange(1 << 16),
            }
            processes = workers
        elif name == "matrix_product":
            workers = rng.randint(2, 3)
            params = {
                "rows": workers * rng.randint(1, 2),
                "inner": rng.randint(2, 4),
                "cols": rng.randint(2, 4),
                "workers": workers,
                "seed": rng.randrange(1 << 16),
            }
            processes = workers
        else:
            stages = rng.randint(2, 4)
            params = {"stages": stages, "items": rng.randint(2, 5)}
            processes = stages
        network = self._sample_network(rng, family=None, processes=processes,
                                       for_app=True)
        # Cap the spin budget so a starved barrier is *diagnosed* as a
        # livelock instead of spinning out the default 200k-step budget.
        max_steps = 20_000 if network.model == "reliable" and network.fifo else 4_000
        return ScenarioSpec(
            name=f"hunt-t{index}",
            protocol=protocol,
            app=AppSpec(name, params, max_steps=max_steps),
            network=network,
            check=self._sample_check(rng),
            seed=rng.randrange(1 << 16),
        )

    # -- network axis ----------------------------------------------------------
    def _sample_network(self, rng: random.Random, family: Any, processes: int,
                        for_app: bool = False) -> NetworkSpec:
        shape = _weighted_choice(rng, (
            ("reliable_fifo", 0.25),
            ("reliable_latency", 0.15),
            ("reliable_nofifo", 0.20),
            ("faulty", 0.40),
        ))
        if shape == "reliable_fifo":
            return NetworkSpec()
        if shape == "reliable_latency":
            return NetworkSpec("reliable", {"latency": self._sample_latency(rng)})
        if shape == "reliable_nofifo":
            # without latency jitter a non-FIFO channel never actually
            # reorders, so these trials always carry a spread-out latency
            return NetworkSpec("reliable",
                               {"latency": self._sample_latency(rng, jittery=True)},
                               fifo=False)
        return self._sample_faulty(rng, family, processes, for_app)

    @staticmethod
    def _sample_latency(rng: random.Random, jittery: bool = False) -> Any:
        kind = rng.choice(("uniform", "lognormal")) if jittery else \
            rng.choice(("constant", "uniform", "lognormal"))
        if kind == "constant":
            return round(rng.uniform(0.5, 3.0), 2)
        if kind == "uniform":
            low = round(rng.uniform(0.2, 1.0), 2)
            return {"kind": "uniform", "low": low,
                    "high": round(low + rng.uniform(0.5, 3.0), 2)}
        return {"kind": "lognormal", "median": round(rng.uniform(0.5, 2.0), 2),
                "sigma": round(rng.uniform(0.3, 1.0), 2)}

    def _sample_faulty(self, rng: random.Random, family: Any, processes: int,
                       for_app: bool) -> NetworkSpec:
        params: Dict[str, Any] = {"seed": rng.randrange(1 << 16)}
        fifo = not for_app and rng.random() < 0.4
        # At least one fault knob must be active, else "faulty" is reliable
        # with extra bookkeeping; resample the knob mask until non-empty.
        while True:
            drop = rng.random() < 0.45
            duplicate = rng.random() < 0.45
            partition = (not for_app and family in ZERO_BASED_FAMILIES
                         and processes >= 2 and rng.random() < 0.35)
            crash = (not for_app and family in ZERO_BASED_FAMILIES
                     and processes >= 3 and rng.random() < 0.2)
            if drop or duplicate or partition or crash:
                break
        if drop:
            params["drop_rate"] = rng.choice((0.05, 0.1, 0.2, 0.4))
        if duplicate:
            params["duplicate_rate"] = rng.choice((0.1, 0.2, 0.4))
            # a zero-lag duplicate lands before any newer write and is
            # invisible; only lagged copies can regress a replica
            params["duplicate_lag"] = rng.choice((1.0, 3.0, 6.0))
        if partition:
            start = round(rng.uniform(0.0, 4.0), 1)
            group = sorted(rng.sample(range(processes),
                                      rng.randint(1, max(1, processes // 2))))
            params["partitions"] = [{
                "start": start,
                "end": round(start + rng.uniform(2.0, 10.0), 1),
                "groups": [group],
            }]
        if crash:
            start = round(rng.uniform(0.0, 4.0), 1)
            params["crashes"] = [{
                "process": rng.randrange(processes),
                "start": start,
                "end": round(start + rng.uniform(2.0, 8.0), 1),
            }]
        if not fifo or rng.random() < 0.4:
            params["latency"] = self._sample_latency(rng, jittery=True)
        return NetworkSpec("faulty", params, fifo=fifo)

    # -- check axis ------------------------------------------------------------
    @staticmethod
    def _sample_check(rng: random.Random) -> CheckSpec:
        # Trials run with keep_history=False (oracle.execute_spec), i.e. the
        # monitors-only checker (window 0): no bad-pattern pre-check runs and
        # ``exact`` is never consulted.  A reported violation is a stream
        # monitor's proof; a clean trial is heuristic, which the oracle
        # treats accordingly.  Deciding trials exactly is ROADMAP item 2:
        # a history-keeping trial is an arena run and needs no window.
        policy = _weighted_choice(rng, (
            ("fail_fast", 3.0),
            ("finalize", 1.0),
            ("every:8:fail_fast", 1.0),
        ))
        return CheckSpec(policy=policy, exact=False)
