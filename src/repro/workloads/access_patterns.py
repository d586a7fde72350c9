"""Synthetic access-pattern drivers for the protocol overhead experiments.

These drivers exercise an :class:`~repro.mcs.MCSystem` directly (no
application program involved): each process performs a scripted mix of reads
and writes on the variables it replicates, interleaved with network
deliveries.  They are the workload generators behind the efficiency benchmarks
of Section 3.3: the same scripted accesses are replayed against every protocol
so that the message/byte accounting is an apples-to-apples comparison.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.distribution import VariableDistribution
from ..exceptions import RetryOperation, ScenarioSpecError
from ..mcs.system import MCSystem
from ..spec.registry import register_workload


class Access:
    """One scripted shared-memory access.

    Immutable, and compared, hashed, pickled and printed like a frozen
    dataclass of its four fields, but with ``__slots__`` instead of a
    per-instance ``__dict__``: a script holds one per operation, so the
    dictionary would nearly double its size.
    """

    __slots__ = ("process", "kind", "variable", "value")

    process: int
    kind: str  # "read" | "write"
    variable: str
    value: Optional[str]

    def __init__(
        self, process: int, kind: str, variable: str, value: Optional[str] = None
    ) -> None:
        init = object.__setattr__
        init(self, "process", process)
        init(self, "kind", kind)
        init(self, "variable", variable)
        init(self, "value", value)

    def _astuple(self) -> Tuple[int, str, str, Optional[str]]:
        return (self.process, self.kind, self.variable, self.value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self) -> Tuple[type, Tuple[int, str, str, Optional[str]]]:
        return (Access, self._astuple())

    def __repr__(self) -> str:
        return (f"Access(process={self.process!r}, kind={self.kind!r}, "
                f"variable={self.variable!r}, value={self.value!r})")


@register_workload(
    "uniform",
    params=("operations_per_process", "write_fraction"),
    description="random interleaving, each process touching only its variables",
)
def uniform_access_script(
    distribution: VariableDistribution,
    operations_per_process: int = 20,
    write_fraction: float = 0.5,
    seed: int = 0,
) -> List[Access]:
    """A random interleaving of accesses, each process touching only its variables."""
    rng = random.Random(seed)
    script: List[Access] = []
    counter = 0
    per_process: Dict[int, int] = {p: 0 for p in distribution.processes}
    variables = {p: sorted(distribution.variables_of(p)) for p in distribution.processes}
    active = [p for p in distribution.processes if variables[p]]
    while active:
        pid = rng.choice(active)
        var = rng.choice(variables[pid])
        if rng.random() < write_fraction:
            script.append(Access(pid, "write", var, f"{var}@{pid}#{counter}"))
            counter += 1
        else:
            script.append(Access(pid, "read", var))
        per_process[pid] += 1
        if per_process[pid] >= operations_per_process:
            active.remove(pid)
    return script


@register_workload(
    "zipfian",
    params=("operations_per_process", "write_fraction", "skew",
            "hot_migration_every"),
    description="Zipf-skewed per-process variable choice with optional "
                "hot-key migration (rank rotation)",
)
def zipfian_access_script(
    distribution: VariableDistribution,
    operations_per_process: int = 20,
    write_fraction: float = 0.5,
    skew: float = 1.0,
    hot_migration_every: int = 0,
    seed: int = 0,
) -> List[Access]:
    """Zipf-skewed accesses: each process hammers a few hot variables.

    Each process ranks its replicated variables and picks with probability
    proportional to ``1 / (rank + 1) ** skew`` — ``skew=0`` degenerates to
    :func:`uniform_access_script`'s choice, larger skews concentrate traffic
    on the hot head.  This is the workload shape where placement matters
    most: the control cost of a variable is weighted by how often it is
    written, so a skewed profile rewards placements that shrink the relevant
    sets of exactly the hot variables.

    ``hot_migration_every > 0`` rotates every process's ranking by one
    position after that many *global* operations, migrating the hot spot —
    the adversarial case for a placement optimized against a stale profile.
    """
    if skew < 0:
        raise ScenarioSpecError(f"zipfian needs skew >= 0, got {skew}")
    if hot_migration_every < 0:
        raise ScenarioSpecError(
            f"zipfian needs hot_migration_every >= 0, got {hot_migration_every}"
        )
    rng = random.Random(seed)
    script: List[Access] = []
    counter = 0
    per_process: Dict[int, int] = {p: 0 for p in distribution.processes}
    ranked: Dict[int, List[str]] = {
        p: sorted(distribution.variables_of(p)) for p in distribution.processes
    }
    active = [p for p in distribution.processes if ranked[p]]
    rotation = 0
    while active:
        if hot_migration_every:
            target_rotation = len(script) // hot_migration_every
            if target_rotation != rotation:
                rotation = target_rotation
                for pid in ranked:
                    vars_ = ranked[pid]
                    if len(vars_) > 1:
                        ranked[pid] = vars_[1:] + vars_[:1]
        pid = rng.choice(active)
        variables = ranked[pid]
        weights = [1.0 / (rank + 1) ** skew for rank in range(len(variables))]
        var = rng.choices(variables, weights=weights)[0]
        if rng.random() < write_fraction:
            script.append(Access(pid, "write", var, f"{var}@{pid}#{counter}"))
            counter += 1
        else:
            script.append(Access(pid, "read", var))
        per_process[pid] += 1
        if per_process[pid] >= operations_per_process:
            active.remove(pid)
    return script


@register_workload(
    "single_writer",
    params=("writes_per_variable", "reads_per_replica"),
    description="one writer per variable, the PRAM-friendly Section 6 pattern",
)
def single_writer_script(
    distribution: VariableDistribution,
    writes_per_variable: int = 10,
    reads_per_replica: int = 10,
    seed: int = 0,
) -> List[Access]:
    """Each variable written only by its lowest-id holder (the PRAM-friendly pattern).

    This is the pattern the paper's case study relies on (Section 6): with a
    single writer per variable, PRAM consistency is enough for the application
    to behave as intended.
    """
    rng = random.Random(seed)
    script: List[Access] = []
    counter = 0
    for var in distribution.variables:
        holders = sorted(distribution.holders(var))
        writer = holders[0]
        readers = holders[1:] or holders
        for k in range(writes_per_variable):
            script.append(Access(writer, "write", var, f"{var}#{counter}"))
            counter += 1
            for _ in range(max(1, reads_per_replica // max(writes_per_variable, 1))):
                script.append(Access(rng.choice(readers), "read", var))
    rng.shuffle(script)
    return script


@register_workload(
    "hoop_relay",
    params=("rounds",),
    description="writes on the studied variable relayed read-by-read along "
                "a chain distribution's hoop (the Figure 2 information flow)",
)
def hoop_relay_script(
    distribution: VariableDistribution,
    rounds: int = 4,
    seed: int = 0,
) -> List[Access]:
    """The Figure 2 information flow as a script, for ``chain`` distributions.

    Per round: the head process writes the studied variable and its first
    relay variable; each intermediate reads its left relay and writes its
    right one; the tail process reads the last relay and then the studied
    variable.  On a correct causal implementation the tail's final read can
    only return the head's value once the dependency travelled the hoop —
    which makes this the sharpest pattern to expose fault-injected causality
    violations (a partitioned head-to-tail link plus a live relay chain).

    ``seed`` is accepted for workload-API uniformity; the script is fully
    deterministic.
    """
    del seed  # deterministic pattern
    if rounds < 1:
        raise ScenarioSpecError(f"hoop_relay needs rounds >= 1, got {rounds}")
    processes = sorted(distribution.processes)
    head, tail = processes[0], processes[-1]
    studied = sorted(
        var for var in distribution.variables
        if distribution.holders(var) == frozenset({head, tail})
    )
    if len(processes) < 3 or not studied:
        raise ScenarioSpecError(
            "hoop_relay needs a chain-shaped distribution: >= 3 processes and "
            "a variable replicated exactly at the two endpoints "
            "(e.g. the 'chain' family)"
        )
    variable = studied[0]
    relays: List[str] = []
    for left, right in zip(processes, processes[1:]):
        shared = sorted(
            var for var in distribution.variables_of(left)
            if var != variable and var in distribution.variables_of(right)
        )
        if not shared:
            raise ScenarioSpecError(
                f"hoop_relay: processes {left} and {right} share no relay variable"
            )
        relays.append(shared[0])
    script: List[Access] = []
    for round_no in range(rounds):
        script.append(Access(head, "write", variable, f"{variable}#{round_no}"))
        script.append(Access(head, "write", relays[0], f"{relays[0]}#{round_no}"))
        for position, (left, right) in enumerate(zip(processes[1:], processes[2:]), 1):
            script.append(Access(left, "read", relays[position - 1]))
            script.append(Access(left, "write", relays[position], f"{relays[position]}#{round_no}"))
        script.append(Access(tail, "read", relays[-1]))
        script.append(Access(tail, "read", variable))
    return script


def drive_script(
    system: MCSystem,
    script: Iterable[Access],
    settle_every: int = 1,
    max_retries: int = 1_000,
):
    """Drive a script one access at a time, yielding ``(index, access)`` after each.

    This is the single per-operation drive loop shared by :func:`run_script`
    and the streaming :class:`repro.api.Session` (which interleaves
    consistency checks between operations and may stop consuming early).
    Blocking reads (sequencer-based protocol) are retried after advancing the
    simulation; ``max_retries`` guards against protocol deadlocks.  The final
    :meth:`~repro.mcs.MCSystem.settle` is the caller's job.
    """
    simulator = system.simulator
    for idx, access in enumerate(script):
        process = system.process(access.process)
        if access.kind == "write":
            process.write(access.variable, access.value)
        else:
            retries = 0
            while True:
                try:
                    process.read(access.variable)
                    break
                except RetryOperation:
                    retries += 1
                    if retries > max_retries:
                        raise
                    simulator.run(until=simulator.now + 1.0)
        if settle_every and (idx + 1) % settle_every == 0:
            simulator.run(until=simulator.now + 0.25)
        yield idx, access


def run_script(
    system: MCSystem,
    script: Iterable[Access],
    settle_every: int = 1,
    max_retries: int = 1_000,
) -> None:
    """Replay a whole script against a system, then settle the network."""
    for _ in drive_script(system, script, settle_every=settle_every,
                          max_retries=max_retries):
        pass
    system.settle()

