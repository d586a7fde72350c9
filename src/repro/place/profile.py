"""Access profiles: what the placement optimizer optimises *for*.

An :class:`AccessProfile` is the per-(process, variable) read and write count
of a workload — the only thing the share-graph cost model needs.  Profiles
can be built from a scripted workload (:meth:`AccessProfile.from_accesses`),
from a registered workload pattern (:meth:`AccessProfile.from_workload`),
from a recorded history (:meth:`AccessProfile.from_history`) or from an
exported ``repro-trace-v1`` file (:meth:`AccessProfile.from_trace`), and they
round-trip through JSON for the ``repro place`` CLI.

The *accessors* of a variable (processes that read or write it) are the hard
placement constraint: the DSM model only lets a process access variables it
replicates, so every admissible distribution must give each variable at least
its accessors.  The optimizer's search space is the extra replicas beyond
that minimum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Tuple

from ..core.distribution import VariableDistribution
from ..exceptions import ScenarioSpecError
from ..spec.scenario import decode_value


@dataclass(frozen=True)
class AccessProfile:
    """Read/write counts per ``(process, variable)`` pair."""

    reads: Mapping[Tuple[int, str], int] = field(default_factory=dict)
    writes: Mapping[Tuple[int, str], int] = field(default_factory=dict)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_accesses(cls, accesses: Iterable[Any]) -> "AccessProfile":
        """Profile of a scripted workload (a sequence of ``Access`` objects)."""
        reads: Dict[Tuple[int, str], int] = {}
        writes: Dict[Tuple[int, str], int] = {}
        for access in accesses:
            key = (int(access.process), str(access.variable))
            if access.kind == "write":
                writes[key] = writes.get(key, 0) + 1
            else:
                reads[key] = reads.get(key, 0) + 1
        return cls(reads=reads, writes=writes)

    @classmethod
    def from_workload(
        cls,
        pattern: str,
        params: Mapping[str, Any],
        distribution: VariableDistribution,
        seed: int = 0,
    ) -> "AccessProfile":
        """Profile of a registered workload pattern run over ``distribution``."""
        from ..spec.scenario import WorkloadSpec

        script = WorkloadSpec(pattern, dict(params)).build(distribution, seed=seed)
        return cls.from_accesses(script)

    @classmethod
    def from_history(cls, history: Iterable[Any]) -> "AccessProfile":
        """Profile of a recorded history (iterable of operations)."""
        reads: Dict[Tuple[int, str], int] = {}
        writes: Dict[Tuple[int, str], int] = {}
        for op in history:
            key = (int(op.process), str(op.variable))
            if getattr(op, "is_write", False) or getattr(op, "kind", None) == "write":
                writes[key] = writes.get(key, 0) + 1
            else:
                reads[key] = reads.get(key, 0) + 1
        return cls(reads=reads, writes=writes)

    @classmethod
    def from_trace(cls, path: str) -> "AccessProfile":
        """Profile of an exported ``repro-trace-v1`` file (see ``repro serve``)."""
        from ..serve.trace import read_trace

        _meta, records = read_trace(path)
        reads: Dict[Tuple[int, str], int] = {}
        writes: Dict[Tuple[int, str], int] = {}
        for record in records:
            key = (record.process, record.variable)
            if record.is_write:
                writes[key] = writes.get(key, 0) + 1
            else:
                reads[key] = reads.get(key, 0) + 1
        return cls(reads=reads, writes=writes)

    # -- structure ------------------------------------------------------------
    @property
    def processes(self) -> Tuple[int, ...]:
        pids = {pid for pid, _ in self.reads} | {pid for pid, _ in self.writes}
        return tuple(sorted(pids))

    @property
    def variables(self) -> Tuple[str, ...]:
        names = {var for _, var in self.reads} | {var for _, var in self.writes}
        return tuple(sorted(names))

    def accessors(self, variable: str) -> FrozenSet[int]:
        """Processes that read or write ``variable`` (the placement floor)."""
        return frozenset(
            pid for (pid, var) in list(self.reads) + list(self.writes)
            if var == variable
        )

    def writers(self, variable: str) -> FrozenSet[int]:
        return frozenset(pid for (pid, var) in self.writes if var == variable)

    def write_count(self, variable: str) -> int:
        """Total writes to ``variable`` (weights the control-cost objective)."""
        return sum(n for (_, var), n in self.writes.items() if var == variable)

    def read_count(self, variable: str) -> int:
        return sum(n for (_, var), n in self.reads.items() if var == variable)

    def operation_count(self) -> int:
        return sum(self.reads.values()) + sum(self.writes.values())

    def minimal_distribution(self) -> VariableDistribution:
        """The accessor-minimal admissible distribution (the search start)."""
        if not self.variables:
            raise ScenarioSpecError("an access profile needs at least one access")
        per_process: Dict[int, set] = {pid: set() for pid in self.processes}
        for var in self.variables:
            for pid in self.accessors(var):
                per_process[pid].add(var)
        return VariableDistribution(per_process)

    # -- JSON round-trip -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "reads": [[pid, var, n] for (pid, var), n in sorted(self.reads.items())],
            "writes": [[pid, var, n] for (pid, var), n in sorted(self.writes.items())],
        }

    @classmethod
    def from_dict(cls, data: Any) -> "AccessProfile":
        if not isinstance(data, Mapping):
            raise ScenarioSpecError(
                f"an access profile must be a mapping, got {type(data).__name__}"
            )
        unknown = set(data) - {"reads", "writes"}
        if unknown:
            raise ScenarioSpecError(
                f"unknown access-profile keys {sorted(unknown)}"
            )
        return cls(reads=_counts(data, "reads"), writes=_counts(data, "writes"))


def _counts(data: Mapping[str, Any], key: str) -> Dict[Tuple[int, str], int]:
    """The ``[process, variable, count]`` triples under ``key``, typed: a
    ``"3"`` or a ``3.7`` is no process or count, a number no variable."""
    triples = decode_value(data.get(key, []), List[Tuple[int, str, int]],
                           f"access-profile {key} entry")
    for process, _, _ in triples:
        if process < 0:
            raise ScenarioSpecError(
                f"access-profile {key} process must be >= 0, got {process!r}"
            )
    return {(process, variable): count for process, variable, count in triples}


def synthetic_profile(
    processes: int,
    variables: int,
    accessors_per_variable: int = 2,
    writes_per_variable: int = 4,
    reads_per_accessor: int = 4,
    seed: int = 0,
) -> AccessProfile:
    """A seeded random profile: each variable accessed by a small random set.

    The first sampled accessor writes, the others read — the sparse-sharing
    regime where partial replication pays off (and where uniform random
    *placement* still creates hoops for the optimizer to remove).
    """
    if not 1 <= accessors_per_variable <= processes:
        raise ScenarioSpecError(
            "accessors_per_variable must be in [1, processes]"
        )
    rng = random.Random(seed)
    reads: Dict[Tuple[int, str], int] = {}
    writes: Dict[Tuple[int, str], int] = {}
    for v in range(variables):
        var = f"x{v}"
        # Round-robin writers keep every process busy once variables >=
        # processes (so "n processes" means n *participating* processes);
        # the readers are the seeded random part.
        writer = v % processes
        others = [pid for pid in range(processes) if pid != writer]
        members = rng.sample(others, accessors_per_variable - 1)
        writes[(writer, var)] = writes_per_variable
        for pid in members:
            reads[(pid, var)] = reads_per_accessor
    return AccessProfile(reads=reads, writes=writes)
