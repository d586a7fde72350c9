"""Variable distributions: which process replicates which shared variables.

The paper's partial-replication setting (Section 3) is characterised by the
family ``X_i`` of variables accessed — hence replicated — by each application
process ``ap_i``.  :class:`VariableDistribution` is the value object capturing
that family; it is consumed by the share-graph analysis
(:mod:`repro.core.share_graph`), by the MCS protocols (which use it to decide
where updates must be propagated) and by the DSM runtime (which uses it to
validate programs).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from ..exceptions import DistributionError
from .history import History


class VariableDistribution:
    """Assignment of shared variables to the processes that replicate them.

    Parameters
    ----------
    per_process:
        Mapping ``process -> iterable of variable names`` (the paper's ``X_i``).
    """

    def __init__(self, per_process: Mapping[int, Iterable[str]]):
        self._per_process: Dict[int, FrozenSet[str]] = {
            int(pid): frozenset(vars_) for pid, vars_ in per_process.items()
        }
        self._holders: Dict[str, FrozenSet[int]] = {}
        for pid, vars_ in self._per_process.items():
            for var in vars_:
                self._holders[var] = self._holders.get(var, frozenset()) | {pid}
        if not self._per_process:
            raise DistributionError("a distribution needs at least one process")
        #: Memo slot of :meth:`repro.core.share_graph.ShareGraph.of` — derived
        #: data, outside the value (``__eq__``/``__hash__``) and never pickled.
        self._share_graph: Optional[object] = None

    # -- constructors ---------------------------------------------------------
    @classmethod
    def from_holders(cls, holders: Mapping[str, Iterable[int]],
                     processes: Optional[Iterable[int]] = None) -> "VariableDistribution":
        """Build a distribution from ``variable -> processes holding it``."""
        per_process: Dict[int, Set[str]] = {int(p): set() for p in (processes or [])}
        for var, pids in holders.items():
            for pid in pids:
                per_process.setdefault(int(pid), set()).add(var)
        return cls(per_process)

    @classmethod
    def full_replication(cls, processes: Iterable[int], variables: Iterable[str]) -> "VariableDistribution":
        """Every process replicates every variable (the classical setting)."""
        vars_ = frozenset(variables)
        return cls({int(p): vars_ for p in processes})

    # -- accessors --------------------------------------------------------------
    @property
    def processes(self) -> Tuple[int, ...]:
        """Sorted process identifiers."""
        return tuple(sorted(self._per_process))

    @property
    def variables(self) -> Tuple[str, ...]:
        """Sorted variable names."""
        return tuple(sorted(self._holders))

    def variables_of(self, process: int) -> FrozenSet[str]:
        """``X_process`` — the variables replicated at ``process``."""
        try:
            return self._per_process[process]
        except KeyError as exc:
            raise DistributionError(f"unknown process {process}") from exc

    def holders(self, variable: str) -> FrozenSet[int]:
        """Vertex set of the clique ``C(variable)`` — processes replicating it."""
        try:
            return self._holders[variable]
        except KeyError as exc:
            raise DistributionError(f"unknown variable {variable!r}") from exc

    def holds(self, process: int, variable: str) -> bool:
        """``True`` iff ``process`` replicates ``variable``."""
        return variable in self._per_process.get(process, frozenset())

    def shared_variables(self, a: int, b: int) -> FrozenSet[str]:
        """Variables replicated both at ``a`` and at ``b`` (the edge label of SG)."""
        return self.variables_of(a) & self.variables_of(b)

    # -- metrics -----------------------------------------------------------------
    def replication_degree(self, variable: str) -> int:
        """Number of replicas of ``variable``."""
        return len(self.holders(variable))

    def average_replication_degree(self) -> float:
        """Mean number of replicas per variable."""
        if not self._holders:
            return 0.0
        return sum(len(h) for h in self._holders.values()) / len(self._holders)

    def is_fully_replicated(self) -> bool:
        """``True`` iff every process replicates every variable."""
        all_vars = set(self.variables)
        return all(set(self.variables_of(p)) == all_vars for p in self.processes)

    def total_replicas(self) -> int:
        """Total number of (process, variable) replica pairs."""
        return sum(len(v) for v in self._per_process.values())

    # -- validation ---------------------------------------------------------------
    def validate_history(self, history: History) -> None:
        """Check that every operation accesses a variable replicated at its process.

        Raises :class:`DistributionError` otherwise.  This is the structural
        requirement of the partial-replication setting (Section 3): ``ap_i``
        accesses only variables of ``X_i``.
        """
        for op in history.operations:
            if not self.holds(op.process, op.variable):
                raise DistributionError(
                    f"operation {op!r} accesses {op.variable!r} which is not "
                    f"replicated at process {op.process}"
                )

    def restricted_to(self, processes: Iterable[int]) -> "VariableDistribution":
        """Distribution restricted to a subset of processes."""
        keep = set(processes)
        return VariableDistribution(
            {p: v for p, v in self._per_process.items() if p in keep}
        )

    # -- dunder ----------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        return {**self.__dict__, "_share_graph": None}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VariableDistribution):
            return NotImplemented
        return self._per_process == other._per_process

    def __hash__(self) -> int:
        return hash(tuple(sorted((p, v) for p, v in self._per_process.items())))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<VariableDistribution processes={len(self.processes)} "
            f"variables={len(self.variables)} avg_degree={self.average_replication_degree():.2f}>"
        )

    def describe(self) -> str:
        """Multi-line rendering ``X_i = {...}`` for every process."""
        lines = []
        for pid in self.processes:
            vars_ = ", ".join(sorted(self.variables_of(pid)))
            lines.append(f"X_{pid} = {{{vars_}}}")
        return "\n".join(lines)
