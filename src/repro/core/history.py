"""Histories of the abstract shared-memory model (paper, Section 2).

A *local history* ``h_i`` is the sequence of operations invoked by application
process ``ap_i`` (total order = program order).  A *history*
``H = <h_1, ..., h_n>`` is the collection of the local histories.  ``O_H``
denotes the set of operations of ``H`` and ``H_{i+w}`` the sub-history made of
all operations of ``ap_i`` plus every write operation of ``H``.

The module also provides :class:`HistoryBuilder`, a small fluent helper used
throughout the tests, the examples and the figure-reproduction code to write
paper histories almost verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..exceptions import AmbiguousReadFromError, InvalidHistoryError
from .operations import BOTTOM, Operation, OpKind


@dataclass(frozen=True)
class LocalHistory:
    """The sequence of operations invoked by a single application process;
    each operation's ``index`` is its position (program order)."""

    process: int
    operations: Tuple[Operation, ...]

    def __post_init__(self) -> None:
        for pos, op in enumerate(self.operations):
            if op.process != self.process:
                raise InvalidHistoryError(
                    f"operation {op!r} belongs to process {op.process}, "
                    f"not {self.process}"
                )
            if op.index != pos:
                raise InvalidHistoryError(
                    f"operation {op!r} has index {op.index} but sits at "
                    f"position {pos} of h_{self.process}"
                )

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.operations)

    def __len__(self) -> int:
        return len(self.operations)

    def __getitem__(self, item: int) -> Operation:
        return self.operations[item]

    @property
    def writes(self) -> Tuple[Operation, ...]:
        """Write operations of the local history, in program order."""
        return tuple(op for op in self.operations if op.is_write)

    @property
    def reads(self) -> Tuple[Operation, ...]:
        """Read operations of the local history, in program order."""
        return tuple(op for op in self.operations if op.is_read)

    def program_precedes(self, first: Operation, second: Operation) -> bool:
        """``True`` iff ``first ->_i second`` (strict program order)."""
        return (
            first.process == self.process
            and second.process == self.process
            and first.index < second.index
        )


class History:
    """A collection of local histories, one per application process.

    Parameters
    ----------
    local_histories:
        Mapping from process identifier to the ordered sequence of operations
        invoked by that process.
    """

    def __init__(self, local_histories: Mapping[int, Sequence[Operation]]):
        locals_: Dict[int, LocalHistory] = {}
        for pid, ops in sorted(local_histories.items()):
            locals_[pid] = LocalHistory(pid, tuple(ops))
        self._locals: Dict[int, LocalHistory] = locals_
        self._ops: Tuple[Operation, ...] = tuple(
            op for pid in sorted(locals_) for op in locals_[pid]
        )
        uids = {op.uid for op in self._ops}
        if len(uids) != len(self._ops):
            raise InvalidHistoryError("duplicate operation objects in history")
        # Histories are immutable once built, and the checkers hit the derived
        # views once per process per check: precompute membership and the
        # per-variable partitions, and memoise the per-process views lazily.
        self._ops_set: FrozenSet[Operation] = frozenset(self._ops)
        self._writes: Tuple[Operation, ...] = tuple(op for op in self._ops if op.is_write)
        self._reads: Tuple[Operation, ...] = tuple(op for op in self._ops if op.is_read)
        by_variable: Dict[str, List[Operation]] = {}
        writes_by_variable: Dict[str, List[Operation]] = {}
        for op in self._ops:
            by_variable.setdefault(op.variable, []).append(op)
            if op.is_write:
                writes_by_variable.setdefault(op.variable, []).append(op)
        self._by_variable: Dict[str, Tuple[Operation, ...]] = {
            var: tuple(ops) for var, ops in by_variable.items()
        }
        self._writes_by_variable: Dict[str, Tuple[Operation, ...]] = {
            var: tuple(ops) for var, ops in writes_by_variable.items()
        }
        self._views: Dict[int, Tuple[Operation, ...]] = {}
        self._read_from: Optional[Dict[Operation, Optional[Operation]]] = None

    # -- basic accessors -----------------------------------------------------
    @property
    def processes(self) -> Tuple[int, ...]:
        """Sorted tuple of process identifiers appearing in the history."""
        return tuple(sorted(self._locals))

    def local(self, process: int) -> LocalHistory:
        """Local history ``h_process``."""
        try:
            return self._locals[process]
        except KeyError as exc:
            raise InvalidHistoryError(f"no local history for process {process}") from exc

    def __contains__(self, op: Operation) -> bool:
        return op in self._ops_set

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """``O_H`` — every operation of the history."""
        return self._ops

    @property
    def writes(self) -> Tuple[Operation, ...]:
        """All write operations of the history."""
        return self._writes

    @property
    def reads(self) -> Tuple[Operation, ...]:
        """All read operations of the history."""
        return self._reads

    @property
    def variables(self) -> Tuple[str, ...]:
        """Sorted tuple of the shared variables accessed in the history."""
        return tuple(sorted(self._by_variable))

    def operations_on(self, variable: str) -> Tuple[Operation, ...]:
        """Every operation accessing ``variable``."""
        return self._by_variable.get(variable, ())

    def writes_on(self, variable: str) -> Tuple[Operation, ...]:
        """Every write operation on ``variable``."""
        return self._writes_by_variable.get(variable, ())

    def sub_history_plus_writes(self, process: int) -> Tuple[Operation, ...]:
        """``H_{i+w}``: all operations of ``process`` plus every write of ``H``.

        Memoised per process (the checkers request the same view once per
        criterion per check).
        """
        cached = self._views.get(process)
        if cached is None:
            own = set(self.local(process).operations)
            cached = tuple(op for op in self._ops if op in own or op.is_write)
            self._views[process] = cached
        return cached

    def accessed_variables(self, process: int) -> Set[str]:
        """Variables read or written by ``process`` in this history."""
        return {op.variable for op in self.local(process)}

    # -- read-from inference ---------------------------------------------------
    def is_differentiated(self) -> bool:
        """``True`` iff no two writes store the same value into the same variable."""
        seen: Set[Tuple[str, Any]] = set()
        for op in self.writes:
            key = (op.variable, op.value)
            if key in seen:
                return False
            seen.add(key)
        return True

    def read_from(self) -> Dict[Operation, Optional[Operation]]:
        """Infer the read-from relation (paper, Section 2).

        For every read ``r(x)v`` the writer is the unique write ``w(x)v``; a
        read returning ``⊥`` has no writer (mapped to ``None``).  Raises
        :class:`AmbiguousReadFromError` when the history is not differentiated
        for a value that is actually read, and :class:`InvalidHistoryError`
        when a read returns a value never written.

        The inferred mapping is cached (histories are immutable); callers get
        a fresh dict copy so mutating it cannot corrupt the cache.
        """
        if self._read_from is not None:
            return dict(self._read_from)
        writers: Dict[Tuple[str, Any], List[Operation]] = {}
        for op in self.writes:
            writers.setdefault((op.variable, op.value), []).append(op)

        mapping: Dict[Operation, Optional[Operation]] = {}
        for op in self.reads:
            if op.value is BOTTOM:
                mapping[op] = None
                continue
            candidates = writers.get((op.variable, op.value), [])
            if not candidates:
                raise InvalidHistoryError(
                    f"read {op!r} returns a value never written to {op.variable}"
                )
            if len(candidates) > 1:
                raise AmbiguousReadFromError(
                    f"value {op.value!r} written to {op.variable} by several writes; "
                    "provide an explicit read-from mapping"
                )
            mapping[op] = candidates[0]
        self._read_from = mapping
        return dict(mapping)

    # -- misc ------------------------------------------------------------------
    def restrict(self, ops: Iterable[Operation]) -> Tuple[Operation, ...]:
        """Return the history's operations restricted to ``ops`` (history order)."""
        keep = set(ops)
        return tuple(op for op in self._ops if op in keep)

    def describe(self) -> str:
        """Multi-line, human readable rendering of the history."""
        lines = []
        for pid in self.processes:
            ops = "  ".join(op.label() for op in self.local(pid))
            lines.append(f"p{pid}: {ops}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<History processes={len(self.processes)} ops={len(self._ops)}>"


@dataclass
class HistoryBuilder:
    """Fluent helper to build histories the way the paper writes them.

    Example (paper, Figure 4)::

        b = HistoryBuilder()
        b.write(1, "x", "a").read(1, "x", "a").write(1, "y", "b")
        b.read(2, "y", "b").write(2, "y", "c")
        b.read(3, "x", BOTTOM).read(3, "y", "c")
        history = b.build()
    """

    _ops: Dict[int, List[Operation]] = field(default_factory=dict)

    def _append(self, kind: OpKind, process: int, variable: str, value: Any) -> "HistoryBuilder":
        seq = self._ops.setdefault(process, [])
        op = Operation(kind, process, variable, value, index=len(seq))
        seq.append(op)
        return self

    def write(self, process: int, variable: str, value: Any) -> "HistoryBuilder":
        """Append ``w_process(variable)value`` to ``h_process``."""
        return self._append(OpKind.WRITE, process, variable, value)

    def read(self, process: int, variable: str, value: Any = BOTTOM) -> "HistoryBuilder":
        """Append ``r_process(variable)value`` to ``h_process``."""
        return self._append(OpKind.READ, process, variable, value)

    def process(self, process: int) -> "HistoryBuilder":
        """Declare a process with an (initially) empty local history."""
        self._ops.setdefault(process, [])
        return self

    def last(self, process: int) -> Operation:
        """The most recently appended operation of ``process``."""
        return self._ops[process][-1]

    def build(self) -> History:
        """Materialise the :class:`History`."""
        return History(self._ops)
