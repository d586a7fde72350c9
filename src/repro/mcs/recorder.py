"""Recording of the history produced by a protocol run.

The MCS processes report every application-level read and write to a shared
:class:`HistoryRecorder`.  Because protocols internally tag each write with a
write identifier ``(writer, writer_sequence)`` and propagate that identifier
together with the value, the recorder can reconstruct the **exact** read-from
mapping of the run — even when the application writes colliding values (the
distributed Bellman-Ford writes the same distance repeatedly, so value-based
inference would be ambiguous).  The recorded :class:`~repro.core.History` and
its read-from mapping are what the consistency checkers are applied to in the
integration tests and benchmarks.

Streaming consumers do not want to wait for the run to finish:
:meth:`HistoryRecorder.subscribe` registers a listener that observes every
operation *as it is recorded*, in recording order (which extends every
process' program order), together with the resolved source write of each
read.

This is the object-per-operation reference recorder (the default of a bare
:class:`~repro.mcs.system.MCSystem`); a :class:`repro.api.Session` records
with the columnar :class:`~repro.arena.recorder.ArenaRecorder`, whose
histories the tests compare against this one's.  Protocols and
:class:`~repro.mcs.system.MCSystem` are typed against :class:`Recorder`,
what both provide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from ..core.history import History
from ..core.operations import BOTTOM, Operation, OpKind

WriteId = Tuple[int, int]

#: A recording listener: ``(operation, source write or None)``.  For writes the
#: source is always ``None``; for reads it is the resolved writer operation.
RecordListener = Callable[[Operation, Optional[Operation]], None]


class Recorder(Protocol):
    """What protocols and :class:`~repro.mcs.system.MCSystem` call on a
    recorder; :class:`HistoryRecorder` and
    :class:`~repro.arena.recorder.ArenaRecorder` are both one.  What
    ``record_write`` / ``record_read`` return (an operation, a row) is the
    recorder's own; callers discard it."""

    def record_write(self, process: int, variable: str, value: Any, write_id: WriteId,
                     invoked_at: Optional[float] = None,
                     completed_at: Optional[float] = None) -> Any: ...

    def record_read(self, process: int, variable: str, value: Any, source: Optional[WriteId],
                    invoked_at: Optional[float] = None,
                    completed_at: Optional[float] = None) -> Any: ...

    def declare_process(self, process: int) -> None: ...

    def history(self) -> History: ...

    def read_from(self) -> Dict[Operation, Optional[Operation]]: ...


@dataclass
class HistoryRecorder:
    """Collects operations and read-from evidence from a protocol run."""

    _ops: Dict[int, List[Operation]] = field(default_factory=dict)
    _write_ops: Dict[WriteId, Operation] = field(default_factory=dict)
    _read_sources: Dict[int, Optional[WriteId]] = field(default_factory=dict)
    _log: List[Tuple[Operation, Optional[Operation]]] = field(default_factory=list)
    _listeners: Tuple[RecordListener, ...] = ()

    # -- subscription ------------------------------------------------------------
    def subscribe(self, listener: RecordListener, replay: bool = False) -> None:
        """Register ``listener`` for every subsequently recorded operation.

        Listeners are invoked synchronously at record time, in recording
        order — the global delivery order of the run, which restricted to any
        process is exactly its program order.  A listener registered mid-run
        sees only subsequent operations unless ``replay`` is ``True``, in
        which case the already-recorded stream is replayed to it first (in
        the same recording order), so late subscribers cannot observe a
        permuted stream.

        The listener tuple is replaced, not mutated, so subscribing from
        within a listener callback (or any notification in progress) can
        never disturb an ongoing iteration.
        """
        if replay:
            for op, source in self._log:
                listener(op, source)
        self._listeners = self._listeners + (listener,)

    def unsubscribe(self, listener: RecordListener) -> None:
        """Remove ``listener``; unknown listeners are ignored."""
        self._listeners = tuple(l for l in self._listeners if l is not listener)

    def _notify(self, op: Operation, source: Optional[Operation]) -> None:
        self._log.append((op, source))
        for listener in self._listeners:  # snapshot tuple: mutation-safe
            listener(op, source)

    # -- recording ---------------------------------------------------------------
    def _next_index(self, process: int) -> int:
        return len(self._ops.setdefault(process, []))

    def record_write(
        self,
        process: int,
        variable: str,
        value: Any,
        write_id: WriteId,
        invoked_at: Optional[float] = None,
        completed_at: Optional[float] = None,
    ) -> Operation:
        """Record a write operation and remember its protocol-level identifier."""
        op = Operation(
            OpKind.WRITE,
            process,
            variable,
            value,
            index=self._next_index(process),
            invoked_at=invoked_at,
            completed_at=completed_at,
        )
        self._ops[process].append(op)
        self._write_ops[write_id] = op
        self._notify(op, None)
        return op

    def record_read(
        self,
        process: int,
        variable: str,
        value: Any,
        source: Optional[WriteId],
        invoked_at: Optional[float] = None,
        completed_at: Optional[float] = None,
    ) -> Operation:
        """Record a read operation together with the write it returned."""
        op = Operation(
            OpKind.READ,
            process,
            variable,
            value,
            index=self._next_index(process),
            invoked_at=invoked_at,
            completed_at=completed_at,
        )
        self._ops[process].append(op)
        self._read_sources[op.uid] = source
        source_op = self._write_ops.get(source) if source is not None else None
        self._notify(op, source_op)
        return op

    def declare_process(self, process: int) -> None:
        """Ensure ``process`` appears in the history even with no operations."""
        self._ops.setdefault(process, [])

    # -- extraction -----------------------------------------------------------------
    def history(self) -> History:
        """The recorded history."""
        return History(self._ops)

    def log(self) -> Tuple[Tuple[Operation, Optional[Operation]], ...]:
        """The ``(operation, source)`` stream in recording (delivery) order."""
        return tuple(self._log)

    @property
    def processes(self) -> Tuple[int, ...]:
        """Every process that declared itself or recorded an operation."""
        return tuple(sorted(self._ops))

    def operation_count(self) -> int:
        """Total number of recorded operations."""
        return len(self._log)

    def read_from(self) -> Dict[Operation, Optional[Operation]]:
        """The exact read-from mapping of the run (protocol ground truth)."""
        mapping: Dict[Operation, Optional[Operation]] = {}
        for pid, ops in self._ops.items():
            for op in ops:
                if not op.is_read:
                    continue
                source = self._read_sources.get(op.uid)
                mapping[op] = self._write_ops.get(source) if source is not None else None
        return mapping
