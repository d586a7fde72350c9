"""Columnar history recorder: the recorder of every :class:`repro.api.Session`.

:class:`ArenaRecorder` mirrors :class:`repro.mcs.recorder.HistoryRecorder`'s
recording interface — protocols call ``record_write`` / ``record_read`` /
``declare_process`` and discard the return value, sessions call
``subscribe`` / ``history`` / ``read_from`` / ``log`` — but the hot path
appends plain integers to an :class:`~repro.arena.store.OpArena` instead of
allocating an :class:`~repro.core.operations.Operation` per call.

Listeners get rows, not objects: each is called with ``(row, source_row)``
as the row is recorded (``source_row`` is the read's source write row, or
:data:`~repro.arena.store.NO_SOURCE` for a write or a read of ⊥).  Objects
are materialised **lazily** through :mod:`repro.arena.adapter`, and only when
somebody actually asks for them — ``history()``/``read_from()``/``log()`` or
a witness — so a run records 10^5–10^6 operations without creating a single
per-op object.  The arena buffers columns unconditionally (that is the
point — ~58 bytes per operation instead of a few hundred).

Nor does it keep one per write to resolve read sources.  A protocol tags its
``k``-th write ``(pid, k)`` (:meth:`repro.mcs.base.MCSProcess._next_write_id`),
so while a process' write ids run densely from ``(pid, 1)`` the id of its
``k``-th write *is* the arena's ``write_rows_of(pid)[k - 1]``: the recorder
keeps only the length of that dense prefix per process.  Any other id (a
hand-driven recorder may tag writes freely) goes to a dictionary.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..core.history import History
from ..core.operations import Operation
from ..mcs.recorder import WriteId
from . import adapter
from .store import NO_SOURCE, OpArena

#: A row listener: ``(row, source_row)`` of each recorded operation.
RowListener = Callable[[int, int], None]


class ArenaRecorder:
    """Collects operations and read-from evidence as arena columns."""

    def __init__(self) -> None:
        self.arena = OpArena()
        #: Per process, how many of its first writes carried ids ``(pid, 1..k)``.
        self._dense: Dict[int, int] = {}
        #: Rows of the writes recorded under any other id.
        self._sparse: Dict[WriteId, int] = {}
        self._listeners: Tuple[RowListener, ...] = ()
        #: Shared materialisation cache — one Operation identity per row.
        self.cache: adapter.OpCache = {}

    # -- subscription --------------------------------------------------------
    def subscribe(self, listener: RowListener) -> None:
        """Register ``listener`` for every subsequently recorded row."""
        self._listeners = self._listeners + (listener,)

    def unsubscribe(self, listener: RowListener) -> None:
        """Remove ``listener``; unknown listeners are ignored."""
        self._listeners = tuple(l for l in self._listeners if l is not listener)

    def _notify(self, row: int, source_row: int) -> None:
        for listener in self._listeners:  # snapshot tuple: mutation-safe
            listener(row, source_row)

    # -- recording -----------------------------------------------------------
    def record_write(
        self,
        process: int,
        variable: str,
        value: Any,
        write_id: WriteId,
        invoked_at: Optional[float] = None,
        completed_at: Optional[float] = None,
    ) -> int:
        """Record a write; returns its arena row."""
        written = len(self.arena.write_rows_of(process))
        row = self.arena.append_write(process, variable, value, invoked_at, completed_at)
        if self._dense.get(process, 0) == written and write_id == (process, written + 1):
            self._dense[process] = written + 1
        else:
            self._sparse[write_id] = row
        self._notify(row, NO_SOURCE)
        return row

    def _source_row(self, source: Optional[WriteId]) -> int:
        """Row of the write recorded under id ``source`` (``NO_SOURCE``: none)."""
        if source is None:
            return NO_SOURCE
        writer, k = source
        if 0 < k <= self._dense.get(writer, 0):
            return self.arena.write_rows_of(writer)[k - 1]
        return self._sparse.get(source, NO_SOURCE)

    def record_read(
        self,
        process: int,
        variable: str,
        value: Any,
        source: Optional[WriteId],
        invoked_at: Optional[float] = None,
        completed_at: Optional[float] = None,
    ) -> int:
        """Record a read together with the write it returned; returns its row."""
        source_row = self._source_row(source)
        row = self.arena.append_read(
            process, variable, value, source_row, invoked_at, completed_at
        )
        self._notify(row, source_row)
        return row

    def declare_process(self, process: int) -> None:
        """Ensure ``process`` appears in the history even with no operations."""
        self.arena.declare_process(process)

    # -- extraction ----------------------------------------------------------
    def history(self) -> History:
        """The recorded history, materialised through the adapter."""
        return adapter.history_from_arena(self.arena, self.cache)

    def log(self) -> Tuple[Tuple[Operation, Optional[Operation]], ...]:
        """The ``(operation, source)`` stream in recording order, materialised."""
        return adapter.log_of(self.arena, self.cache)

    @property
    def processes(self) -> Tuple[int, ...]:
        """Every process that declared itself or recorded an operation."""
        return self.arena.processes

    def operation_count(self) -> int:
        """Total number of recorded operations."""
        return len(self.arena)

    def read_from(self) -> Dict[Operation, Optional[Operation]]:
        """The exact read-from mapping of the run (protocol ground truth)."""
        return adapter.read_from_of(self.arena, self.cache)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ArenaRecorder ops={len(self.arena)} "
            f"processes={len(self.arena.processes)}>"
        )
