"""Columnar struct-of-arrays storage for operation histories.

The object engine represents every recorded operation as an immutable
:class:`~repro.core.operations.Operation` — convenient, but at 10^5–10^6
operations the per-object overhead (allocation, attribute dictionaries, uid
bookkeeping, hashing) dominates both time and memory.  :class:`OpArena`
stores the same information as parallel *typed* arrays (stdlib
:mod:`array`):

======== ========== =====================================================
column   typecode   meaning
======== ========== =====================================================
kind     ``b``      ``KIND_WRITE`` (0) or ``KIND_READ`` (1)
proc     ``q``      invoking process id
var      ``q``      interned variable id (:meth:`OpArena.var_name`)
value    ``q``      value slot (:meth:`OpArena.value_of`)
index    ``q``      position in the invoking process' local history
source   ``q``      row of the write a read returned, ``NO_SOURCE`` for ⊥
invoked  ``d``      invocation timestamp (``nan`` = unknown)
completed``d``      response timestamp (``nan`` = unknown)
======== ========== =====================================================

A *row* is the operation's position in recording order, which extends
every process' program order and every read-from pair: per-process row
lists are sorted by program order, and :meth:`OpArena.append_read` accepts
only a source row that is an earlier write (a live recorder appends in
delivery order; :func:`~repro.arena.adapter.arena_from_history` in a
topological order of program order ∪ read-from).  :meth:`OpArena.keep`
drops and reorders rows under the same rule: a served window compacts its
arena with it.

The arena never builds an :class:`~repro.core.operations.Operation`; the
int↔object adapters live in :mod:`repro.arena.adapter` (the only module of
the package allowed to, enforced by lint rule RPR105).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.operations import BOTTOM
from ..exceptions import InvalidHistoryError

#: ``kind`` column values.
KIND_WRITE = 0
KIND_READ = 1

#: ``source`` column value for writes and for reads returning ⊥.
NO_SOURCE = -1

_NAN = float("nan")


class OpArena:
    """Struct-of-arrays store for the operations of one run.

    Appends are O(1) and keep two row indices live: each process' rows and
    each process' write rows, both in program order.  The per-variable
    write indices (:meth:`write_rows_on`, :meth:`writers_of`) are computed
    on demand from the latter.  Values are kept in one list of slots: a
    write takes a new slot, a read shares its source write's slot when it
    returns an equal value of the same type (as every protocol's reads do),
    ⊥ has slot 0, and any other read value takes a new slot.  No value is
    looked up, so recording keeps no object per value beyond the list entry.
    """

    def __init__(self) -> None:
        self.kind = array("b")
        self.proc = array("q")
        self.var = array("q")
        self.value = array("q")
        self.index = array("q")
        self.source = array("q")
        self.invoked = array("d")
        self.completed = array("d")
        # interning tables
        self._var_ids: Dict[str, int] = {}
        self._var_names: List[str] = []
        self._values: List[Any] = [BOTTOM]
        #: slot of ``BOTTOM`` (always present, always slot 0).
        self.bottom_id = 0
        # live per-process row lists (these *are* the zero-copy views)
        self._proc_rows: Dict[int, array] = {}
        self._write_rows: Dict[int, array] = {}

    # -- interning -----------------------------------------------------------
    def intern_var(self, variable: str) -> int:
        """Interned id of ``variable`` (allocating one on first sight)."""
        vid = self._var_ids.get(variable)
        if vid is None:
            vid = len(self._var_names)
            self._var_ids[variable] = vid
            self._var_names.append(variable)
        return vid

    def var_name(self, vid: int) -> str:
        """Variable name for an interned id."""
        return self._var_names[vid]

    def lookup_var(self, variable: str) -> Optional[int]:
        """Interned id of ``variable`` or ``None`` when never accessed."""
        return self._var_ids.get(variable)

    def _new_slot(self, value: Any) -> int:
        self._values.append(value)
        return len(self._values) - 1

    def value_of(self, row: int) -> Any:
        """The (decoded) value written/returned by the operation at ``row``."""
        return self._values[self.value[row]]

    # -- appends -------------------------------------------------------------
    def declare_process(self, process: int) -> None:
        """Ensure ``process`` appears in the arena even with no operations."""
        self._proc_rows.setdefault(process, array("q"))

    def _append(
        self,
        kind: int,
        process: int,
        variable: str,
        slot: int,
        source_row: int,
        invoked_at: Optional[float],
        completed_at: Optional[float],
    ) -> int:
        rows = self._proc_rows.get(process)
        if rows is None:
            rows = self._proc_rows[process] = array("q")
        row = len(self.kind)
        self.kind.append(kind)
        self.proc.append(process)
        self.var.append(self.intern_var(variable))
        self.value.append(slot)
        self.index.append(len(rows))
        self.source.append(source_row)
        self.invoked.append(_NAN if invoked_at is None else invoked_at)
        self.completed.append(_NAN if completed_at is None else completed_at)
        rows.append(row)
        return row

    def append_write(
        self,
        process: int,
        variable: str,
        value: Any,
        invoked_at: Optional[float] = None,
        completed_at: Optional[float] = None,
    ) -> int:
        """Append a write; returns its row."""
        row = self._append(
            KIND_WRITE, process, variable, self._new_slot(value), NO_SOURCE,
            invoked_at, completed_at,
        )
        writes = self._write_rows.get(process)
        if writes is None:
            writes = self._write_rows[process] = array("q")
        writes.append(row)
        return row

    def append_read(
        self,
        process: int,
        variable: str,
        value: Any,
        source_row: int = NO_SOURCE,
        invoked_at: Optional[float] = None,
        completed_at: Optional[float] = None,
    ) -> int:
        """Append a read resolved to ``source_row`` (``NO_SOURCE`` for ⊥).

        Raises :class:`~repro.exceptions.InvalidHistoryError` unless
        ``source_row`` is ``NO_SOURCE`` or an earlier write row.
        """
        if source_row != NO_SOURCE and not (
            0 <= source_row < len(self.kind) and self.kind[source_row] == KIND_WRITE
        ):
            raise InvalidHistoryError(
                f"read of {variable} by p{process} names source row {source_row}, "
                f"which is not an earlier write row (the arena holds {len(self.kind)} rows)"
            )
        return self._append(
            KIND_READ, process, variable, self._read_slot(value, source_row), source_row,
            invoked_at, completed_at,
        )

    def _read_slot(self, value: Any, source_row: int) -> int:
        """A read's value slot: its source write's when it returns an equal
        value of the same type, ⊥'s for ⊥, else a new one."""
        if source_row != NO_SOURCE:
            slot = self.value[source_row]
            written = self._values[slot]
            if value is written or (type(value) is type(written) and value == written):
                return slot
        return self.bottom_id if value is BOTTOM else self._new_slot(value)

    def keep(self, rows: Sequence[int]) -> None:
        """Keep only ``rows``, in that order, with one copy per column.

        The order must keep each process' rows in program order and put every
        read's source before it.  ``index`` is renumbered, value slots are
        packed, and every process stays declared.
        """
        # moved[old row] = new row; moved[NO_SOURCE] is the spare last slot
        moved = array("q", [NO_SOURCE]) * (len(self.kind) + 1)
        for new, old in enumerate(rows):
            moved[old] = new
        slots = {self.bottom_id: self.bottom_id}
        for row in rows:
            slots.setdefault(self.value[row], len(slots))
        self._values = [self._values[slot] for slot in slots]
        kind = [self.kind[row] for row in rows]
        proc = [self.proc[row] for row in rows]
        self.kind, self.proc = array("b", kind), array("q", proc)
        self.var = array("q", [self.var[row] for row in rows])
        self.value = array("q", [slots[self.value[row]] for row in rows])
        self.source = array("q", [moved[self.source[row]] for row in rows])
        self.invoked = array("d", [self.invoked[row] for row in rows])
        self.completed = array("d", [self.completed[row] for row in rows])
        self._proc_rows = {pid: array("q") for pid in self._proc_rows}
        self._write_rows = {pid: array("q") for pid in self._write_rows}
        self.index = array("q")
        for row, pid in enumerate(proc):
            own = self._proc_rows[pid]
            self.index.append(len(own))
            own.append(row)
            if kind[row] == KIND_WRITE:
                self._write_rows[pid].append(row)

    # -- basic accessors -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.kind)

    @property
    def processes(self) -> Tuple[int, ...]:
        """Every process that declared itself or appended an operation."""
        return tuple(sorted(self._proc_rows))

    def rows_of(self, process: int) -> Sequence[int]:
        """Rows of ``process``' operations, in program order (zero-copy)."""
        return self._proc_rows.get(process, ())

    def is_write(self, row: int) -> bool:
        return self.kind[row] == KIND_WRITE

    def timestamp(self, column: array, row: int) -> Optional[float]:
        """Timestamp at ``row`` of ``column`` with ``nan`` decoded to ``None``."""
        ts = column[row]
        return None if ts != ts else ts

    def label(self, row: int) -> str:
        """The operation's paper-notation label, identical to ``Operation.label()``."""
        tag = "w" if self.kind[row] == KIND_WRITE else "r"
        return (
            f"{tag}{self.proc[row]}({self._var_names[self.var[row]]})"
            f"{self._values[self.value[row]]!r}"
        )

    # -- write indices -------------------------------------------------------
    def write_rows_of(self, process: int) -> Sequence[int]:
        """Rows of ``process``' writes, in program order (zero-copy)."""
        return self._write_rows.get(process, ())

    def write_rows_on(self, process: int, vid: int) -> List[int]:
        """Rows of ``process``' writes on variable id ``vid``, program order."""
        var = self.var
        return [row for row in self.write_rows_of(process) if var[row] == vid]

    def writers_of(self, vid: int) -> List[int]:
        """Sorted process ids that wrote variable id ``vid``."""
        var = self.var
        return [
            pid for pid, rows in sorted(self._write_rows.items())
            if any(var[row] == vid for row in rows)
        ]

    # -- accounting ----------------------------------------------------------
    _COLUMNS = ("kind", "proc", "var", "value", "index", "source", "invoked", "completed")

    def column_bytes(self) -> Dict[str, int]:
        """Per-column payload size in bytes."""
        return {
            name: len(getattr(self, name)) * getattr(self, name).itemsize
            for name in self._COLUMNS
        }

    def stats(self) -> Dict[str, Any]:
        """Size/occupancy digest (the payload of ``repro arena info``)."""
        columns = self.column_bytes()
        view_bytes = sum(len(rows) * rows.itemsize for rows in self._proc_rows.values())
        index_bytes = sum(len(rows) * rows.itemsize for rows in self._write_rows.values())
        writes = sum(len(rows) for rows in self._write_rows.values())
        return {
            "operations": len(self.kind),
            "writes": writes,
            "reads": len(self.kind) - writes,
            "processes": len(self._proc_rows),
            "variables": len(self._var_names),
            "distinct_values": self._distinct_values(),
            "column_bytes": columns,
            "column_bytes_total": sum(columns.values()),
            "view_bytes": view_bytes,
            "derived_index_bytes": index_bytes,
            "estimated_bytes": sum(columns.values()) + view_bytes + index_bytes,
        }

    def _distinct_values(self) -> int:
        """Distinct stored values, told apart by ``(type, value)`` so that
        ``0``/``False``/``0.0`` stay apart; each unhashable value counts once."""
        keys = set()
        unhashable = 0
        for value in self._values:
            try:
                keys.add((type(value), value))
            except TypeError:
                unhashable += 1
        return len(keys) + unhashable

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<OpArena ops={len(self.kind)} processes={len(self._proc_rows)} "
            f"variables={len(self._var_names)}>"
        )
