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
value    ``q``      interned value id (:meth:`OpArena.value_of`)
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
topological order of program order ∪ read-from).

The arena never builds an :class:`~repro.core.operations.Operation`; the
int↔object adapters live in :mod:`repro.arena.adapter` (the only module of
the package allowed to, enforced by lint rule RPR105).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

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

    Appends are O(1); the derived per-variable / per-(process, variable)
    write indices are rebuilt lazily the first time they are queried after
    an append (:meth:`_refresh`).  Values are interned by ``(type, value)``
    so equal values share one id without conflating ``0``/``False``/``0.0``;
    unhashable values are stored without deduplication.
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
        self._value_ids: Dict[Tuple[type, Any], int] = {}
        self._values: List[Any] = []
        #: interned id of ``BOTTOM`` (always present, always id 0).
        self.bottom_id = self.intern_value(BOTTOM)
        # live per-process row lists (these *are* the zero-copy views)
        self._proc_rows: Dict[int, array] = {}
        self._declared: Set[int] = set()
        # lazily rebuilt derived indices
        self._derived_at = 0
        self._write_rows: Dict[int, array] = {}
        self._write_rows_on: Dict[Tuple[int, int], List[int]] = {}
        self._writers_of: Dict[int, List[int]] = {}

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

    def intern_value(self, value: Any) -> int:
        """Interned id of ``value`` (``(type, value)``-keyed; see class doc)."""
        try:
            key = (type(value), value)
            vid = self._value_ids.get(key)
        except TypeError:  # unhashable value: store without deduplication
            vid = len(self._values)
            self._values.append(value)
            return vid
        if vid is None:
            vid = len(self._values)
            self._value_ids[key] = vid
            self._values.append(value)
        return vid

    def value_of(self, row: int) -> Any:
        """The (decoded) value written/returned by the operation at ``row``."""
        return self._values[self.value[row]]

    # -- appends -------------------------------------------------------------
    def declare_process(self, process: int) -> None:
        """Ensure ``process`` appears in the arena even with no operations."""
        self._declared.add(process)
        self._proc_rows.setdefault(process, array("q"))

    def _append(
        self,
        kind: int,
        process: int,
        variable: str,
        value: Any,
        source_row: int,
        invoked_at: Optional[float],
        completed_at: Optional[float],
    ) -> int:
        rows = self._proc_rows.get(process)
        if rows is None:
            rows = self._proc_rows.setdefault(process, array("q"))
            self._declared.add(process)
        row = len(self.kind)
        self.kind.append(kind)
        self.proc.append(process)
        self.var.append(self.intern_var(variable))
        self.value.append(self.intern_value(value))
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
        return self._append(
            KIND_WRITE, process, variable, value, NO_SOURCE, invoked_at, completed_at
        )

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
            KIND_READ, process, variable, value, source_row, invoked_at, completed_at
        )

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

    # -- derived write indices (lazy) ----------------------------------------
    def _refresh(self) -> None:
        n = len(self.kind)
        if self._derived_at == n and self._write_rows.keys() >= self._proc_rows.keys():
            return
        write_rows: Dict[int, array] = {pid: array("q") for pid in self._proc_rows}
        write_rows_on: Dict[Tuple[int, int], List[int]] = {}
        writers_of: Dict[int, Set[int]] = {}
        kind, proc, var = self.kind, self.proc, self.var
        for row in range(n):
            if kind[row] == KIND_WRITE:
                p = proc[row]
                v = var[row]
                write_rows[p].append(row)
                write_rows_on.setdefault((p, v), []).append(row)
                writers_of.setdefault(v, set()).add(p)
        self._write_rows = write_rows
        self._write_rows_on = write_rows_on
        self._writers_of = {v: sorted(ps) for v, ps in writers_of.items()}
        self._derived_at = n

    def write_rows_of(self, process: int) -> Sequence[int]:
        """Rows of ``process``' writes, in program order."""
        self._refresh()
        return self._write_rows.get(process, ())

    def write_rows_on(self, process: int, vid: int) -> Sequence[int]:
        """Rows of ``process``' writes on variable id ``vid``, program order."""
        self._refresh()
        return self._write_rows_on.get((process, vid), ())

    def writers_of(self, vid: int) -> Sequence[int]:
        """Sorted process ids that wrote variable id ``vid``."""
        self._refresh()
        return self._writers_of.get(vid, ())

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
        self._refresh()
        columns = self.column_bytes()
        view_bytes = sum(len(rows) * rows.itemsize for rows in self._proc_rows.values())
        index_bytes = sum(
            len(rows) * rows.itemsize for rows in self._write_rows.values()
        ) + sum(8 * len(rows) for rows in self._write_rows_on.values())
        writes = sum(len(rows) for rows in self._write_rows.values())
        return {
            "operations": len(self.kind),
            "writes": writes,
            "reads": len(self.kind) - writes,
            "processes": len(self._proc_rows),
            "variables": len(self._var_names),
            "distinct_values": len(self._values),
            "column_bytes": columns,
            "column_bytes_total": sum(columns.values()),
            "view_bytes": view_bytes,
            "derived_index_bytes": index_bytes,
            "estimated_bytes": sum(columns.values()) + view_bytes + index_bytes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<OpArena ops={len(self.kind)} processes={len(self._proc_rows)} "
            f"variables={len(self._var_names)}>"
        )
