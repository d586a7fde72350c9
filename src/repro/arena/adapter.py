"""int ↔ object adapters between :class:`OpArena` rows and ``Operation``\\ s.

This is the **only** module of :mod:`repro.arena` that builds
:class:`~repro.core.operations.Operation` objects (lint rule RPR105 enforces
it): everything else in the package works on row integers, and callers that
need the object API — ``history()``, ``read_from()``, witnesses, the inner
object checker of a non-columnar criterion — go through the functions below,
or, for witnesses, :class:`Witnesses`.

Materialisation is cached per arena consumer (a plain ``{row: Operation}``
dict) so object identity stays consistent across calls, and it always
proceeds in **row order** (:func:`materialize_prefix`): ``Operation.uid``\\ s
are allocated at construction time, so materialising in recording order
reproduces exactly the relative uid order the object engine would have
produced — the recording order both engines' witness emission rule
follows, so witnesses built from materialised rows are label-identical.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..core.history import History
from ..core.operations import Operation, OpKind
from .store import KIND_WRITE, NO_SOURCE, OpArena

#: Materialisation cache: row -> Operation.
OpCache = Dict[int, Operation]


def materialize_prefix(arena: OpArena, upto: int, cache: OpCache) -> None:
    """Materialise rows ``[0, upto)`` (row order) into ``cache``.

    Idempotent; rows already present are kept (identity preservation).  The
    cache is always a row prefix — this function is its only writer and
    appends in row order — so rows ``[0, len(cache))`` are present and
    materialisation resumes at ``len(cache)``: a run materialised one row at
    a time costs O(rows) in total.
    """
    kind, proc, var, value, index = (
        arena.kind, arena.proc, arena.var, arena.value, arena.index,
    )
    invoked, completed = arena.invoked, arena.completed
    for row in range(len(cache), upto):
        inv = invoked[row]
        comp = completed[row]
        cache[row] = Operation(
            OpKind.WRITE if kind[row] == KIND_WRITE else OpKind.READ,
            proc[row],
            arena.var_name(var[row]),
            arena._values[value[row]],
            index[row],
            invoked_at=None if inv != inv else inv,
            completed_at=None if comp != comp else comp,
        )


def materialize_row(arena: OpArena, row: int, cache: OpCache) -> Operation:
    """The ``Operation`` at ``row`` (materialising the prefix up to it)."""
    op = cache.get(row)
    if op is None:
        materialize_prefix(arena, row + 1, cache)
        op = cache[row]
    return op


def history_from_arena(arena: OpArena, cache: OpCache) -> History:
    """Materialise the whole arena as a :class:`History`.

    Declared-but-silent processes get empty local histories, mirroring
    :meth:`repro.mcs.recorder.HistoryRecorder.history`.
    """
    materialize_prefix(arena, len(arena), cache)
    ops: Dict[int, List[Operation]] = {pid: [] for pid in arena.processes}
    for row in range(len(arena)):
        ops[arena.proc[row]].append(cache[row])
    return History(ops)


def read_from_of(arena: OpArena, cache: OpCache) -> Dict[Operation, Optional[Operation]]:
    """The exact read-from mapping, materialised (reads -> writer or ``None``)."""
    materialize_prefix(arena, len(arena), cache)
    mapping: Dict[Operation, Optional[Operation]] = {}
    kind, source = arena.kind, arena.source
    for row in range(len(arena)):
        if kind[row] == KIND_WRITE:
            continue
        src = source[row]
        mapping[cache[row]] = cache[src] if src != NO_SOURCE else None
    return mapping


def stream_of(
    arena: OpArena, start: int, cache: OpCache
) -> Iterator[Tuple[Operation, Optional[Operation]]]:
    """The ``(operation, source)`` stream from row ``start`` on, in recording
    order, materialised."""
    materialize_prefix(arena, len(arena), cache)
    kind, source = arena.kind, arena.source
    for row in range(start, len(arena)):
        src = source[row]
        yield cache[row], (
            cache[src] if kind[row] != KIND_WRITE and src != NO_SOURCE else None
        )


def log_of(
    arena: OpArena, cache: OpCache
) -> Tuple[Tuple[Operation, Optional[Operation]], ...]:
    """The ``(operation, source)`` stream in recording order, materialised."""
    return tuple(stream_of(arena, 0, cache))


class Witnesses(Mapping[int, List[Operation]]):
    """Read-only ``{pid: witness}`` of one arena check, materialised per view.

    Each view's witness is kept as an ``array('i')`` of rows (4 bytes per
    operation); the first ``[pid]`` materialises it through the shared cache
    and memoises the list, so its entries are the same objects as the
    history's.  Equal to a plain dict with the same items (``Mapping.__eq__``).
    """

    def __init__(self, arena: OpArena, schedules: Dict[int, array], cache: OpCache) -> None:
        self._arena = arena
        self._schedules = schedules
        self._cache = cache
        self._built: Dict[int, List[Operation]] = {}

    def __getitem__(self, pid: int) -> List[Operation]:
        built = self._built.get(pid)
        if built is None:
            schedule = self._schedules[pid]
            materialize_prefix(self._arena, len(self._arena), self._cache)
            cache = self._cache
            built = self._built[pid] = [cache[row] for row in schedule]
        return built

    def __iter__(self) -> Iterator[int]:
        return iter(self._schedules)

    def __len__(self) -> int:
        return len(self._schedules)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Witnesses views={sorted(self._schedules)}>"


def arena_from_history(
    history: History,
    read_from: Optional[Dict[Operation, Optional[Operation]]] = None,
) -> OpArena:
    """Columnarise an existing object :class:`History` (tests, ``arena info``).

    Operations are appended in history order (process-sorted, then program
    order) so the per-process ``index`` column matches ``op.index``; read
    sources resolve through ``read_from`` (inferred from values when omitted)
    and are patched in afterwards, so they may point at *later* rows — unlike
    a live-recorded arena, where sources always precede their reads.
    """
    rf = history.read_from() if read_from is None else read_from
    arena = OpArena()
    rows: Dict[Operation, int] = {}
    for pid in history.processes:
        arena.declare_process(pid)
    pending: List[Tuple[int, Operation]] = []
    for op in history.operations:
        if op.is_write:
            rows[op] = arena.append_write(
                op.process, op.variable, op.value, op.invoked_at, op.completed_at
            )
        else:
            row = arena.append_read(
                op.process, op.variable, op.value, NO_SOURCE,
                op.invoked_at, op.completed_at,
            )
            pending.append((row, op))
    for row, op in pending:
        writer = rf.get(op)
        if writer is not None:
            arena.source[row] = rows[writer]
    return arena
