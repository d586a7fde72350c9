"""int ↔ object adapters between :class:`OpArena` rows and ``Operation``\\ s.

This is the **only** module of :mod:`repro.arena` that builds
:class:`~repro.core.operations.Operation` objects (lint rule RPR105 enforces
it): everything else in the package works on row integers, and callers that
need the object API — ``history()``, ``read_from()``, witnesses, the object
checker of a non-columnar criterion — go through the functions below,
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
from heapq import heappop, heappush
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

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


def history_from_arena(
    arena: OpArena, cache: OpCache, universe: Iterable[int] = ()
) -> History:
    """Materialise the whole arena as a :class:`History`.

    Declared-but-silent processes, and those of ``universe``, get empty
    local histories, mirroring :meth:`repro.mcs.recorder.HistoryRecorder.history`.
    A cached operation whose ``index`` is not its row's (a served window
    evicted part of its process) enters as a copy at the row's index: same
    ``uid``, so equal to the original.
    """
    materialize_prefix(arena, len(arena), cache)
    ops: Dict[int, List[Operation]] = {pid: [] for pid in (*arena.processes, *universe)}
    index = arena.index
    for row in range(len(arena)):
        op = cache[row]
        if op.index != index[row]:
            op = replace(op, index=index[row])
        ops[arena.proc[row]].append(op)
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


def log_of(
    arena: OpArena, cache: OpCache
) -> Tuple[Tuple[Operation, Optional[Operation]], ...]:
    """The ``(operation, source)`` stream in recording order, materialised."""
    materialize_prefix(arena, len(arena), cache)
    kind, source = arena.kind, arena.source
    return tuple(
        (cache[row], None if kind[row] == KIND_WRITE or src == NO_SOURCE else cache[src])
        for row, src in enumerate(source)
    )


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
    read_from: Optional[Mapping[Operation, Optional[Operation]]] = None,
    cache: Optional[OpCache] = None,
) -> Optional[OpArena]:
    """Columnarise an object :class:`History`, every source before its reads.

    Operations are appended in a topological order of program order ∪
    read-from (:func:`topological_order`), so each process' rows keep
    program order and the ``index`` column equals ``op.index``.  A history
    whose uid order already extends both relations — every recorded,
    materialised or replayed one — keeps that order.  Read sources come from ``read_from``
    (inferred from values when omitted).  An empty ``cache``, when given, is
    filled with ``{row: op}``, so consumers materialise the caller's own
    operations.

    Returns ``None`` when no such arena exists: program order ∪ read-from is
    cyclic, or ``read_from`` maps a read to something that is not a write of
    the history on the read's variable.
    """
    rf = history.read_from() if read_from is None else read_from
    for read in history.reads:
        writer = rf.get(read)
        if writer is not None and (
            not writer.is_write or writer.variable != read.variable or writer not in history
        ):
            return None
    arena = OpArena()
    for pid in history.processes:
        arena.declare_process(pid)
    order = topological_order([history.local(pid).operations for pid in history.processes], rf)
    if order is None:
        return None
    rows: Dict[Operation, int] = {}
    for op in order:
        if op.is_write:
            row = rows[op] = arena.append_write(
                op.process, op.variable, op.value, op.invoked_at, op.completed_at
            )
        else:
            writer = rf.get(op)
            row = arena.append_read(
                op.process, op.variable, op.value,
                NO_SOURCE if writer is None else rows[writer],
                op.invoked_at, op.completed_at,
            )
        if cache is not None:
            cache[row] = op
    return arena


def topological_order(
    lines: Sequence[Sequence[Operation]],
    read_from: Mapping[Operation, Optional[Operation]],
) -> Optional[List[Operation]]:
    """The operations of ``lines`` (one per process, in program order) in a
    topological order of program order ∪ read-from: Kahn's algorithm over
    per-process cursors, smallest ``uid`` first among the ready operations.
    ``None`` when there is none: a cycle, or a read whose writer is in no
    line."""
    cursor = [0] * len(lines)
    placed: Set[Operation] = set()
    order: List[Operation] = []
    ready: List[Tuple[int, int]] = []
    blocked: Dict[Operation, List[int]] = {}

    def offer(line: int) -> None:
        if cursor[line] < len(lines[line]):
            op = lines[line][cursor[line]]
            writer = read_from.get(op) if op.is_read else None
            if writer is None or writer in placed:
                heappush(ready, (op.uid, line))
            else:
                blocked.setdefault(writer, []).append(line)

    for line in range(len(lines)):
        offer(line)
    while ready:
        _, line = heappop(ready)
        op = lines[line][cursor[line]]
        cursor[line] += 1
        order.append(op)
        if op.is_write:
            placed.add(op)
            for waiting in blocked.pop(op, ()):
                heappush(ready, (lines[waiting][cursor[waiting]].uid, waiting))
        offer(line)
    return order if len(order) == sum(map(len, lines)) else None
