"""Introspection for ``repro arena info``: sizes, edge counts, memory estimates.

Everything here works on arena columns and row integers: no ``Operation`` is
ever materialised and no relation is built, so the numbers reflect what the
arena engine actually allocates at scale.
"""

from __future__ import annotations

from typing import Any, Dict

from .store import KIND_WRITE, NO_SOURCE, OpArena

#: Rough per-``Operation`` footprint of the object engine (frozen dataclass
#: with eight fields + per-process list slot + uid bookkeeping), used only
#: for the comparison line of ``repro arena info``.
OBJECT_OP_BYTES = 360


def causal_generating_edges(arena: OpArena) -> int:
    """Edge count of the causal *generating* relation (program ∪ read-from
    covering edges) over the rows: one program-order edge per operation with
    a predecessor in its process, plus each read-from edge that is not also
    that program-order edge."""
    proc, kind, source = arena.proc, arena.kind, arena.source
    last: Dict[int, int] = {}
    edges = 0
    for row in range(len(kind)):
        prev = last.get(proc[row])
        if prev is not None:
            edges += 1
        last[proc[row]] = row
        if kind[row] != KIND_WRITE and source[row] not in (NO_SOURCE, row, prev):
            edges += 1
    return edges


def arena_info(arena: OpArena) -> Dict[str, Any]:
    """The payload of ``repro arena info``: :meth:`OpArena.stats` plus the
    estimated object-engine footprint for the same history and the causal
    generating edge count."""
    stats = arena.stats()
    stats["object_engine_estimated_bytes"] = stats["operations"] * OBJECT_OP_BYTES
    stats["causal_generating_edges"] = causal_generating_edges(arena)
    return stats


def format_info(stats: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`arena_info` (one ``key: value`` per
    line)."""
    return "\n".join([
        f"operations:       {stats['operations']}"
        f" ({stats['writes']} writes, {stats['reads']} reads)",
        f"processes:        {stats['processes']}",
        f"variables:        {stats['variables']}",
        f"distinct values:  {stats['distinct_values']}",
        f"column bytes:     {stats['column_bytes_total']}",
        f"view bytes:       {stats['view_bytes']}",
        f"derived indexes:  {stats['derived_index_bytes']}",
        f"estimated total:  {stats['estimated_bytes']}"
        f" (object engine ≈ {stats['object_engine_estimated_bytes']})",
        f"causal edges:     {stats['causal_generating_edges']} generating",
    ])
