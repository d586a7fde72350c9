"""Columnar struct-of-arrays history engine: how every history-keeping
:class:`repro.api.Session` records and checks its run.

The arena engine stores a run's operations as parallel int-typed columns
(:class:`~repro.arena.store.OpArena`) shared by the recorder, the checkers
and the report — instead of one :class:`~repro.core.operations.Operation`
object per call.  See ``docs/API.md`` ("Scaling: the arena engine").

Layout:

- :mod:`repro.arena.store`    — the columns (:class:`OpArena`)
- :mod:`repro.arena.recorder` — :class:`ArenaRecorder`, the drop-in
  ``HistoryRecorder`` replacement protocols write into
- :mod:`repro.arena.check`    — :class:`ArenaBatchChecker`, incremental
  consistency checking straight off the columns
- :mod:`repro.arena.adapter`  — the *only* module that materialises
  ``Operation`` objects (lint rule RPR105)
- :mod:`repro.arena.info`     — ``repro arena info`` introspection
"""

from .adapter import arena_from_history, history_from_arena
from .check import COLUMNAR_CRITERIA, ArenaBatchChecker
from .info import arena_info, format_info
from .recorder import ArenaRecorder
from .store import KIND_READ, KIND_WRITE, NO_SOURCE, OpArena

__all__ = [
    "ArenaBatchChecker",
    "ArenaRecorder",
    "COLUMNAR_CRITERIA",
    "KIND_READ",
    "KIND_WRITE",
    "NO_SOURCE",
    "OpArena",
    "arena_from_history",
    "arena_info",
    "format_info",
    "history_from_arena",
]
