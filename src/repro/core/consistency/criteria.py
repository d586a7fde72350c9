"""Concrete per-process consistency checkers (paper, Definitions 2, 7, 10, 12).

Each checker instantiates :class:`~repro.core.consistency.base.PerProcessChecker`
with the relation of the corresponding criterion:

* :class:`CausalChecker` — causality order ``->_co`` (Ahamad et al. [3]).
* :class:`LazyCausalChecker` — lazy causality ``->_lco`` (Definition 6/7).
* :class:`LazySemiCausalChecker` — lazy semi-causality ``->_lsc`` (Definition 9/10).
* :class:`PRAMChecker` — the PRAM relation ``->_pram`` (Definition 11/12,
  Lipton & Sandberg [13]).
* :class:`SlowChecker` — the slow-memory relation (Sinha [16]), weaker than PRAM.

:class:`CausalChecker` and :class:`PRAMChecker` decide an object history on
the arena (:class:`ColumnarChecker`).  Every check that already has an arena
— a session's, a served window's — is
:class:`~repro.arena.check.ArenaBatchChecker`'s, which runs these checkers
on the materialised rows for every other criterion.

The strength ordering (causal ⊃ lazy causal ⊃ lazy semi-causal ⊃ PRAM ⊃ slow,
where "⊃" reads "admits fewer histories than") is verified by the property
tests in ``tests/core/test_consistency_hierarchy.py``.
"""

from __future__ import annotations

from typing import Optional

from ..history import History
from ..orders import (
    causal_order,
    lazy_causal_order,
    lazy_semi_causal_order,
    pram_generating_order,
    slow_relation,
)
from .base import CheckResult, PerProcessChecker, ReadFrom


class ColumnarChecker(PerProcessChecker):
    """A per-process criterion that :class:`~repro.arena.check.ArenaBatchChecker`
    decides over arena columns.

    :meth:`check` appends the history to an arena in a topological order of
    program order ∪ read-from (:func:`~repro.arena.adapter.arena_from_history`)
    and closes it with the columnar batch check; the witnesses and the
    violation strings are the caller's own operations.  Two inputs keep the
    object path of
    :meth:`PerProcessChecker.check`: a program-order ∪ read-from cycle (a
    PRAM history may have one) and a read-from map naming a writer that is
    not a write of the history on the read's variable.
    """

    def check(
        self,
        history: History,
        read_from: Optional[ReadFrom] = None,
        exact: bool = True,
    ) -> CheckResult:
        """Check every per-process view of ``history``."""
        from ...arena import adapter  # repro.arena.check imports this package
        from ...arena.check import ArenaBatchChecker

        rf = history.read_from() if read_from is None else read_from
        cache: adapter.OpCache = {}
        arena = adapter.arena_from_history(history, rf, cache)
        if arena is None:
            return super().check(history, rf, exact)
        return ArenaBatchChecker(self.name, arena, exact=exact, cache=cache).solved()


class CausalChecker(ColumnarChecker):
    """Causal consistency (paper, Definition 2)."""

    def __init__(self) -> None:
        super().__init__(causal_order, "causal")


class LazyCausalChecker(PerProcessChecker):
    """Lazy causal consistency (paper, Definition 7)."""

    def __init__(self) -> None:
        super().__init__(lazy_causal_order, "lazy_causal")


class LazySemiCausalChecker(PerProcessChecker):
    """Lazy semi-causal consistency (paper, Definition 10)."""

    def __init__(self) -> None:
        super().__init__(lazy_semi_causal_order, "lazy_semi_causal")


class PRAMChecker(ColumnarChecker):
    """PRAM (pipelined RAM) consistency (paper, Definition 12).

    The checker constrains serializations with the covering edges of the PRAM
    relation (program-order covering pairs plus read-from), which admit exactly
    the same serializations as the full relation while keeping the constraint
    graph linear in the history size — protocol runs record thousands of
    operations.
    """

    def __init__(self) -> None:
        super().__init__(pram_generating_order, "pram")


class SlowChecker(PerProcessChecker):
    """Slow-memory consistency (Sinha [16]; weaker than PRAM)."""

    def __init__(self) -> None:
        super().__init__(slow_relation, "slow")
