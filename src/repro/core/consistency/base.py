"""Consistency-checker framework.

A *consistency criterion* defines which histories a memory may admit.  The
criteria studied in the paper (causal, lazy causal, lazy semi-causal, PRAM,
slow) all have the same shape — Definition 2, 7, 10, 12:

    a history ``H`` is *X-consistent* iff for each application process
    ``ap_i`` there exists a serialization ``S_i`` of ``H_{i+w}`` that respects
    the criterion's order relation.

:class:`PerProcessChecker` implements that shape generically, parameterised by
the relation builder from :mod:`repro.core.orders`.  Global criteria
(sequential consistency, atomicity) require a *single* serialization of the
whole history and are implemented in their own modules on top of the same
search machinery.

Each check returns a :class:`CheckResult` carrying the verdict, the witness
serializations (when consistent) and the violations found (when not), so the
tests and the figure-reproduction code can assert not only *whether* a history
is consistent but *why*.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ...exceptions import SearchBudgetError, WitnessError
from ..history import History
from ..operations import Operation
from ..orders import Relation
from ..serialization import SerializationProblem

ReadFrom = Mapping[Operation, Optional[Operation]]


def check_view(
    pid: int, view: Sequence[Operation], relation: Relation, read_from: ReadFrom, exact: bool
) -> Tuple[List[str], Optional[List[Operation]], bool]:
    """Check one per-process view (``pid`` ``-1``: the whole history).

    Returns ``(violations, witness, exact)``.  The polynomial bad-pattern
    pre-check always runs first; when it finds nothing and ``exact`` is set,
    :meth:`SerializationProblem.solve` decides the view — by saturation when
    its reads form a chain (every causal and PRAM view), by the backtracking
    search otherwise; a search past its state budget leaves the pre-check's
    verdict with ``exact`` ``False``.
    """
    problem = SerializationProblem(view, relation, read_from, owner=pid)
    violations = problem.quick_violations()
    if violations:
        return violations, None, True
    if not exact:
        return [], None, False
    try:
        return [], problem.solve(), True
    except SearchBudgetError:
        return [], None, False


@dataclass
class CheckResult:
    """Outcome of a consistency check.

    Attributes
    ----------
    criterion:
        Name of the criterion checked (``"causal"``, ``"pram"``, ...).
    consistent:
        The verdict.  When ``exact`` is ``False`` a ``True`` verdict only
        means *no violation was found by the polynomial pre-check* — which
        runs at every view size; a ``False`` verdict is always a proof.
    exact:
        Whether the verdict was established exactly — ``False`` also when the
        search of some view ran past its state budget.
    serializations:
        For per-process criteria: a witness serialization of ``H_{i+w}`` per
        process.  For global criteria: a single witness under key ``-1``.
        The object checkers fill a plain dict; an arena check returns a
        read-only :class:`~repro.arena.adapter.Witnesses` mapping that keeps
        each witness as rows and builds its operations on first access.
    violations:
        Human-readable descriptions of why the history is not consistent.
    """

    criterion: str
    consistent: bool
    exact: bool = True
    serializations: Mapping[int, List[Operation]] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.consistent

    def witness(self, process: int = -1) -> List[Operation]:
        """Witness serialization for ``process`` (or the global one, key ``-1``).

        Raises a :class:`~repro.exceptions.WitnessError` (a :class:`KeyError`
        subclass) with an explanatory message when no witness was recorded
        for ``process``.  In particular, checks run with ``exact=False``
        never record witnesses: such a ``True`` verdict is a *heuristic* one
        — the polynomial bad-pattern pre-check found no violation — and
        carries no serialization proving consistency.
        """
        try:
            return self.serializations[process]
        except KeyError:
            available = sorted(self.serializations)
            if not self.exact:
                hint = ("the check ran with exact=False (heuristic verdict), "
                        "which records no witness serializations")
            elif not self.consistent:
                hint = "the history is not consistent, so no witness exists"
            elif available:
                hint = f"witnesses were recorded for processes {available}"
            else:
                hint = "no witness serializations were recorded"
            raise WitnessError(
                f"no witness serialization for process {process} "
                f"(criterion {self.criterion!r}): {hint}"
            ) from None

    def summary(self) -> str:
        """One-line summary used by the reproduction reports."""
        verdict = "CONSISTENT" if self.consistent else "NOT consistent"
        mode = "exact" if self.exact else "heuristic"
        return f"{self.criterion}: {verdict} ({mode})"


class ConsistencyChecker(abc.ABC):
    """Common interface of every consistency checker."""

    #: Name of the criterion, e.g. ``"causal"``.
    name: str = "abstract"

    @abc.abstractmethod
    def check(
        self,
        history: History,
        read_from: Optional[ReadFrom] = None,
        exact: bool = True,
    ) -> CheckResult:
        """Check ``history`` against the criterion.

        Parameters
        ----------
        history:
            The history to check.
        read_from:
            Optional explicit read-from mapping; inferred from values when
            omitted (requires a differentiated history).
        exact:
            When ``True`` (default) decide every view exactly (saturation, or
            the backtracking search); when ``False`` only run the polynomial
            bad-pattern pre-check, which can prove inconsistency but not
            consistency.  The pre-check runs at *every* view size (historically
            views above an internal limit skipped it, silently turning
            ``exact=False`` checks into no-ops).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} criterion={self.name!r}>"


class PerProcessChecker(ConsistencyChecker):
    """Checker for criteria of the per-process serialization shape.

    Parameters
    ----------
    relation_builder:
        Callable ``(history, read_from) -> Relation`` producing the order the
        serializations must respect (e.g. :func:`repro.core.orders.causal_order`).
    name:
        Criterion name.

    The polynomial bad-pattern pre-check runs on every per-process view,
    whatever its size.  The relation is built — and, for the causal family,
    closed — once per check; each view restricts it and probes the
    restriction's reachability rows in integers, which for a closure are the
    restricted rows themselves (no second closure, no acyclicity pass) and
    otherwise one lazily cached SCC pass.  A ``False`` verdict is therefore
    always an exact proof, even under ``exact=False``.
    """

    def __init__(
        self,
        relation_builder: Callable[[History, Optional[ReadFrom]], Relation],
        name: str,
    ):
        self._builder = relation_builder
        self.name = name

    def relation(self, history: History, read_from: Optional[ReadFrom] = None) -> Relation:
        """The criterion's order relation over ``history``."""
        return self._builder(history, read_from)

    def check(
        self,
        history: History,
        read_from: Optional[ReadFrom] = None,
        exact: bool = True,
    ) -> CheckResult:
        """Check every per-process view of ``history``."""
        rf = history.read_from() if read_from is None else read_from
        relation = self._builder(history, rf)
        serializations: Dict[int, List[Operation]] = {}
        result = CheckResult(criterion=self.name, consistent=True, exact=exact,
                             serializations=serializations)
        decided = True
        for pid in history.processes:
            violations, witness, view_exact = check_view(
                pid, history.sub_history_plus_writes(pid), relation, rf, exact)
            if violations:
                result.consistent = False
                result.violations.extend(f"p{pid}: {v}" for v in violations)
            elif not view_exact:
                decided = False
            elif witness is None:
                result.consistent = False
                result.violations.append(
                    f"p{pid}: no legal serialization of H_{{{pid}+w}} respects {relation.name}"
                )
            else:
                serializations[pid] = witness
        # a violation is always a proof; a clean verdict is exact only if
        # every view was decided
        result.exact = not result.consistent or decided
        return result


def run_global_check(
    name: str,
    history: History,
    relation: Relation,
    read_from: ReadFrom,
    exact: bool,
    failure_message: str,
) -> CheckResult:
    """Shared body of the single-witness criteria (sequential, atomic).

    One legal serialization of the *whole* history must respect ``relation``:
    :func:`check_view` on the whole history, whose witness, when found, is
    recorded under key ``-1``.
    """
    violations, witness, decided = check_view(
        -1, history.operations, relation, read_from, exact)
    result = CheckResult(criterion=name, consistent=not violations, exact=decided,
                         violations=list(violations))
    if decided and not violations:
        if witness is None:
            result.consistent = False
            result.violations.append(failure_message)
        else:
            result.serializations = {-1: witness}
    return result

