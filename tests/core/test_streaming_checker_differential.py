"""Differential test: the one incremental checker against the two it replaced.

:class:`PrefixChecker` and :class:`BatchAdapter` below are the streaming
checkers that :class:`~repro.core.consistency.incremental.WindowedChecker`
replaced, kept verbatim (apart from their imports and the bounded mode,
which left both sides) as the reference.  The merged class must reproduce
them with ``window=None``: ``exact`` ``True`` is ``BatchAdapter``, ``False``
is ``PrefixChecker``.

Inputs: the recorded log of every paper, stress, faults and apps point, the
sixty :class:`~repro.hunt.SpecSampler` runs, and one read-from mutation of
each (the generator of ``test_saturation_differential.py``).  Each input is
driven under four cadences: finalize only, ``every:1``, ``every:4`` and
geometric.  Every ``feed`` and ``check_now`` return and the ``finalize``
result must be equal: verdict, exactness, violations in order and witness
labels.

Both sides wrap the same batch checker, so its answers are shared through
:class:`SharedChecker` (a memo keyed by the checked history): the test
compares what the two streaming layers ask and how they accumulate the
answers, and pays for each distinct check once.  A per-operation cadence
re-checks the whole prefix, so the logs are cut to their first operations
per cadence (:data:`PREFIX`), and the exact search runs with a small state
budget (:data:`SEARCH_STATES`); a prefix of a recorded log is a recorded
log.
"""

import dataclasses
import heapq
import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.api import Session
from repro.core.consistency import get_checker
from repro.core.consistency.base import CheckResult, ConsistencyChecker
from repro.core.consistency import incremental
from repro.core.consistency.incremental import (
    CheckPolicy,
    IncrementalChecker,
    WindowedChecker,
    incremental_checker,
)
from repro.core.history import History
from repro.core.operations import Operation
from repro.core.serialization import SerializationProblem
from repro.experiments.suites import builtin_scenarios
from repro.hunt import SpecSampler
from repro.serve.monitor import TenantMonitor
from repro.serve.spec import TenantSpec
from repro.serve.trace import TraceMeta, TraceRecord
from stream_monitors import StreamMonitors
from test_saturation_differential import MUTATIONS, mutated


# -- the reference: the replaced checkers, verbatim ---------------------------

class PrefixChecker(IncrementalChecker):
    """Native incremental checker: stream monitors + prefix bad-pattern checks.

    ``check_now`` materialises the fed prefix as a :class:`History`, builds
    the criterion's bitset relation and runs the polynomial bad-pattern
    pre-check on every per-process view — i.e. the batch checker's
    ``exact=False`` mode, restricted to the prefix.  ``finalize`` does the
    same over the whole stream, so the verdict is heuristic (``exact=False``)
    exactly like the batch pre-check's; use :class:`BatchAdapter` when the
    exact serialization search (and its witnesses) is wanted.
    """

    def __init__(
        self,
        checker: ConsistencyChecker,
        real_time: bool = False,
    ) -> None:
        self._checker = checker
        self.criterion = checker.name
        self._real_time = real_time
        self.start()

    # -- protocol ------------------------------------------------------------
    def start(self, universe: Optional[Tuple[int, ...]] = None) -> None:
        self._monitors = StreamMonitors(real_time=self._real_time)
        self._ops: Dict[int, List[Operation]] = {
            pid: [] for pid in (universe or ())
        }
        self._read_from: Dict[Operation, Optional[Operation]] = {}
        self._fed = 0
        self._violations: List[str] = []
        self._finalized: Optional[CheckResult] = None

    def feed(
        self, op: Operation, read_from: Optional[Operation] = None
    ) -> Optional[CheckResult]:
        self._fed += 1
        self._ops.setdefault(op.process, []).append(op)
        if op.is_read:
            self._read_from[op] = read_from
        found = self._monitors.observe(op, read_from)
        if found:
            self._violations.extend(f"p{op.process}: {v}" for v in found)
            return self._result_so_far()
        return None

    def check_now(self) -> Optional[CheckResult]:
        result = self._prefix_check(exact=False)
        if not result.consistent:
            for violation in result.violations:
                if violation not in self._violations:
                    self._violations.append(violation)
            return self._result_so_far()
        return self._result_so_far() if self._violations else None

    def finalize(self) -> CheckResult:
        if self._finalized is None:
            self._finalized = self._final_check()
        return self._finalized

    @property
    def ops_fed(self) -> int:
        return self._fed

    # -- internals -----------------------------------------------------------
    def _result_so_far(self) -> CheckResult:
        # A violation proven on a prefix is exact whatever mode we run in.
        return CheckResult(
            criterion=self.criterion,
            consistent=False,
            exact=True,
            violations=list(self._violations),
        )

    def _prefix_history(self) -> Tuple[History, Dict[Operation, Optional[Operation]]]:
        return History(self._ops), dict(self._read_from)

    def _prefix_check(self, exact: bool) -> CheckResult:
        history, read_from = self._prefix_history()
        return self._checker.check(history, read_from=read_from, exact=exact)

    def _merged_full_violations(self) -> CheckResult:
        """Collect-all closure: one last polynomial sweep over the whole
        stream, merged with everything the monitors/periodic checks found.
        The history is already proven inconsistent, so no exact search is
        ever needed here."""
        result = self._prefix_check(exact=False)
        merged = list(self._violations)
        for violation in result.violations:
            if violation not in merged:
                merged.append(violation)
        return CheckResult(
            criterion=self.criterion,
            consistent=False,
            exact=True,
            violations=merged,
        )

    def _final_check(self) -> CheckResult:
        if self._violations:
            return self._merged_full_violations()
        return self._prefix_check(exact=False)


class BatchAdapter(PrefixChecker):
    """Incremental adapter over a batch checker's exact serialization search.

    Streams like :class:`PrefixChecker` (monitors + polynomial prefix
    checks), but ``finalize`` runs the wrapped checker's full ``check`` with
    the configured ``exact`` mode, so the result — verdict *and* witness
    serializations — is byte-identical with what the offline batch API
    returns for the same history and read-from mapping.
    """

    def __init__(
        self,
        checker: ConsistencyChecker,
        exact: bool = True,
        real_time: bool = False,
    ) -> None:
        self._exact = exact
        super().__init__(checker, real_time=real_time)

    def _final_check(self) -> CheckResult:
        if self._violations:
            return self._merged_full_violations()
        return self._prefix_check(exact=self._exact)


class SharedChecker(ConsistencyChecker):
    """A batch checker whose answers are memoised by the checked history,
    the read-from mapping and the mode; each caller gets its own copy."""

    def __init__(self, checker: ConsistencyChecker) -> None:
        self.name = checker.name
        self._checker = checker
        self._memo: Dict[tuple, CheckResult] = {}

    def check(self, history, read_from=None, exact=True):
        key = (history.processes, tuple(map(id, history.operations)),
               tuple(map(id, read_from)), tuple(map(id, read_from.values())), exact)
        if key not in self._memo:
            self._memo[key] = self._checker.check(history, read_from=read_from, exact=exact)
        result = self._memo[key]
        return dataclasses.replace(result, violations=list(result.violations),
                                   serializations=dict(result.serializations))


@pytest.fixture
def shared(monkeypatch):
    """One :class:`SharedChecker` per criterion, behind both factories."""
    checkers: Dict[str, SharedChecker] = {}

    def lookup(criterion):
        if criterion not in checkers:
            checkers[criterion] = SharedChecker(get_checker(criterion))
        return checkers[criterion]

    monkeypatch.setattr(incremental, "get_checker", lookup)
    return lookup


def reference_checker(criterion: str, exact: bool, lookup=get_checker) -> IncrementalChecker:
    """What ``incremental_checker`` returned before the merge."""
    checker, real_time = lookup(criterion), criterion == "atomic"
    if exact:
        return BatchAdapter(checker, exact=True, real_time=real_time)
    return PrefixChecker(checker, real_time=real_time)


# -- inputs -------------------------------------------------------------------

#: Cadence -> how many leading operations of each log it drives.
PREFIX = {
    "finalize": 160,
    "geometric": 160,
    "every:4": 32,
    "every:1": 16,
}
POLICIES = {
    "finalize": CheckPolicy(),
    "geometric": CheckPolicy(geometric=True),
    "every:4": CheckPolicy(every=4),
    "every:1": CheckPolicy(every=1),
}


def recorded_specs():
    specs = [(point.label(), point.spec)
             for experiment in builtin_scenarios()
             if experiment.suite in ("paper", "stress", "faults", "apps")
             for point in experiment.expand()]
    sampler = SpecSampler(0)
    return specs + [(f"sampled-{index}", sampler.sample(index)) for index in range(60)]


def record(spec):
    """The recording log of ``spec``, its universe and criteria."""
    session = Session.from_spec(spec)
    session.checkers = {}  # record only
    session.run()
    log = session.recorder.log()
    return log, tuple(session.distribution.processes), session.criteria


def mutated_log(log, index):
    """``log`` with one read redirected as the generator draws it, re-ordered
    so that every source still precedes its reads (the earliest operation
    first); ``None`` when no read allows the mutation kind or program order
    plus the new read-from is cyclic."""
    ops = [op for op, _ in log]
    history = History({pid: [op for op in ops if op.process == pid]
                       for pid in sorted({op.process for op in ops})})
    read_from = {op: source for op, source in log if op.is_read}
    mapping = mutated(history, read_from, random.Random(index), MUTATIONS[index % len(MUTATIONS)])
    if mapping is None:
        return None
    position = {op: n for n, op in enumerate(ops)}
    after = {op: [] for op in ops}
    waiting = dict.fromkeys(ops, 0)
    last = {}
    for op in ops:
        for before in (last.get(op.process), mapping.get(op)):
            if before is not None:
                after[before].append(op)
                waiting[op] += 1
        last[op.process] = op
    ready = [position[op] for op in ops if not waiting[op]]
    order = []
    while ready:
        order.append(ops[heapq.heappop(ready)])
        for op in after[order[-1]]:
            waiting[op] -= 1
            if not waiting[op]:
                heapq.heappush(ready, position[op])
    if len(order) != len(ops):
        return None
    return [(op, mapping.get(op)) for op in order]


def key(result):
    if result is None:
        return None
    return (result.consistent, result.exact, tuple(result.violations),
            {pid: [op.label() for op in witness]
             for pid, witness in result.serializations.items()})


def drive(checker, log, universe, policy):
    """Every return of one streamed run: each feed, each due check, finalize."""
    checker.start(universe)
    returns = []
    for count, (op, source) in enumerate(log, 1):
        returns.append(key(checker.feed(op, source)))
        if policy.due(count):
            returns.append(key(checker.check_now()))
    returns.append(key(checker.finalize()))
    return returns


#: State budget of the exact search (sequential views): past it a view's
#: verdict is ``exact=False`` on both sides alike.
SEARCH_STATES = 300


@pytest.fixture(autouse=True)
def search_budget(monkeypatch):
    search = SerializationProblem.search
    monkeypatch.setattr(SerializationProblem, "search",
                        lambda problem: search(
                            dataclasses.replace(problem, max_states=SEARCH_STATES)))


@pytest.fixture(scope="module")
def inputs():
    logs = []
    for index, (label, spec) in enumerate(recorded_specs()):
        log, universe, criteria = record(spec)
        logs.append((label, log, universe, criteria))
        mutation = mutated_log(log[:PREFIX["finalize"]], index)
        if mutation is not None:
            logs.append((f"{label} (mutated)", mutation, universe, criteria))
    return logs


def test_the_merged_checker_reproduces_the_replaced_ones(inputs, shared):
    compared = inconsistent = 0
    for label, log, universe, criteria in inputs:
        for criterion in criteria:
            for exact in (True, False):
                for name, policy in POLICIES.items():
                    stream = log[:PREFIX[name]]
                    reference = drive(reference_checker(criterion, exact, shared),
                                      stream, universe, policy)
                    merged = incremental_checker(criterion, exact=exact)
                    assert drive(merged, stream, universe, policy) == reference, \
                        (label, criterion, exact, name)
                    compared += 1
                    inconsistent += reference[-1][0] is False
    assert compared >= 1_900
    assert inconsistent >= 0.15 * compared


# -- the exactness rule ---------------------------------------------------------

def test_a_window_holding_the_whole_stream_equals_batch(inputs):
    """``exact=True`` and a window no shorter than the stream: nothing is
    evicted, so finalize is the batch decision, witnesses included."""
    checked = 0
    for label, log, universe, criteria in inputs[::4]:
        stream = log[:PREFIX["finalize"]]
        history = History({pid: [op for op, _ in stream if op.process == pid] for pid in universe})
        read_from = {op: source for op, source in stream if op.is_read}
        for criterion in criteria:
            windowed = WindowedChecker(
                get_checker(criterion), window=max(4, len(stream)), exact=True)
            windowed.start(universe)
            for op, source in stream:
                windowed.feed(op, source)
            if windowed.violations:
                continue  # a monitor proof closes with the polynomial sweep
            batch = get_checker(criterion).check(history, read_from=read_from, exact=True)
            assert key(windowed.finalize()) == key(batch), (label, criterion)
            checked += bool(batch.serializations)
    assert checked >= 10


def _records(rounds):
    """One writer, three readers of its writes: 4 operations per round."""
    out = []
    for r in range(rounds):
        out.append(TraceRecord(kind="write", process=0, variable="x", value=r, index=r))
        out.extend(TraceRecord(kind="read", process=reader, variable="x", value=r,
                               index=r, source=(0, r)) for reader in (1, 2, 3))
    return out


def _exact_and_served(window):
    """An ``exact=True`` checker and a served tenant's checker, same window."""
    monitor = TenantMonitor(TenantSpec(name="t", policy="finalize", window=window),
                            meta=TraceMeta(distribution={"x": [0, 1, 2, 3]}))
    checker = monitor._checker
    exact = WindowedChecker(get_checker("causal"), window=window,
                            distribution=monitor.distribution, exact=True)
    exact.start()
    return exact, checker


def _feed(checker, records):
    for record in records:
        source = None
        if record.source is not None:
            source = checker.resolve_source(record.source[0], record.variable,
                                            record.value, record.source[1])
        checker.feed(record.to_operation(), read_from=source)


def test_the_exactness_rule():
    # Nothing evicted: an exact clean verdict with witnesses, while the
    # serve-configured (exact=False) checker stays heuristic.
    exact, served = _exact_and_served(window=64)
    for checker in (exact, served):
        _feed(checker, _records(4))
    assert exact.metrics.evicted_forced == exact.metrics.evicted_proved == 0
    result = exact.finalize()
    assert result.consistent and result.exact and result.serializations
    assert served.finalize().consistent and not served.finalize().exact

    # One forced eviction forfeits exactness.
    exact, _ = _exact_and_served(window=4)
    _feed(exact, _records(2))
    assert exact.metrics.evicted_forced >= 1
    result = exact.finalize()
    assert result.consistent and not result.exact and not result.serializations

    # So does one stand-in: a source reference to a write never retained.
    exact, _ = _exact_and_served(window=64)
    _feed(exact, _records(2))
    exact.resolve_source(0, "x", 7, 7)
    assert exact.metrics.standins == 1 and exact.metrics.evicted_forced == 0
    result = exact.finalize()
    assert result.consistent and not result.exact
