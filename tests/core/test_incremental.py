"""Tests for the incremental checker layer (repro.core.consistency.incremental)."""

import pytest

from repro.core.consistency import get_checker
from repro.core.consistency.incremental import (
    CheckPolicy,
    StreamMonitors,
    WindowedChecker,
    incremental_checker,
)
from repro.core.history import HistoryBuilder
from repro.core.operations import BOTTOM
from repro.exceptions import ConsistencyCheckError, UnknownCriterionError
from repro.experiments.suites import builtin_scenarios
from repro.mcs.system import PROTOCOL_CRITERION, MCSystem
from repro.workloads.access_patterns import run_script


class TestCheckPolicy:
    def test_aliases(self):
        assert CheckPolicy.parse("fail_fast") == CheckPolicy(fail_fast=True, geometric=True)
        assert CheckPolicy.parse("every_op") == CheckPolicy(every=1, fail_fast=False)
        assert CheckPolicy.parse("finalize") == CheckPolicy(every=0, fail_fast=False)
        assert CheckPolicy.parse(None) == CheckPolicy()
        assert CheckPolicy.parse("every:25") == CheckPolicy(every=25)
        assert CheckPolicy.parse("every:8:fail_fast") == CheckPolicy(every=8, fail_fast=True)

    def test_parse_passes_instances_through(self):
        policy = CheckPolicy(every=3, fail_fast=True)
        assert CheckPolicy.parse(policy) is policy

    def test_malformed_specs_raise_typed_errors(self):
        with pytest.raises(ConsistencyCheckError):
            CheckPolicy.parse("bogus")
        for spelling in ("every:x", "every:", "every:-3", "every:8:failfast",
                         "every:8:fail_fast:junk", "every:8:", "batch"):
            with pytest.raises(ConsistencyCheckError):
                CheckPolicy.parse(spelling)
        with pytest.raises(ConsistencyCheckError):
            CheckPolicy(every=-1)

    def test_due_cadence(self):
        policy = CheckPolicy(every=3)
        assert [n for n in range(1, 10) if policy.due(n)] == [3, 6, 9]
        assert not any(CheckPolicy(every=0).due(n) for n in range(1, 10))

    def test_geometric_cadence_checks_powers_of_two(self):
        policy = CheckPolicy(geometric=True)
        due = [n for n in range(1, 200) if policy.due(n)]
        assert due == [16, 32, 64, 128]  # geometric: total work stays O(final check)


class TestFactory:
    def test_unknown_criterion(self):
        with pytest.raises(UnknownCriterionError):
            incremental_checker("nope")

    def test_modes(self):
        """One class, retaining the whole stream in either exactness mode."""
        for exact in (True, False):
            checker = incremental_checker("pram", exact=exact)
            assert type(checker) is WindowedChecker and checker.window is None

    def test_a_checker_that_retains_nothing_is_refused(self):
        with pytest.raises(ConsistencyCheckError, match="bounded"):
            incremental_checker("pram", bounded=True)
        for window in (0, 3, -1, 2.5, True):
            with pytest.raises(ConsistencyCheckError, match="window"):
                WindowedChecker(get_checker("pram"), window=window)


def _feed_history(checker, history, read_from):
    """Feed a finished history in a recording-compatible order (by index)."""
    order = sorted(history.operations, key=lambda op: (op.index, op.process))
    verdicts = []
    for op in order:
        result = checker.feed(op, read_from.get(op) if op.is_read else None)
        if result is not None:
            verdicts.append(result)
    return verdicts


class TestStreamMonitors:
    def test_monotone_reads_violation_is_detected(self):
        # p1 reads the second write of p0 on x, then its first: a proven
        # violation under every criterion of the lattice (even slow memory).
        b = HistoryBuilder()
        b.write(0, "x", "a").write(0, "x", "b")
        b.read(1, "x", "b").read(1, "x", "a")
        history = b.build()
        rf = history.read_from()
        checker = incremental_checker("slow")
        checker.start(universe=history.processes)
        verdicts = _feed_history(checker, history, rf)
        assert verdicts and not verdicts[0].consistent
        assert verdicts[0].exact  # early verdicts are proofs
        # the batch checker agrees
        assert not get_checker("slow").check(history, rf).consistent

    def test_bottom_read_after_observed_write(self):
        b = HistoryBuilder()
        b.write(0, "x", "a")
        b.read(1, "x", "a").read(1, "x", BOTTOM)
        history = b.build()
        rf = history.read_from()
        checker = incremental_checker("pram")
        checker.start(universe=history.processes)
        verdicts = _feed_history(checker, history, rf)
        assert verdicts and not verdicts[0].consistent
        assert not get_checker("pram").check(history, rf).consistent

    def test_no_false_positive_on_consistent_stream(self):
        b = HistoryBuilder()
        b.write(0, "x", "a").write(0, "x", "b")
        b.read(1, "x", "a").read(1, "x", "b")
        history = b.build()
        rf = history.read_from()
        monitors = StreamMonitors()
        for op in sorted(history.operations, key=lambda o: (o.index, o.process)):
            assert monitors.observe(op, rf.get(op) if op.is_read else None) == []


class TestRetainingChecker:
    def test_finalize_is_heuristic_without_exact_search(self):
        b = HistoryBuilder()
        b.write(0, "x", "a").read(1, "x", "a")
        history = b.build()
        checker = incremental_checker("causal", exact=False)
        checker.start(universe=history.processes)
        _feed_history(checker, history, history.read_from())
        result = checker.finalize()
        assert result.consistent and not result.exact

    def test_a_clean_due_check_never_replaces_the_exact_finalize(self):
        b = HistoryBuilder()
        b.write(0, "x", "a").read(1, "x", "a")
        history = b.build()
        checker = incremental_checker("causal", exact=True)
        checker.start(universe=history.processes)
        _feed_history(checker, history, history.read_from())
        assert checker.check_now() is None  # the window checked clean
        result = checker.finalize()
        assert result.consistent and result.exact and result.serializations

    def test_check_now_catches_prefix_violation(self):
        # The classic causal-transitivity anomaly: p1 observes w(y)b, which
        # causally follows w(x)a, yet still reads x = ⊥.  Visible to the
        # polynomial bad-pattern check over the causal relation, invisible to
        # the O(1) per-reader monitors (p1 never observed a write on x).
        b = HistoryBuilder()
        b.write(0, "x", "a").write(0, "y", "b")
        b.read(1, "y", "b").read(1, "x", BOTTOM)
        history = b.build()
        rf = history.read_from()
        assert not get_checker("causal").check(history, rf).consistent
        checker = incremental_checker("causal", exact=False)
        checker.start(universe=history.processes)
        monitors_fired = _feed_history(checker, history, rf)
        assert monitors_fired == []  # per-reader monitors cannot see this
        result = checker.check_now()
        assert result is not None and not result.consistent
        assert result.exact  # a prefix violation is a proof

    def test_collect_all_finalize_merges_monitor_and_full_check_violations(self):
        # Two independent violations: a monitor-visible monotone-read
        # regression on x by p1, and a transitivity anomaly on z invisible to
        # the monitors.  Collect-all finalize must report both.
        b = HistoryBuilder()
        b.write(0, "x", "a").write(0, "x", "b").write(0, "z", "c").write(0, "y", "d")
        b.read(1, "x", "b").read(1, "x", "a")          # monitor-visible
        b.read(2, "y", "d").read(2, "z", BOTTOM)        # bad pattern only
        history = b.build()
        rf = history.read_from()
        checker = incremental_checker("causal", exact=True)
        checker.start(universe=history.processes)
        verdicts = _feed_history(checker, history, rf)
        assert verdicts  # the monitor fired mid-stream
        final = checker.finalize()
        assert not final.consistent and final.exact
        text = "\n".join(final.violations)
        assert "already observed" in text        # the monitor's violation
        assert "⊥" in text and "z" in text       # the full-sweep violation


def violating_stream(system):
    """The run's recording stream with one early read redirected to a stale write.

    Returns ``(log, read_from)``: the ``(op, source)`` stream with the
    corrupted source and the matching full mapping.  The corruption is the
    smallest possible — one read made to return an *older* write of the same
    writer on the same variable than the reader had already observed, a proven
    violation of every criterion of the lattice — placed in the first third
    of the stream so fail-fast checking has something to save.
    """
    log = list(system.recorder.log())
    writes = {}  # (writer, variable) -> [writes in program order]
    observed = {}  # (reader, variable, writer) -> max observed write index
    for position, (op, source) in enumerate(log):
        if op.is_write:
            writes.setdefault((op.process, op.variable), []).append(op)
            continue
        if source is None:
            continue
        seen = observed.get((op.process, op.variable, source.process), -1)
        stale = [w for w in writes.get((source.process, op.variable), [])
                 if w.index < seen]
        if stale:
            assert position <= len(log) // 3, (
                f"corruption landed at stream position {position}/{len(log)}; "
                "the stress workload changed — pick an earlier read"
            )
            log[position] = (op, stale[0])
            return log, {**system.read_from(), op: stale[0]}
        observed[(op.process, op.variable, source.process)] = max(seen, source.index)
    raise AssertionError("no corruptible read found in the stress stream")


def test_fail_fast_feeding_beats_batch_on_a_violating_stream(stress_system):
    log, read_from = violating_stream(stress_system)
    history = stress_system.history()
    checker = incremental_checker("pram", exact=False)
    checker.start(universe=history.processes)
    assert any(checker.feed(op, source) is not None for op, source in log)
    # the batch checker must consume the entire history before it can say so
    assert not get_checker("pram").check(history, read_from, exact=False).consistent
    assert len(history) / checker.ops_fed >= 3


def _suite_points():
    points = []
    for spec in builtin_scenarios():
        if spec.app is not None:
            # application points are driven by a DSM runtime, not a script;
            # their incremental-vs-batch equivalence is covered by
            # tests/apps/test_app_sessions.py over the recorded history
            continue
        expanded = spec.expand()
        # one representative point per (scenario, protocol): the equivalence
        # property is about checker behaviour, not about seed coverage.
        seen = set()
        for point in expanded:
            key = (point.spec.name, point.spec.protocol.name)
            if key in seen:
                continue
            seen.add(key)
            points.append(point)
    return points


@pytest.mark.parametrize(
    "point", _suite_points(), ids=lambda p: f"{p.spec.name}-{p.spec.protocol.name}"
)
def test_incremental_equals_batch_on_builtin_suites(point):
    """Acceptance: identical verdicts (and witnesses) incremental vs batch."""
    distribution = point.spec.distribution.build(seed=point.spec.seed)
    script = point.spec.workload.build(distribution, seed=point.spec.seed)
    system = MCSystem(distribution, protocol=point.spec.protocol.name)
    run_script(system, script)
    history = system.history()
    read_from = system.read_from()
    criterion = PROTOCOL_CRITERION[point.spec.protocol.name]

    batch = get_checker(criterion).check(history, read_from, exact=point.exact)

    checker = incremental_checker(criterion, exact=point.exact)
    checker.start(universe=history.processes)
    for op, source in system.recorder.log():
        checker.feed(op, source)
    streamed = checker.finalize()

    assert streamed.consistent == batch.consistent
    assert streamed.exact == batch.exact
    # where witnesses are defined (exact, consistent) they must be equivalent;
    # finalize delegates to the very same search, so they are identical.
    if batch.consistent and batch.exact:
        assert streamed.serializations == batch.serializations
    assert checker.ops_fed == len(history)
