"""Tests of the consistency checkers on hand-built and paper histories."""

import pytest

from repro.analysis.figures import (
    figure4_history,
    figure5_history,
    figure6_history,
)
from repro.core.consistency import (
    AtomicChecker,
    CausalChecker,
    LazyCausalChecker,
    LazySemiCausalChecker,
    PRAMChecker,
    SequentialChecker,
    SlowChecker,
    all_checkers,
    get_checker,
    implied_criteria,
)
from repro.core.history import HistoryBuilder
from repro.core.operations import BOTTOM
from repro.exceptions import AmbiguousReadFromError


def writer_reader_history():
    b = HistoryBuilder()
    b.write(1, "x", "a").write(1, "x", "b")
    b.read(2, "x", "a").read(2, "x", "b")
    return b.build()


def classic_causal_violation():
    """Reads of two causally ordered writes observed in the wrong order."""
    b = HistoryBuilder()
    b.write(1, "x", "a")
    b.read(2, "x", "a").write(2, "y", "b")
    b.read(3, "y", "b").read(3, "x", BOTTOM)
    return b.build()


def pram_violation_history():
    """A single writer whose two writes are observed out of program order."""
    b = HistoryBuilder()
    b.write(1, "x", "a").write(1, "x", "b")
    b.read(2, "x", "b").read(2, "x", "a")
    return b.build()


def padded_pram_violation_history(padding=320):
    """A PRAM/causal violation buried under enough writes that every view
    exceeds 300 operations — the size above which the seed implementation
    silently skipped the heuristic pre-check."""
    b = HistoryBuilder()
    b.write(1, "x", "a").write(1, "x", "b")
    b.read(2, "x", "b").read(2, "x", "a")
    for i in range(padding):
        b.write(3, f"pad{i}", i)
    return b.build()


def concurrent_writes_history():
    """Two independent writers observed in different orders by different readers."""
    b = HistoryBuilder()
    b.write(1, "x", "a")
    b.write(2, "x", "b")
    b.read(3, "x", "a").read(3, "x", "b")
    b.read(4, "x", "b").read(4, "x", "a")
    return b.build()


class TestRegistry:
    def test_all_checkers_names(self):
        checkers = all_checkers()
        assert set(checkers) == {
            "atomic", "sequential", "causal", "lazy_causal",
            "lazy_semi_causal", "pram", "slow",
        }
        for name, checker in checkers.items():
            assert checker.name == name

    def test_get_checker_unknown(self):
        with pytest.raises(KeyError):
            get_checker("eventual")

    def test_implied_criteria(self):
        assert implied_criteria("causal") == {
            "causal", "lazy_causal", "lazy_semi_causal", "pram", "slow",
        }
        assert implied_criteria("slow") == {"slow"}
        assert "causal" in implied_criteria("atomic")


class TestBasicVerdicts:
    def test_simple_history_consistent_under_everything(self):
        h = writer_reader_history()
        for name, checker in all_checkers().items():
            assert checker.check(h).consistent, name

    def test_classic_causal_violation(self):
        h = classic_causal_violation()
        assert not CausalChecker().check(h).consistent
        assert not SequentialChecker().check(h).consistent
        # The violation relies on transitivity through p2, so PRAM admits it.
        assert PRAMChecker().check(h).consistent
        assert SlowChecker().check(h).consistent

    def test_pram_violation(self):
        h = pram_violation_history()
        result = PRAMChecker().check(h)
        assert not result.consistent
        assert result.violations
        assert not CausalChecker().check(h).consistent
        # Slow memory also orders same-writer same-variable writes.
        assert not SlowChecker().check(h).consistent

    def test_concurrent_writes_allowed_by_causal_but_not_sequential(self):
        h = concurrent_writes_history()
        assert CausalChecker().check(h).consistent
        assert PRAMChecker().check(h).consistent
        assert not SequentialChecker().check(h).consistent

    def test_witness_serializations_are_recorded(self):
        h = writer_reader_history()
        result = CausalChecker().check(h)
        assert set(result.serializations) == {1, 2}
        for pid, serialization in result.serializations.items():
            assert len(serialization) == len(h.sub_history_plus_writes(pid))

    def test_check_result_dunder_bool_and_summary(self):
        h = writer_reader_history()
        result = PRAMChecker().check(h)
        assert bool(result)
        assert "pram" in result.summary()

    def test_heuristic_mode_skips_search(self):
        h = writer_reader_history()
        result = CausalChecker().check(h, exact=False)
        assert result.consistent
        assert not result.serializations

    def test_heuristic_mode_still_detects_bad_patterns(self):
        h = pram_violation_history()
        assert not PRAMChecker().check(h, exact=False).consistent

    def test_heuristic_mode_only_errs_on_the_permissive_side(self):
        from repro.workloads.random_history import random_history

        checker = CausalChecker()
        for seed in range(10):
            h = random_history(processes=4, variables=3, operations=16, seed=seed)
            if checker.check(h, exact=True).consistent:
                assert checker.check(h, exact=False).consistent, seed

    def test_heuristic_mode_rejects_large_inconsistent_views(self):
        # Regression for the silent no-op: views above 300 operations used to
        # skip the pre-check entirely, so exact=False returned
        # consistent=True for *any* history large enough.
        h = padded_pram_violation_history()
        assert all(
            len(h.sub_history_plus_writes(pid)) > 300 for pid in h.processes
        )
        for checker in (PRAMChecker(), CausalChecker()):
            result = checker.check(h, exact=False)
            assert not result.consistent
            assert result.exact  # a bad-pattern rejection is a proof
            assert result.violations

    def test_heuristic_mode_runs_precheck_on_large_consistent_views(self):
        b = HistoryBuilder()
        for i in range(310):
            b.write(1, f"v{i}", i)
        b.read(2, "v0", 0)
        h = b.build()
        result = PRAMChecker().check(h, exact=False)
        assert result.consistent
        assert not result.exact
        assert not result.serializations

    def test_explicit_read_from_mapping(self):
        b = HistoryBuilder()
        b.write(1, "x", "same").write(2, "x", "same")
        b.read(3, "x", "same")
        h = b.build()
        with pytest.raises(AmbiguousReadFromError):
            CausalChecker().check(h)
        rf = {h.reads[0]: h.writes[0]}
        assert CausalChecker().check(h, read_from=rf).consistent


class TestPaperHistories:
    def test_figure4_lazy_causal_but_not_causal(self):
        h = figure4_history()
        assert not CausalChecker().check(h).consistent
        assert LazyCausalChecker().check(h).consistent

    def test_figure5_not_lazy_causal(self):
        h = figure5_history()
        assert not LazyCausalChecker().check(h).consistent
        assert not CausalChecker().check(h).consistent

    def test_figure6_strict_not_lazy_semi_causal(self):
        h = figure6_history(strict=True)
        assert not LazySemiCausalChecker().check(h).consistent

    def test_figure4_not_sequential(self):
        assert not SequentialChecker().check(figure4_history()).consistent


class TestAtomicChecker:
    def test_real_time_order_enforced(self):
        b = HistoryBuilder()
        b.write(1, "x", "a")
        b.read(2, "x", BOTTOM)
        h = b.build()
        # Without timestamps the read of ⊥ can be linearised before the write.
        assert AtomicChecker().check(h).consistent

    def test_real_time_violation_detected(self):
        from repro.core.history import History
        from repro.core.operations import Operation

        w = Operation.write(1, "x", "a", index=0, invoked_at=0.0, completed_at=1.0)
        r = Operation.read(2, "x", BOTTOM, index=0, invoked_at=2.0, completed_at=3.0)
        h = History({1: [w], 2: [r]})
        # The write completed before the read started, so the read must see it.
        assert not AtomicChecker().check(h).consistent

    def test_atomic_implies_sequential_on_timed_history(self):
        from repro.core.history import History
        from repro.core.operations import Operation

        w = Operation.write(1, "x", "a", index=0, invoked_at=0.0, completed_at=1.0)
        r = Operation.read(2, "x", "a", index=0, invoked_at=2.0, completed_at=3.0)
        h = History({1: [w], 2: [r]})
        assert AtomicChecker().check(h).consistent
        assert SequentialChecker().check(h).consistent
