"""Unit tests for :mod:`repro.core.serialization`."""

import dataclasses
import gc
import random
import weakref

import pytest

from repro import get_checker
from repro.core.consistency.criteria import SlowChecker
from repro.core.consistency.sequential import SequentialChecker
from repro.core.history import HistoryBuilder
from repro.core.operations import BOTTOM, Operation
from repro.core.orders import Relation, causal_order, full_program_order
from repro.core.serialization import (
    SerializationProblem,
    find_serialization,
    is_legal_serialization,
    respects,
)
from repro.exceptions import CheckError, SearchBudgetError


class TestLegality:
    def test_read_of_latest_write_is_legal(self):
        w = Operation.write(1, "x", "a")
        r = Operation.read(2, "x", "a")
        assert is_legal_serialization([w, r])

    def test_read_of_stale_value_is_illegal(self):
        w1 = Operation.write(1, "x", "a")
        w2 = Operation.write(1, "x", "b", index=1)
        r = Operation.read(2, "x", "a")
        assert not is_legal_serialization([w1, w2, r])

    def test_read_of_initial_value_before_any_write(self):
        r = Operation.read(2, "x", BOTTOM)
        w = Operation.write(1, "x", "a")
        assert is_legal_serialization([r, w])
        assert not is_legal_serialization([w, r])

    def test_reads_of_different_variables_do_not_interfere(self):
        w = Operation.write(1, "x", "a")
        r = Operation.read(2, "y", BOTTOM)
        assert is_legal_serialization([w, r])


class TestRespects:
    def test_respects_detects_violations(self):
        b = HistoryBuilder()
        b.write(1, "x", "a").write(1, "y", "b")
        h = b.build()
        rel = full_program_order(h)
        w_x, w_y = h.local(1).operations
        assert respects([w_x, w_y], rel)
        assert not respects([w_y, w_x], rel)

    def test_operations_missing_from_sequence_are_ignored(self):
        b = HistoryBuilder()
        b.write(1, "x", "a").write(1, "y", "b").write(1, "z", "c")
        h = b.build()
        rel = full_program_order(h)
        w_x, _, w_z = h.local(1).operations
        assert respects([w_x, w_z], rel)


class TestSerializationProblem:
    def _problem(self, history, relation=None):
        relation = relation or causal_order(history)
        return SerializationProblem(history.operations, relation, history.read_from())

    def test_solves_simple_consistent_history(self):
        b = HistoryBuilder()
        b.write(1, "x", "a")
        b.read(2, "x", "a")
        h = b.build()
        problem = self._problem(h)
        witness = problem.solve()
        assert witness is not None
        assert is_legal_serialization(witness)
        assert respects(witness, causal_order(h))

    def test_detects_unsatisfiable_instance(self):
        # p2 reads b then a although p1 wrote a before b: no legal
        # serialization can respect p2's program order on the same variable.
        b = HistoryBuilder()
        b.write(1, "x", "a").write(1, "x", "b")
        b.read(2, "x", "b").read(2, "x", "a")
        h = b.build()
        problem = self._problem(h)
        assert problem.quick_violations()
        assert problem.solve() is None

    def test_quick_violations_bottom_read(self):
        b = HistoryBuilder()
        b.write(1, "x", "a")
        b.read(1, "x", BOTTOM)  # reads ⊥ after writing a in program order
        h = HistoryBuilder()
        h.write(1, "x", "a").read(1, "x", BOTTOM)
        history = h.build()
        problem = self._problem(history)
        assert problem.quick_violations()
        assert problem.solve() is None

    def test_read_from_writer_outside_view_is_unsatisfiable(self):
        b = HistoryBuilder()
        b.write(1, "x", "a")
        b.read(2, "x", "a")
        h = b.build()
        read = h.reads[0]
        writer = h.writes[0]
        problem = SerializationProblem(
            (read,), causal_order(h), {read: writer}
        )
        assert problem.quick_violations()
        assert problem.solve() is None

    def test_interleaving_requires_backtracking_over_write_order(self):
        # Two writers on the same variable; the reader observes them in an
        # order the naive first-candidate choice would not pick first.
        b = HistoryBuilder()
        b.write(1, "x", "a")
        b.write(2, "x", "b")
        b.read(3, "x", "b").read(3, "x", "a")
        h = b.build()
        # PRAM-style constraints: program order only.
        problem = SerializationProblem(h.operations, full_program_order(h), h.read_from())
        witness = problem.solve()
        assert witness is not None
        assert is_legal_serialization(witness)

    def test_empty_problem(self):
        b = HistoryBuilder()
        b.write(1, "x", "a")
        h = b.build()
        problem = SerializationProblem((), causal_order(h), {})
        assert problem.solve() == []

    def test_find_serialization_wrapper(self):
        b = HistoryBuilder()
        b.write(1, "x", "a")
        b.read(2, "x", "a")
        h = b.build()
        assert find_serialization(h.operations, causal_order(h), h.read_from()) is not None

    def test_max_states_guard(self):
        # Reads by two different processes defeat the greedy fast path, so the
        # backtracking search runs and trips the (tiny) state budget.
        b = HistoryBuilder()
        b.write(1, "x", "a")
        b.write(2, "y", "b")
        b.read(3, "x", "a")
        b.read(4, "y", "b")
        h = b.build()
        problem = SerializationProblem(h.operations, Relation(h.operations), h.read_from(),
                                       max_states=1)
        with pytest.raises(RuntimeError):
            problem.solve()


class TestSearchBudget:
    """A search past its state budget leaves the pre-check's verdict, with
    ``exact=False``; it never raises out of a checker."""

    @pytest.fixture
    def tiny_budget(self, monkeypatch):
        search = SerializationProblem.search
        monkeypatch.setattr(SerializationProblem, "search",
                            lambda problem: search(dataclasses.replace(problem, max_states=1)))

    @staticmethod
    def two_readers():
        b = HistoryBuilder()
        b.write(1, "x", "a").write(2, "y", "b")
        b.read(3, "x", "a").read(3, "y", "b").read(4, "y", "b")
        return b.build()

    def test_the_budget_is_a_typed_check_error(self):
        h = self.two_readers()
        problem = SerializationProblem(h.operations, Relation(h.operations), h.read_from(),
                                       max_states=1)
        with pytest.raises(SearchBudgetError) as raised:
            problem.solve()
        assert isinstance(raised.value, CheckError)

    def test_a_sequential_check_past_its_budget_is_inexact(self, tiny_budget):
        result = SequentialChecker().check(self.two_readers(), exact=True)
        assert result.consistent and not result.exact and not result.serializations

    def test_a_view_past_its_budget_is_inexact(self, tiny_budget):
        # slow memory leaves p3's reads of x and y unordered: its view searches
        result = SlowChecker().check(self.two_readers(), exact=True)
        assert result.consistent and not result.exact
        assert sorted(result.serializations) == [1, 2, 4]

    def test_a_proof_in_another_view_stays_exact(self, tiny_budget):
        b = HistoryBuilder()
        b.write(1, "x", "a").write(1, "x", "b").write(2, "y", "c")
        b.read(3, "x", "a").read(3, "y", "c")
        b.read(4, "x", "b").read(4, "x", "a")  # against p1's program order
        result = SlowChecker().check(b.build(), exact=True)
        assert not result.consistent and result.exact
        assert [v[:3] for v in result.violations] == ["p4:"]


def recursive_search(problem):
    """The recursive search the explicit stack replaced: ``(result, states)``."""
    ops, read_from, preds = problem.ops, problem.read_from, problem._preds
    failed, scheduled, scheduled_set, last_write = set(), [], set(), {}
    pending_reads_by_var = {}
    for op in ops:
        if op.is_read:
            pending_reads_by_var.setdefault(op.variable, set()).add(op)
    states = 0

    def state_key():
        visible = tuple(sorted((var, op.uid) for var, op in last_write.items() if op is not None))
        return frozenset(scheduled_set), visible

    def write_priority(op):
        pending = pending_reads_by_var.get(op.variable, ())
        clobbers = any(read_from.get(r) is not op for r in pending)
        timestamp = op.invoked_at if op.invoked_at is not None else float(op.uid)
        return (1 if clobbers else 0, timestamp, op.uid)

    def candidates():
        out = []
        for op in ops:
            if op in scheduled_set or any(p not in scheduled_set for p in preds[op]):
                continue
            if op.is_read:
                writer, current = read_from.get(op), last_write.get(op.variable)
                if (current is not None) if writer is None else (current is not writer):
                    continue
            out.append(op)
        return out

    def backtrack():
        nonlocal states
        if len(scheduled) == len(ops):
            return True
        key = state_key()
        if key in failed:
            return False
        states += 1
        cands = candidates()
        reads = [c for c in cands if c.is_read]
        if reads:
            chosen = reads[0]
            scheduled.append(chosen)
            scheduled_set.add(chosen)
            pending_reads_by_var[chosen.variable].discard(chosen)
            if backtrack():
                return True
            scheduled.pop()
            scheduled_set.remove(chosen)
            pending_reads_by_var[chosen.variable].add(chosen)
            failed.add(key)
            return False
        for chosen in sorted(cands, key=write_priority):
            scheduled.append(chosen)
            scheduled_set.add(chosen)
            previous = last_write.get(chosen.variable)
            last_write[chosen.variable] = chosen
            if backtrack():
                return True
            scheduled.pop()
            scheduled_set.remove(chosen)
            last_write[chosen.variable] = previous
        failed.add(key)
        return False

    return (list(scheduled) if backtrack() else None), states


def random_history(seed):
    """A small history whose reads return a random earlier-or-later write (or ⊥)."""
    rng = random.Random(seed)
    b, written = HistoryBuilder(), []
    for n in range(rng.randrange(4, 10)):
        process, variable = rng.randrange(3), rng.choice("xy")
        if rng.random() < 0.5 or not written:
            b.write(process, variable, f"{variable}{n}")
            written.append((variable, f"{variable}{n}"))
        else:
            choices = [value for var, value in written if var == variable]
            b.read(process, variable, rng.choice(choices + [BOTTOM]))
    return b.build()


class TestExplicitStackSearch:
    def test_a_long_history_is_checked_without_recursion(self):
        """One operation per stack frame: 1 202 scheduled operations used to
        overflow Python's recursion limit with a ``RecursionError``."""
        b = HistoryBuilder()
        for i in range(600):
            b.write(1, "x", f"a{i}")
            b.write(2, "x", f"b{i}")
        b.read(3, "x", "b599")
        b.read(4, "x", "b599")
        history = b.build()
        assert len(history.operations) == 1_202
        result = get_checker("sequential").check(history, exact=True)
        assert result.consistent and result.exact

    @pytest.mark.parametrize("relation", [Relation, full_program_order, causal_order])
    def test_states_explored_equal_the_recursive_search(self, relation):
        compared = solved = 0
        for seed in range(150):
            history = random_history(seed)
            problem = SerializationProblem(history.operations, relation(history.operations)
                                           if relation is Relation else relation(history),
                                           history.read_from())
            expected, states = recursive_search(problem)
            assert states >= 1
            budgeted = dataclasses.replace(problem, max_states=states)
            assert budgeted.search() == expected, seed
            with pytest.raises(SearchBudgetError):
                dataclasses.replace(problem, max_states=states - 1).search()
            compared += 1
            solved += expected is not None
        # an empty relation admits every history; program order rejects some
        assert 0 < solved <= compared
        assert relation is Relation or solved < compared

    def test_a_search_leaves_no_cycle(self):
        b = HistoryBuilder()
        b.write(1, "x", "a").write(2, "x", "b")
        b.read(3, "x", "b").read(3, "x", "a")
        history = b.build()
        gc.disable()
        try:
            problem = SerializationProblem(history.operations, full_program_order(history),
                                           history.read_from())
            assert problem.search() is not None
            alive = weakref.ref(problem)
            del problem
            assert alive() is None
        finally:
            gc.enable()
