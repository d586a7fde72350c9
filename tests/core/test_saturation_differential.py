"""Differential test: views decided by saturation, on both engines.

Object engine: :meth:`SerializationProblem.saturate` decides every view whose
reads form a chain.  A witness it returns is checked directly: it holds every
view operation once, respects the relation and is legal under the read-from
map — a proof of consistency.  A rejection the pre-check does not prove (a
pre-check finding is a proof already, pinned by
``test_quick_violations_differential.py``) goes to the oracle,
:meth:`SerializationProblem.search` alone (read-from semantics, exponential),
with a small state budget.  Every relation builder takes part, on
generated histories with lying read-from maps, on the recorded histories of
sixty sampled scenarios, and on a read-from mutation of each (a read
redirected to an older write, a concurrent write or ⊥, by turns).

Arena engine: the same inputs appended in a topological order of program
order plus read-from (sources before reads,
:func:`~repro.arena.adapter.arena_from_history`) must give the columnar
checker the verdict, exactness, violation strings and witness labels of the
object engine — :class:`PerProcessChecker` by name, in a retaining
:class:`WindowedChecker` — fed the same rows (both engines emit by one rule).

:func:`old_greedy` is the greedy witness construction that preceded
saturation, kept as the reference that shows what saturation adds: views it
could not order although they are consistent.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.arena import adapter
from repro.arena.check import ArenaBatchChecker
from repro.core.consistency import PerProcessChecker, WindowedChecker, all_checkers
from repro.core.history import History
from repro.core.orders import RELATION_BUILDERS, causal_order, pram_generating_order
from repro.core.serialization import (
    SerializationProblem,
    follows_read_from,
    is_legal_serialization,
    respects,
)
from repro.exceptions import SearchBudgetError
from repro.hunt import SpecSampler
from repro.workloads.random_history import random_history
from test_quick_violations_differential import tampered

BUILDERS = dict(RELATION_BUILDERS, pram_generating=pram_generating_order)

#: The oracle search runs on views of at most this many operations, with this
#: state budget; past it a rejection counts as skipped.
ORACLE_OPS, ORACLE_STATES = 40, 3_000


def old_greedy(problem):
    """The greedy construction that preceded saturation: replay the single
    reader's operations, pulling each one's ancestors first (smallest uid
    first), then verify by value legality and relation respect."""
    restricted = problem._restricted
    preds = {op: set() for op in problem.ops}
    for a, b in restricted.edges():
        preds[b].add(a)
    readers = {op.process for op in problem.ops if op.is_read}
    if len(readers) > 1:
        return None
    scheduled, done = [], set()

    def require(op, stack):
        if op in done:
            return True
        if op in stack:
            return False
        stack.add(op)
        if not all(require(p, stack) for p in sorted(preds[op], key=lambda o: o.uid)):
            return False
        stack.discard(op)
        if op not in done:
            scheduled.append(op)
            done.add(op)
        return True

    own = sorted((op for op in problem.ops if op.process in readers), key=lambda o: o.index)
    for op in own:
        writer = problem.read_from.get(op) if op.is_read else None
        if writer is not None and (writer not in preds or not require(writer, set())):
            return None
        if not require(op, set()):
            return None
    if not all(require(op, set()) for op in problem.ops):
        return None
    if is_legal_serialization(scheduled) and respects(scheduled, restricted):
        return scheduled
    return None


class Tally:
    """What the generator drew, over saturation-decided views."""

    def __init__(self):
        self.views = self.inconsistent = self.rejected_clean = self.greedy_missed = 0
        self.compared = self.skipped = 0


def compare(history, read_from, tally, builders=tuple(BUILDERS), greedy=False):
    """Saturation on every decided view of ``history``: a witness is checked
    directly, a rejection the pre-check does not prove goes to the oracle
    when the view is small enough for it (``ORACLE_OPS``).  With ``greedy``,
    consistent views the old greedy construction cannot order are counted."""
    for name in builders:
        relation = BUILDERS[name](history) if name == "program" else BUILDERS[name](history, read_from)
        for pid in history.processes:
            view = history.sub_history_plus_writes(pid)
            problem = SerializationProblem(view, relation, read_from, max_states=ORACLE_STATES)
            decided, witness = problem.saturate()
            if not decided:
                continue
            tally.views += 1
            clean = not problem.quick_violations()
            if witness is not None:
                assert clean and sorted(witness, key=lambda o: o.uid) == sorted(view, key=lambda o: o.uid)
                assert follows_read_from(witness, read_from)
                assert respects(witness, problem._restricted)
                tally.greedy_missed += greedy and old_greedy(problem) is None
                continue
            tally.inconsistent += 1
            if clean:
                tally.rejected_clean += 1
                if len(view) > ORACLE_OPS:
                    continue
                try:
                    assert problem.search() is None, (name, pid)
                    tally.compared += 1
                except SearchBudgetError:
                    tally.skipped += 1


def compare_arena(history, read_from):
    """Columnar against the object engine fed the arena's rows; ``False``
    when no arena can be built."""
    arena = adapter.arena_from_history(history, read_from)
    if arena is None:
        return False
    cache = {}  # fresh operations, whose uid order is the row order
    rows_read_from = adapter.read_from_of(arena, cache)
    for criterion, builder in (("causal", causal_order), ("pram", pram_generating_order)):
        columnar = ArenaBatchChecker(criterion, arena, exact=True)
        stream = WindowedChecker(PerProcessChecker(builder, criterion), window=None, exact=True)
        for checker in (columnar, stream):
            checker.start(history.processes)
        for row in range(len(arena)):
            stream.feed(cache[row], rows_read_from.get(cache[row]))
        columnar, reference = columnar.finalize(), stream.finalize()
        assert (columnar.consistent, columnar.exact, columnar.violations) == \
            (reference.consistent, reference.exact, reference.violations), criterion
        assert labels(columnar) == labels(reference), criterion
    return True


def labels(result):
    return {pid: [op.label() for op in witness]
            for pid, witness in result.serializations.items()}


#: The read-from mutations: a read redirected to a write its writer causally
#: follows, to a write concurrent with it, or to ⊥.
MUTATIONS = ("older", "concurrent", "bottom")


def mutated(history, read_from, rng, kind):
    """``read_from`` with one read, drawn among those that allow it,
    redirected as ``kind`` says; ``None`` when no read does."""
    causal = causal_order(history, read_from)

    def targets(read):
        writer = read_from.get(read)
        if kind == "bottom":
            return [None] if writer is not None else []
        writes = history.writes_on(read.variable)
        if kind == "older":
            return [w for w in writes if writer is not None and causal.reachable(w, writer)]
        return [w for w in writes if w != writer and causal.concurrent(w, read)]

    candidates = [(read, writes) for read in history.reads for writes in [targets(read)] if writes]
    if not candidates:
        return None
    read, writes = rng.choice(candidates)
    return {**read_from, read: rng.choice(writes)}


@pytest.fixture(autouse=True)
def search_budget(monkeypatch):
    """Checkers run inside this module search with the oracle's budget."""
    search = SerializationProblem.search
    monkeypatch.setattr(SerializationProblem, "search",
                        lambda problem: search(dataclasses.replace(problem, max_states=ORACLE_STATES)))


def assert_checker_witnesses_follow_the_map(history, read_from):
    for checker in all_checkers().values():
        result = checker.check(history, read_from=read_from, exact=True)
        for witness in result.serializations.values():
            assert follows_read_from(witness, read_from), checker.name


@given(seed=st.integers(0, 100_000), processes=st.integers(1, 5),
       operations=st.integers(0, 40), variables=st.integers(1, 3), lie=st.booleans())
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_histories(seed, processes, operations, variables, lie):
    history = random_history(processes, variables, operations, seed=seed)
    rng = random.Random(seed)
    read_from = tampered(history, rng) if lie else history.read_from()
    compare(history, read_from, Tally())
    compare_arena(history, read_from)
    assert_checker_witnesses_follow_the_map(history, read_from)


def test_the_generator_draws_the_hard_cases():
    """Fixed seeds: enough inconsistent views, views only saturation rejects
    and consistent views the old greedy construction could not order."""
    tally, arenas = Tally(), 0
    for seed in range(110):
        history = random_history(4, 2, 30, seed=seed)
        rng = random.Random(seed)
        read_from = tampered(history, rng) if seed % 2 else history.read_from()
        compare(history, read_from, tally, builders=("causal", "pram_generating"), greedy=True)
        arenas += compare_arena(history, read_from)
    assert tally.inconsistent >= 0.4 * tally.views
    assert tally.compared >= 10 and tally.greedy_missed >= 50
    assert arenas >= 80


@pytest.mark.parametrize("index", range(60))
def test_sampled_runs_and_their_mutations(index):
    """Each recorded run, and one mutation of it (the kinds take turns)."""
    report = Session.from_spec(SpecSampler(0).sample(index)).run()
    if not isinstance(report.history, History):
        pytest.skip("the scenario keeps no history")
    rng = random.Random(index)
    kind = MUTATIONS[index % len(MUTATIONS)]
    for read_from in (report.read_from, mutated(report.history, report.read_from, rng, kind)):
        if read_from is not None:
            compare(report.history, read_from, Tally(), builders=("causal", "pram_generating"))
            assert compare_arena(report.history, read_from)


def test_the_value_legal_witness_that_broke_the_map():
    """The greedy construction accepted a witness whose values fit although a
    read's mapped writer is not the last write before it; the search alone
    rejects the view, and so does saturation."""
    history = random_history(5, 3, 25, seed=123)
    read_from = tampered(history, random.Random(123))
    problem = SerializationProblem(history.sub_history_plus_writes(0),
                                   causal_order(history, read_from), read_from)
    greedy = old_greedy(problem)
    assert greedy is not None and not follows_read_from(greedy, read_from)
    assert problem.quick_violations() == []
    assert problem.search() is None and problem.saturate() == (True, None)
