"""Differential test: the public batch route of causal and PRAM checks.

``get_checker("causal").check`` and ``get_checker("pram").check`` columnarise
the history (:func:`~repro.arena.adapter.arena_from_history`, a topological
order of program order ∪ read-from) and decide it with
:meth:`~repro.arena.check.ArenaBatchChecker.solved`.  The reference is the
object per-view path, :class:`PerProcessChecker` by name.  Both must give the
same verdict, exactness and violations in order, with and without ``exact``.
Witness labels are equal when uid order extends program order ∪ read-from
(both engines then emit in that order); otherwise every witness must still
follow the read-from map and respect the criterion's relation.

Inputs: the saturation differential's generator (half of the read-from maps
lie, which draws cycles and reads forced before their writer), the sixty
:class:`~repro.hunt.SpecSampler` runs with one read-from mutation each,
and pinned inputs for the two cases the route hands to the object path — a
program-order ∪ read-from cycle and a writer that is not a write of the
history on the read's variable.  (``test_windowed_differential.py`` holds
every window ``repro serve`` checks, rows of the window's own arena, to the
same reference.)
"""

import random

import pytest

from repro.api import Session
from repro.arena import adapter
from repro.arena.check import ArenaBatchChecker
from repro.core.consistency import PerProcessChecker, get_checker
from repro.core.history import History, HistoryBuilder
from repro.core.operations import Operation
from repro.core.orders import causal_order, pram_generating_order
from repro.core.serialization import follows_read_from, respects
from repro.exceptions import RelationDomainError
from repro.hunt import SpecSampler
from repro.workloads.random_history import random_history
from test_quick_violations_differential import tampered
from test_saturation_differential import MUTATIONS, mutated

BUILDERS = {"causal": causal_order, "pram": pram_generating_order}

#: Generated histories, half of them with a lying read-from map.
HISTORIES = 600


@pytest.fixture
def arena_closes(monkeypatch):
    """The criterion of every arena the route closes."""
    closed = []
    solved = ArenaBatchChecker.solved

    def recorded(checker):
        closed.append(checker.criterion)
        return solved(checker)

    monkeypatch.setattr(ArenaBatchChecker, "solved", recorded)
    return closed


def uid_order_extends(history, read_from):
    """``True`` iff ascending uid is a topological order of program order ∪
    read-from."""
    for pid in history.processes:
        local = history.local(pid).operations
        if any(a.uid > b.uid for a, b in zip(local, local[1:])):
            return False
    return all(writer is None or writer.uid < read.uid for read, writer in read_from.items())


def labels(result):
    return {pid: [op.label() for op in witness] for pid, witness in result.serializations.items()}


def compare(history, read_from):
    """The route against the reference, both criteria, exact or not."""
    same_order = uid_order_extends(history, read_from)
    for criterion, builder in BUILDERS.items():
        reference = PerProcessChecker(builder, criterion)
        relation = builder(history, read_from)
        for exact in (True, False):
            routed = get_checker(criterion).check(history, read_from=read_from, exact=exact)
            expected = reference.check(history, read_from=read_from, exact=exact)
            assert (routed.consistent, routed.exact, routed.violations) == \
                (expected.consistent, expected.exact, expected.violations), (criterion, exact)
            assert sorted(routed.serializations) == sorted(expected.serializations)
            if same_order:
                assert labels(routed) == labels(expected), criterion
            for witness in routed.serializations.values():
                assert follows_read_from(witness, read_from), criterion
                assert respects(witness, relation.restricted_to(witness)), criterion


def test_generated_histories(arena_closes):
    """Lying and honest maps: 0 disagreements, and most histories reach the
    arena (a cycle keeps the object path)."""
    acyclic = 0
    for seed in range(HISTORIES):
        history = random_history(4, 2, 30, seed=seed)
        read_from = tampered(history, random.Random(seed)) if seed % 2 else history.read_from()
        before = len(arena_closes)
        compare(history, read_from)
        reached = len(arena_closes) - before
        built = adapter.arena_from_history(history, read_from) is not None
        assert reached == (4 if built else 0)
        acyclic += built
    assert acyclic >= 0.7 * HISTORIES
    assert arena_closes and set(arena_closes) <= set(BUILDERS)


@pytest.mark.parametrize("index", range(60))
def test_sampled_runs_and_one_mutation_each(index, arena_closes):
    report = Session.from_spec(SpecSampler(0).sample(index)).run()
    if not isinstance(report.history, History):
        pytest.skip("the scenario keeps no history")
    session_closes = len(arena_closes)
    rng = random.Random(index)
    kind = MUTATIONS[index % len(MUTATIONS)]
    for read_from in (report.read_from, mutated(report.history, report.read_from, rng, kind)):
        if read_from is not None:
            compare(report.history, read_from)
    assert set(arena_closes[session_closes:]) <= set(BUILDERS)


def pram_but_cyclic():
    """p1 runs ``r(x)←w2; w1(y)`` and p2 runs ``r(y)←w1; w2(x)``."""
    b = HistoryBuilder()
    b.read(1, "x", "w2").write(1, "y", "w1")
    b.read(2, "y", "w1").write(2, "x", "w2")
    return b.build()


def test_the_pram_but_cyclic_history_keeps_the_object_path(arena_closes):
    history = pram_but_cyclic()
    assert adapter.arena_from_history(history) is None
    causal = get_checker("causal").check(history)
    assert not causal.consistent and causal.exact
    assert causal.violations == ["p1: constraint relation is cyclic on the view",
                                 "p2: constraint relation is cyclic on the view"]
    pram = get_checker("pram").check(history)
    assert pram.consistent and pram.exact and sorted(pram.serializations) == [1, 2]
    assert arena_closes == []
    compare(history, history.read_from())


def test_a_writer_that_is_no_write_of_the_history_on_the_variable_keeps_the_object_path(
    arena_closes,
):
    b = HistoryBuilder()
    b.write(0, "x", 1).write(0, "y", 2)
    b.read(1, "x", 1)
    history = b.build()
    read = history.local(1).operations[0]
    for writer in (history.local(0).operations[1], read):  # a write on y; no write
        assert adapter.arena_from_history(history, {read: writer}) is None
        compare(history, {read: writer})
    stranger = Operation.write(0, "x", 1, index=0)  # not an operation of the history
    assert adapter.arena_from_history(history, {read: stranger}) is None
    for criterion in BUILDERS:  # the object path rejects the map, and so does the route
        with pytest.raises(RelationDomainError):
            get_checker(criterion).check(history, {read: stranger})
    assert arena_closes == []


def test_witnesses_are_the_callers_operations():
    b = HistoryBuilder()
    b.write(1, "x", "a").read(1, "x", "a").write(1, "y", "b")
    b.read(2, "y", "b").write(2, "y", "c")
    b.read(3, "x", "a").read(3, "y", "c")
    history = b.build()
    for criterion in BUILDERS:
        result = get_checker(criterion).check(history)
        assert isinstance(result.serializations, adapter.Witnesses)
        ops = {id(op) for op in history.operations}
        for witness in result.serializations.values():
            assert {id(op) for op in witness} <= ops
