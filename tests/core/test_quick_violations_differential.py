"""Differential test: the index-space view pre-check against the old one.

:func:`reference_quick_violations` is the Operation-space
``SerializationProblem.quick_violations`` as it stood before the pre-check
moved to integer probes, kept here verbatim as the oracle: restrict the
relation to the view, decide acyclicity with Kahn's algorithm, answer every
forced-before question with ``Relation.reachable``.  The one line that differs
makes the restriction forget whatever it remembers of being transitive, so the
oracle takes the Kahn and SCC passes it took then.  The new method must return
the same list — same strings, same order — on generated histories under every
relation builder (closed and not), on hostile views drawn on purpose, and on
every view the checkers themselves present while sixty sampled scenarios are
run, batch-checked under every criterion and replayed through windowed
monitors.  A causal window is decided on the arena, which has no
``quick_violations`` call; each of the replays' window decisions is also
made by the object path by name, :meth:`PerProcessChecker.check`, on the
window materialised, and must agree with it, so the views of a finite window
stay among the inputs.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.arena import adapter
from repro.core.consistency import PerProcessChecker, all_checkers
from repro.core.consistency.incremental import WindowedChecker
from repro.core.history import History, HistoryBuilder
from repro.core.operations import BOTTOM, Operation
from repro.core.orders import RELATION_BUILDERS, Relation, pram_generating_order
from repro.core.serialization import SerializationProblem
from repro.hunt import SpecSampler
from repro.serve.replay import replay_windowed
from repro.workloads.random_history import random_history

BUILDERS = dict(RELATION_BUILDERS, pram_generating=pram_generating_order)


def reference_quick_violations(ops, relation, read_from):
    # verbatim (``self.`` dropped) but for the line that builds ``restricted``
    violations = []
    restricted = unsealed(relation.restricted_to(ops))
    if not restricted.is_acyclic():
        violations.append("constraint relation is cyclic on the view")
        return violations
    forced_before = restricted.reachable

    ops_set = set(ops)
    writes_by_var = {}
    for op in ops:
        if op.is_write:
            writes_by_var.setdefault(op.variable, []).append(op)

    for read in ops:
        if not read.is_read:
            continue
        writer = read_from.get(read)
        if writer is None:
            # read of the initial value: no write on the variable may be
            # forced before the read.
            for w in writes_by_var.get(read.variable, []):
                if forced_before(w, read):
                    violations.append(
                        f"{read.label()} returns ⊥ but {w.label()} precedes it"
                    )
        else:
            if writer not in ops_set:
                violations.append(
                    f"{read.label()} reads from {writer.label()} which is not in the view"
                )
                continue
            if forced_before(read, writer):
                violations.append(
                    f"{read.label()} is constrained to precede its writer {writer.label()}"
                )
            for w in writes_by_var.get(read.variable, []):
                if w == writer:
                    continue
                if forced_before(writer, w) and forced_before(w, read):
                    violations.append(
                        f"{w.label()} is forced between {writer.label()} and {read.label()}"
                    )
    return violations


def unsealed(relation):
    """Same universe, same edges (self-edges of a cyclic closure included), no
    memory of being transitive: a union never has any."""
    return relation.union(Relation(relation.universe))


def relations_of(history, read_from, builders):
    """Each builder's relation over ``history``, as built and closed."""
    for name in builders:
        built = BUILDERS[name]
        relation = built(history) if name == "program" else built(history, read_from)
        yield relation
        yield relation.transitive_closure()


def views_of(history, read_from, rng):
    """``(view, read-from)`` pairs: the per-process views, the whole history,
    nothing, and a random part of the history (reads lose their writers) plus
    operations no relation has in its universe — a write, a read of it, a read
    of a write of the history, and a read of the history re-pointed at it."""
    ops = history.operations
    for pid in history.processes:
        yield history.sub_history_plus_writes(pid), read_from
    yield ops, read_from
    yield (), read_from
    part = tuple(op for op in ops if rng.random() < 0.7)
    stray = Operation.write(90, "x0", "stray", index=0)
    mapping = {**read_from, Operation.read(91, "x0", "stray", index=0): stray}
    if history.writes:
        mapping[Operation.read(91, "x0", "known", index=1)] = rng.choice(history.writes)
    if history.reads:
        mapping[rng.choice(history.reads)] = stray
    yield part + (stray,) + tuple(op for op in mapping if op.process == 91), mapping


KINDS = {"not in the view": "absent", "precede its writer": "inverted", "returns ⊥": "bottom",
         "is cyclic": "cyclic", "forced between": "between"}


def assert_same_lists(history, read_from, rng, builders=tuple(BUILDERS)):
    """Compare on every relation x view of ``history``; the findings, by kind."""
    kinds = set()
    for relation in relations_of(history, read_from, builders):
        for view, mapping in views_of(history, read_from, rng):
            expected = reference_quick_violations(view, relation, mapping)
            found = SerializationProblem(view, relation, mapping).quick_violations()
            assert found == expected, (relation.name, [op.label() for op in view])
            kinds.update(kind for text, kind in KINDS.items() if any(text in v for v in found))
    return kinds


def tampered(history, rng):
    """A read-from mapping that lies: reads re-pointed at any write of their
    variable (later ones of their own process included: cycles, and reads
    forced before their writer) or at the initial value after a write."""
    read_from = history.read_from()
    for read in history.reads:
        roll = rng.random()
        if roll < 0.3:
            read_from[read] = rng.choice(history.writes_on(read.variable))
        elif roll < 0.4:
            read_from[read] = None
    return read_from


@given(seed=st.integers(0, 100_000), processes=st.integers(1, 5),
       operations=st.integers(0, 40), variables=st.integers(1, 3), lie=st.booleans())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_histories(seed, processes, operations, variables, lie):
    history = random_history(processes, variables, operations, seed=seed)
    rng = random.Random(seed)
    read_from = tampered(history, rng) if lie else history.read_from()
    assert_same_lists(history, read_from, rng)


def test_every_kind_of_finding_is_drawn():
    """The generator reaches each bad pattern, so the comparison above is not
    between empty lists: fixed seeds, every kind of finding seen."""
    kinds = set()
    for seed in range(12):
        history = random_history(4, 2, 30, seed=seed)
        rng = random.Random(seed)
        kinds |= assert_same_lists(history, tampered(history, rng), rng)
    assert kinds == set(KINDS.values())


def test_hostile_views_by_hand():
    b = HistoryBuilder()
    b.write(0, "x", 1).write(0, "x", 2).read(0, "x", BOTTOM)
    b.read(1, "x", 2).read(1, "x", 1).write(1, "y", 3)
    history = b.build()
    w1, w2, bottom, r2, r1, wy = history.operations
    read_from = {bottom: None, r2: w2, r1: w1}
    causal = BUILDERS["causal"](history, read_from)

    def both(view, relation, mapping):
        found = SerializationProblem(view, relation, mapping).quick_violations()
        assert found == reference_quick_violations(view, relation, mapping)
        return found

    assert both((w2, r2, r1), causal, read_from) == [
        "r1(x)1 reads from w0(x)1 which is not in the view"]
    assert both(history.operations, causal, read_from) == [
        "r0(x)⊥ returns ⊥ but w0(x)1 precedes it",
        "r0(x)⊥ returns ⊥ but w0(x)2 precedes it",
        "w0(x)2 is forced between w0(x)1 and r1(x)1"]
    program = BUILDERS["program"](history)
    assert both(history.operations, program, {bottom: None, r2: w2, r1: wy}) == [
        "r0(x)⊥ returns ⊥ but w0(x)1 precedes it",
        "r0(x)⊥ returns ⊥ but w0(x)2 precedes it",
        "r1(x)1 is constrained to precede its writer w1(y)3"]
    cyclic = BUILDERS["causal"](history, {bottom: None, r2: w2, r1: wy})
    assert both(history.operations, cyclic, read_from) == [
        "constraint relation is cyclic on the view"]
    stray = Operation.read(7, "x", 1, index=0)
    assert both((w1, w2, stray), causal, {stray: w1}) == []
    assert both((), causal, {}) == []


@pytest.fixture
def compared(monkeypatch):
    """Every ``quick_violations`` call, wherever it comes from, is compared."""
    new_quick_violations = SerializationProblem.quick_violations
    calls = []

    def both(problem):
        found = new_quick_violations(problem)
        assert found == reference_quick_violations(
            problem.ops, problem.relation, problem.read_from), problem.relation.name
        calls.append(len(problem.ops))
        return found

    monkeypatch.setattr(SerializationProblem, "quick_violations", both)
    return calls


@pytest.mark.parametrize("index", range(60))
def test_sampled_scenarios_and_their_windows(index, tmp_path, compared, monkeypatch):
    spec = SpecSampler(0).sample(index)
    trace = str(tmp_path / "run.jsonl") if spec.app is None else None
    report = Session.from_spec(spec, trace_out=trace).run()
    if isinstance(report.history, History):
        for checker in all_checkers().values():
            checker.check(report.history, read_from=report.read_from, exact=False)
        assert len(compared) >= len(all_checkers())
    if trace is not None:
        decide = WindowedChecker._decide

        def both(window, exact):
            result = decide(window, exact)
            history = adapter.history_from_arena(window._arena, window._cache)
            read_from = adapter.read_from_of(window._arena, window._cache)
            expected = PerProcessChecker(BUILDERS["causal"], "causal").check(
                history, read_from, exact)
            assert (result.consistent, result.exact, result.violations) == \
                (expected.consistent, expected.exact, expected.violations)
            return result

        monkeypatch.setattr(WindowedChecker, "_decide", both)
        for window in (8, 64):
            before = len(compared)
            _, metrics = replay_windowed(trace, criterion="causal", window=window,
                                         policy="every:4")
            assert len(compared) > before or metrics.ops_fed < 4
