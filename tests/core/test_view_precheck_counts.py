"""Count-based guard of the view checks (seed-deterministic, no timing).

What one check is allowed to compute: a closure is taken once, and nothing on
a restriction of it — no second SCC pass, no Kahn pass — and no causal or
PRAM view ever reaches the backtracking search: saturation decides every one
of them, whatever its size.  Only views whose reads are not a chain (here: a
sequential check of two processes) still search.

The causal and PRAM guards count the object per-view path,
:meth:`PerProcessChecker.check`: ``CausalChecker`` and ``PRAMChecker`` decide
these histories on the arena, which builds no relation and no
:class:`SerializationProblem` at all.

The arena guards count its bad-pattern passes: an exact check saturates every
view and names violations only on the views saturation rejects, so a
consistent run makes none; ``exact=False`` and ``check_now`` make one per
view.
"""

import random
from collections import Counter

import pytest

from repro.api import Session
from repro.arena.check import ArenaBatchChecker
from repro.core.consistency import PerProcessChecker, get_checker
from repro.core.consistency.sequential import SequentialChecker
from repro.core.history import History, HistoryBuilder
from repro.core.orders import Relation, causal_order, pram_generating_order
from repro.core.serialization import SerializationProblem
from repro.experiments import builtin_scenarios
from repro.hunt import SpecSampler
from repro.mcs.system import MCSystem
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import random_distribution
from repro.workloads.random_history import random_history
from test_quick_violations_differential import tampered


def object_checker(criterion):
    """The object per-view path of the causal or PRAM check."""
    builders = {"causal": causal_order, "pram": pram_generating_order}
    return PerProcessChecker(builders[criterion], criterion)


@pytest.fixture(scope="module")
def recorded():
    """A settled 4-process, 256-operation causally consistent run."""
    dist = random_distribution(processes=4, variables=6, replicas_per_variable=2, seed=5)
    system = MCSystem(dist, protocol="causal_partial")
    run_script(system, uniform_access_script(dist, operations_per_process=64, seed=5))
    assert len(system.history()) == 256
    return system.history(), system.read_from()


class Work:
    """SCC and Kahn passes run, problems created, problems that reached the search."""

    def __init__(self):
        self.passes = Counter()
        self.problems, self.solved, self.searched = [], [], []

    def with_preds(self):
        return [problem for problem in self.problems if "_preds" in vars(problem)]


@pytest.fixture
def work(monkeypatch):
    work = Work()
    reachability, kahn = Relation._reachability, Relation.topological_order
    created, solve = SerializationProblem.__post_init__, SerializationProblem.solve
    search = SerializationProblem.search

    def counted_reachability(relation):
        work.passes["scc"] += relation._reach is None
        return reachability(relation)

    def counted_kahn(relation):
        work.passes["kahn"] += 1
        return kahn(relation)

    def recorded_creation(problem):
        work.problems.append(problem)
        created(problem)

    def recorded_solve(problem):
        work.solved.append(problem)
        return solve(problem)

    def recorded_search(problem):
        work.searched.append(problem)
        return search(problem)

    monkeypatch.setattr(Relation, "_reachability", counted_reachability)
    monkeypatch.setattr(Relation, "topological_order", counted_kahn)
    monkeypatch.setattr(SerializationProblem, "__post_init__", recorded_creation)
    monkeypatch.setattr(SerializationProblem, "solve", recorded_solve)
    monkeypatch.setattr(SerializationProblem, "search", recorded_search)
    return work


def test_heuristic_causal_check_closes_once_and_builds_no_search_structure(recorded, work):
    history, read_from = recorded
    result = object_checker("causal").check(history, read_from, exact=False)
    assert result.consistent and not result.exact
    assert len(work.problems) == 4
    assert (work.passes["scc"], work.passes["kahn"]) == (1, 0)  # the closure's own pass, nothing per view
    assert work.with_preds() == [] and work.solved == []


@pytest.mark.parametrize("checker, passes", [(object_checker("causal"), (1, 0)), (object_checker("pram"), (4, 4))],
                         ids=["causal", "pram"])
def test_exact_check_of_a_recorded_run_never_searches(recorded, work, checker, passes):
    """Causal closes once; PRAM sorts and closes each restriction once, in the
    pre-check — saturation reuses those rows."""
    history, read_from = recorded
    result = checker.check(history, read_from, exact=True)
    assert result.consistent and result.exact and sorted(result.serializations) == [0, 1, 2, 3]
    assert (work.passes["scc"], work.passes["kahn"]) == passes
    assert work.solved == work.problems and work.searched == [] and work.with_preds() == []


def test_a_view_the_precheck_rejects_never_reaches_solve(work):
    b = HistoryBuilder()
    b.write(1, "x", "a").write(1, "x", "b")
    b.read(2, "x", "b").read(2, "x", "a")  # p2 sees p1's writes against program order
    b.read(3, "x", "a").read(3, "x", "b")
    history = b.build()
    result = object_checker("causal").check(history, exact=True)
    assert not result.consistent and [v[:3] for v in result.violations] == ["p2:"]
    p1, p2, p3 = work.problems
    assert work.solved == [p1, p3]  # p2's view never reaches solve()
    assert work.searched == []  # p1's view has no read, p3's reads are a chain
    assert (work.passes["scc"], work.passes["kahn"]) == (1, 0)


def test_pram_check_pays_one_scc_and_one_kahn_pass_per_view(recorded, work):
    """Its relation is not transitive (Definition 11), so each restriction is
    sorted and closed on its own — once."""
    history, read_from = recorded
    result = object_checker("pram").check(history, read_from, exact=False)
    assert result.consistent
    assert (work.passes["scc"], work.passes["kahn"]) == (4, 4)
    assert work.with_preds() == []


SUITE_SPECS = [point.spec for experiment in builtin_scenarios()
               if experiment.suite in ("paper", "stress", "faults") for point in experiment.expand()]


def test_no_view_of_a_suite_point_or_sampled_run_searches(work):
    checked = 0
    for spec in SUITE_SPECS + [SpecSampler(0).sample(index) for index in range(60)]:
        report = Session.from_spec(spec).run()  # its own checks may search (sequential)
        if not isinstance(report.history, History):
            continue
        solved, searched = len(work.solved), len(work.searched)
        for checker in (object_checker("causal"), object_checker("pram")):
            result = checker.check(report.history, read_from=report.read_from, exact=True)
            assert result.exact, (spec.name, checker.name)
            checked += 1
        assert len(work.solved) > solved and len(work.searched) == searched, spec.name
    assert checked >= 200


def test_the_1000_operation_scale_pram_shape_is_decided_exactly_without_search(work):
    """The shape on which the backtracking search ran past a minute."""
    dist = random_distribution(processes=4, variables=8, replicas_per_variable=2, seed=3)
    script = uniform_access_script(dist, 250, 0.4, seed=3)
    report = Session("pram_partial", dist, script, seed=3, check=False).run()
    assert len(report.history) == 1000
    for checker in (object_checker("causal"), object_checker("pram")):
        result = checker.check(report.history, report.read_from, exact=True)
        assert result.consistent and result.exact and len(result.serializations) == 4
    assert len(work.solved) == 8 and work.searched == []


def test_a_sequential_check_of_two_processes_still_searches(work):
    b = HistoryBuilder()
    b.write(1, "x", "a").read(1, "y", "b")
    b.write(2, "y", "b").read(2, "x", "a")
    result = SequentialChecker().check(b.build(), exact=True)
    assert result.consistent and result.exact
    assert len(work.searched) == 1


def scale_pram_session(**options):
    """The 1 000-operation ``scale_pram`` shape of the test above."""
    dist = random_distribution(processes=4, variables=8, replicas_per_variable=2, seed=3)
    script = uniform_access_script(dist, 250, 0.4, seed=3)
    return Session("pram_partial", dist, script, seed=3, **options)


@pytest.fixture
def bad_pattern_passes(monkeypatch):
    """The view of every arena bad-pattern pass, in call order."""
    views = []
    bad_patterns = ArenaBatchChecker._bad_patterns

    def counted(checker, p, *args):
        views.append(p)
        return bad_patterns(checker, p, *args)

    monkeypatch.setattr(ArenaBatchChecker, "_bad_patterns", counted)
    return views


@pytest.mark.parametrize("criterion", ["causal", "pram"])
def test_an_exact_check_of_a_consistent_run_runs_no_bad_pattern_pass(criterion, bad_pattern_passes):
    report = scale_pram_session(criteria=(criterion,), exact=True).run()
    assert report.consistent and report.exact
    result = get_checker(criterion).check(report.history, report.read_from, exact=True)
    assert result.consistent and result.exact and len(result.serializations) == 4
    assert bad_pattern_passes == []


def test_an_inconsistent_exact_check_runs_one_pass_per_rejected_view(bad_pattern_passes):
    b = HistoryBuilder()
    b.write(1, "x", "a").write(1, "x", "b")
    b.read(2, "x", "b").read(2, "x", "a")  # p2 and p3 see p1's writes against program order
    b.read(3, "x", "b").read(3, "x", "a")
    b.read(4, "x", "a").read(4, "x", "b")
    result = get_checker("causal").check(b.build(), exact=True)
    assert result.exact and [v[:3] for v in result.violations] == ["p2:", "p3:"]
    assert bad_pattern_passes == [2, 3]


def test_a_view_only_saturation_rejects_still_runs_its_pass(bad_pattern_passes):
    """p2's pass finds nothing, so its verdict names no operation; p1 has bad
    patterns, and p0 and p3 are consistent."""
    history = random_history(4, 2, 30, seed=94)
    read_from = tampered(history, random.Random(94))
    result = get_checker("causal").check(history, read_from, exact=True)
    assert sorted(result.serializations) == [0, 3]
    assert "p2: no legal serialization of H_{2+w} respects causal" in result.violations
    assert bad_pattern_passes == [1, 2]


@pytest.mark.parametrize("criterion", ["causal", "pram"])
def test_heuristic_checks_and_check_now_run_one_pass_per_view(criterion, bad_pattern_passes):
    session = scale_pram_session(check=False)
    report = session.run()
    result = get_checker(criterion).check(report.history, report.read_from, exact=False)
    assert result.consistent and not result.exact
    assert bad_pattern_passes == [0, 1, 2, 3]
    del bad_pattern_passes[:]
    assert ArenaBatchChecker(criterion, session.recorder.arena).check_now() is None
    assert bad_pattern_passes == [0, 1, 2, 3]
