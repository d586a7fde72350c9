"""Count-based guard of the view pre-check (seed-deterministic, no timing).

What one check is allowed to compute: a closure is taken once, and nothing on
a restriction of it — no second SCC pass, no Kahn pass — while the predecessor
sets of the exact search exist only for views with reads that reach ``solve()``.
"""

from collections import Counter

import pytest

from repro.core.consistency.criteria import CausalChecker, PRAMChecker
from repro.core.history import HistoryBuilder
from repro.core.orders import Relation
from repro.core.serialization import SerializationProblem
from repro.mcs.system import MCSystem
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import random_distribution


@pytest.fixture(scope="module")
def recorded():
    """A settled 4-process, 256-operation causally consistent run."""
    dist = random_distribution(processes=4, variables=6, replicas_per_variable=2, seed=5)
    system = MCSystem(dist, protocol="causal_partial")
    run_script(system, uniform_access_script(dist, operations_per_process=64, seed=5))
    assert len(system.history()) == 256
    return system.history(), system.read_from()


class Work:
    """SCC and Kahn passes run, problems created, problems that reached ``solve()``."""

    def __init__(self):
        self.passes = Counter()
        self.problems, self.solved = [], []

    def with_preds(self):
        return [problem for problem in self.problems if "_preds" in vars(problem)]


@pytest.fixture
def work(monkeypatch):
    work = Work()
    reachability, kahn = Relation._reachability, Relation.topological_order
    created, solve = SerializationProblem.__post_init__, SerializationProblem.solve

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

    monkeypatch.setattr(Relation, "_reachability", counted_reachability)
    monkeypatch.setattr(Relation, "topological_order", counted_kahn)
    monkeypatch.setattr(SerializationProblem, "__post_init__", recorded_creation)
    monkeypatch.setattr(SerializationProblem, "solve", recorded_solve)
    return work


def test_heuristic_causal_check_closes_once_and_builds_no_search_structure(recorded, work):
    history, read_from = recorded
    result = CausalChecker().check(history, read_from, exact=False)
    assert result.consistent and not result.exact
    assert len(work.problems) == 4
    assert (work.passes["scc"], work.passes["kahn"]) == (1, 0)  # the closure's own pass, nothing per view
    assert work.with_preds() == [] and work.solved == []


def test_exact_causal_check_builds_predecessor_sets_once_per_solved_view(recorded, work):
    history, read_from = recorded
    result = CausalChecker().check(history, read_from, exact=True)
    assert result.consistent and result.exact and sorted(result.serializations) == [0, 1, 2, 3]
    assert (work.passes["scc"], work.passes["kahn"]) == (1, 0)
    assert work.with_preds() == work.solved == work.problems


def test_a_view_the_precheck_rejects_builds_no_predecessor_sets(work):
    b = HistoryBuilder()
    b.write(1, "x", "a").write(1, "x", "b")
    b.read(2, "x", "b").read(2, "x", "a")  # p2 sees p1's writes against program order
    b.read(3, "x", "a").read(3, "x", "b")
    history = b.build()
    result = CausalChecker().check(history, exact=True)
    assert not result.consistent and [v[:3] for v in result.violations] == ["p2:"]
    p1, p2, p3 = work.problems
    assert work.solved == [p1, p3]  # p2's view never reaches solve()
    # p1's view has no read: the greedy path sorts it (the one Kahn pass) and
    # needs no predecessor sets either
    assert [p is p3 for p in work.with_preds()] == [True]
    assert (work.passes["scc"], work.passes["kahn"]) == (1, 1)


def test_pram_check_pays_one_scc_and_one_kahn_pass_per_view(recorded, work):
    """Its relation is not transitive (Definition 11), so each restriction is
    sorted and closed on its own — once."""
    history, read_from = recorded
    result = PRAMChecker().check(history, read_from, exact=False)
    assert result.consistent
    assert (work.passes["scc"], work.passes["kahn"]) == (4, 4)
    assert work.with_preds() == []
