"""Property tests: the bitset Relation must match a dict-of-sets reference.

The seed implementation of :class:`repro.core.orders.Relation` kept plain
adjacency sets; it was replaced by integer bitmasks with lazily cached
reachability.  These tests rebuild the old representation as a small oracle
and check, on randomly generated relations over random histories, that every
query of the new implementation agrees with it — including on cyclic inputs,
where transitive closure and reachability are the easiest to get wrong.
"""

import pickle
import random

import pytest

from repro.core.orders import (
    Relation,
    causal_order,
    full_program_order,
    lazy_causal_order,
    pram_generating_order,
    slow_relation,
)
from repro.workloads.random_history import random_history


class DictRelationOracle:
    """The seed dict-of-sets semantics, kept minimal on purpose."""

    def __init__(self, universe, edges=()):
        self.universe = tuple(universe)
        self.succ = {op: set() for op in self.universe}
        for a, b in edges:
            if a != b:
                self.succ[a].add(b)

    def reachable_set(self, op):
        stack = list(self.succ[op])
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.succ[cur])
        return seen

    def closure_edges(self):
        return {(a, b) for a in self.universe for b in self.reachable_set(a)}

    def is_acyclic(self):
        return all(op not in self.reachable_set(op) for op in self.universe)


def random_relation(history, rng, density=0.15):
    """A random (frequently cyclic) relation plus its oracle twin."""
    ops = history.operations
    rel = Relation(ops, "random")
    edges = []
    for a in ops:
        for b in ops:
            if a != b and rng.random() < density:
                edges.append((a, b))
    rel.add_edges(edges)
    return rel, DictRelationOracle(ops, edges)


@pytest.mark.parametrize("seed", range(8))
def test_random_relations_match_dict_oracle(seed):
    rng = random.Random(seed)
    history = random_history(processes=3, variables=3, operations=14, seed=seed)
    rel, oracle = random_relation(history, rng)
    ops = history.operations

    assert rel.is_acyclic() == oracle.is_acyclic()
    assert rel.edge_count() == sum(len(s) for s in oracle.succ.values())
    for a in ops:
        assert rel.successors(a) == frozenset(oracle.succ[a])
        reach = oracle.reachable_set(a)
        for b in ops:
            assert rel.precedes(a, b) == (b in oracle.succ[a])
            assert rel.reachable(a, b) == (b in reach), (a, b)

    closed = rel.transitive_closure()
    assert set(closed.edges()) == oracle.closure_edges()


@pytest.mark.parametrize("seed", range(8))
def test_mutation_after_reachability_query_invalidates_cache(seed):
    rng = random.Random(seed)
    history = random_history(processes=3, variables=2, operations=10, seed=seed)
    rel, oracle = random_relation(history, rng, density=0.1)
    ops = history.operations
    # Populate the lazy cache, then mutate and re-compare everything.
    rel.reachable(ops[0], ops[-1])
    extra = [(ops[-1], ops[0]), (ops[1], ops[-2])]
    for a, b in extra:
        rel.add(a, b)
        oracle.succ[a].add(b)
    for a in ops:
        reach = oracle.reachable_set(a)
        for b in ops:
            assert rel.reachable(a, b) == (b in reach)


def assert_matches_oracle(rel, oracle):
    for a in oracle.universe:
        reach = oracle.reachable_set(a)
        for b in oracle.universe:
            assert rel.precedes(a, b) == (b in oracle.succ[a]), (a, b)
            assert rel.reachable(a, b) == (b in reach), (a, b)
            assert rel.reaches(rel.index_of(a), rel.index_of(b)) == (b in reach), (a, b)
    assert rel.is_acyclic() == oracle.is_acyclic()


@pytest.mark.parametrize("seed", range(8))
def test_closure_then_add_then_query_matches_dict_oracle(seed):
    """A closure's reachability rows are its edge rows; ``add()`` must part
    them, or the mutated row would pass for reachability."""
    rng = random.Random(seed)
    history = random_history(processes=3, variables=2, operations=10, seed=seed)
    rel, oracle = random_relation(history, rng, density=0.06)
    ops = history.operations
    closed = rel.transitive_closure()
    twin = DictRelationOracle(ops)
    for a, b in oracle.closure_edges():
        twin.succ[a].add(b)  # the members of a cycle reach themselves
    assert_matches_oracle(closed, twin)
    assert closed.predecessors(ops[0]) == frozenset(a for a in ops if ops[0] in twin.succ[a])
    for a, b in [(ops[-1], ops[0]), (ops[1], ops[-2]), (ops[2], ops[3])]:
        closed.add(a, b)
        twin.succ[a].add(b)
        assert_matches_oracle(closed, twin)


@pytest.mark.parametrize("seed", range(8))
def test_restricted_and_pickled_closures_match_dict_oracle(seed):
    """Restricting a closure keeps it a closure — a cycle that ran through a
    dropped operation still shows, as an operation reaching itself — and so
    does pickling one (a relation crossing a process boundary)."""
    rng = random.Random(seed)
    history = random_history(processes=3, variables=2, operations=12, seed=seed)
    rel, oracle = random_relation(history, rng, density=0.06)
    keep = [op for op in history.operations if rng.random() < 0.6]
    closed = rel.transitive_closure()
    for relation in (closed, pickle.loads(pickle.dumps(closed))):
        sub = relation.restricted_to(keep)
        shipped = pickle.loads(pickle.dumps(sub))
        for a in keep:
            reach = oracle.reachable_set(a)
            for b in keep:
                for candidate in (sub, shipped):
                    assert candidate.reachable(a, b) == (b in reach), (a, b)
        cyclic = any(a in oracle.reachable_set(a) for a in keep)
        assert sub.is_acyclic() == shipped.is_acyclic() == (not cyclic)
        assert relation.is_acyclic() == oracle.is_acyclic()
        assert (sub.topological_order() is None) == cyclic


@pytest.mark.parametrize("seed", range(6))
def test_restriction_and_union_match_dict_oracle(seed):
    rng = random.Random(seed)
    history = random_history(processes=3, variables=3, operations=12, seed=seed)
    rel, oracle = random_relation(history, rng)
    ops = history.operations

    keep = [op for op in ops if rng.random() < 0.6]
    sub = rel.restricted_to(keep)
    keep_set = set(keep)
    expected = {
        (a, b) for a in keep_set for b in oracle.succ[a] if b in keep_set
    }
    assert set(sub.edges()) == expected
    assert sub.universe == tuple(op for op in ops if op in keep_set)

    other, other_oracle = random_relation(history, rng, density=0.1)
    merged = rel.union(other)
    expected_union = {
        (a, b) for a in ops for b in oracle.succ[a] | other_oracle.succ[a]
    }
    assert set(merged.edges()) == expected_union


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "builder",
    [full_program_order, causal_order, lazy_causal_order, pram_generating_order, slow_relation],
)
def test_paper_relations_reachability_matches_oracle(builder, seed):
    history = random_history(processes=3, variables=2, operations=12, seed=seed)
    args = (history,) if builder is full_program_order else (history, history.read_from())
    rel = builder(*args)
    oracle = DictRelationOracle(history.operations, rel.edges())
    for a in history.operations:
        reach = oracle.reachable_set(a)
        for b in history.operations:
            assert rel.reachable(a, b) == (b in reach)
    assert rel.is_acyclic() == oracle.is_acyclic()


def oracle_precheck(history, relation, read_from):
    """The polynomial pre-check on the dict-of-sets closure: per view, restrict
    the relation, close it, reject cycles and bad patterns."""
    consistent = True
    edges = list(relation.edges())
    for pid in history.processes:
        view = history.sub_history_plus_writes(pid)
        ops = set(view)
        oracle = DictRelationOracle(
            view, [(a, b) for a, b in edges if a in ops and b in ops])
        reach = {op: oracle.reachable_set(op) for op in view}
        if any(op in reach[op] for op in view):
            consistent = False
            continue
        for read in view:
            if not read.is_read:
                continue
            rivals = [w for w in view if w.is_write and w.variable == read.variable]
            writer = read_from.get(read)
            if writer is None:
                bad = any(read in reach[w] for w in rivals)
            else:
                bad = writer not in ops or writer in reach[read] or any(
                    w is not writer and w in reach[writer] and read in reach[w]
                    for w in rivals)
            consistent = consistent and not bad
    return consistent


@pytest.mark.parametrize("criterion", ["pram", "causal", "slow"])
def test_precheck_verdicts_match_dict_oracle_at_stress_scale(criterion, stress_system):
    """Pass *and* fail: the 520-operation run, and a history in which one
    process observes two program-ordered writes in the wrong order."""
    from repro.core.consistency import get_checker
    from repro.core.history import HistoryBuilder

    b = HistoryBuilder()
    b.write(1, "x", "a").write(1, "x", "b")
    b.read(2, "x", "b").read(2, "x", "a")
    for i in range(40):
        b.write(3, f"pad{i}", i)
    tampered = b.build()

    checker = get_checker(criterion)
    cases = ((stress_system.history(), stress_system.read_from(), True),
             (tampered, tampered.read_from(), False))
    for history, read_from, expected in cases:
        relation = checker.relation(history, read_from)
        verdict = checker.check(history, read_from, exact=False).consistent
        assert verdict == oracle_precheck(history, relation, read_from) == expected
