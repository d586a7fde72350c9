"""Benchmarks of the consistency-checking machinery itself.

These measure the cost of the verification layer (the exact search with its
greedy fast path) on protocol-sized histories — the practical price of
"consistency benchmarks" when the substrate is a simulator rather than the
authors' testbed.

The stress-sized benchmarks at the bottom carry the before/after evidence for
the bitset ``Relation`` rework: ``_SeedDictRelation`` reimplements the seed's
dict-of-sets representation (materialised transitive closure per view) and
``test_bitset_engine_speedup_over_seed_closure`` asserts the new engine is at
least 3× faster on a 500+ operation history while returning the same verdict.
"""

import time

import pytest

from bench_cases import build_stress_case
from repro.apps.bellman_ford import run_distributed_bellman_ford
from repro.core.consistency import get_checker
from repro.mcs.system import MCSystem
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import random_distribution
from repro.workloads.topology import figure8_network


@pytest.fixture(scope="module")
def bellman_ford_history():
    run = run_distributed_bellman_ford(figure8_network(), source=1)
    return run.report.history, run.report.read_from


@pytest.fixture(scope="module")
def protocol_histories():
    out = {}
    for protocol in ("pram_partial", "causal_full"):
        dist = random_distribution(processes=6, variables=8, replicas_per_variable=3, seed=1)
        system = MCSystem(dist, protocol=protocol)
        run_script(system, uniform_access_script(dist, operations_per_process=10, seed=1))
        out[protocol] = (system.history(), system.read_from())
    return out


def test_pram_check_on_bellman_ford_history(benchmark, bellman_ford_history):
    history, read_from = bellman_ford_history
    checker = get_checker("pram")
    result = benchmark(checker.check, history, read_from)
    assert result.consistent


def test_slow_check_on_bellman_ford_history(benchmark, bellman_ford_history):
    history, read_from = bellman_ford_history
    checker = get_checker("slow")
    result = benchmark(checker.check, history, read_from)
    assert result.consistent


def test_pram_check_on_protocol_trace(benchmark, protocol_histories):
    history, read_from = protocol_histories["pram_partial"]
    result = benchmark(get_checker("pram").check, history, read_from)
    assert result.consistent


def test_causal_check_on_protocol_trace(benchmark, protocol_histories):
    history, read_from = protocol_histories["causal_full"]
    result = benchmark(get_checker("causal").check, history, read_from)
    assert result.consistent


def test_sequential_check_on_small_history(benchmark, protocol_histories):
    # Sequential consistency checking is NP-hard; keep the instance small.
    from repro.workloads.random_history import serial_history

    history = serial_history(processes=4, variables=3, operations=24, seed=3)
    result = benchmark(get_checker("sequential").check, history)
    assert result.consistent


# ---------------------------------------------------------------------------
# Stress-suite-sized histories: before/after evidence for the bitset engine
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def stress_history():
    """A 500+ operation protocol trace (stress-suite scale)."""
    return build_stress_case()


class _SeedDictRelation:
    """The seed's dict-of-sets Relation, reduced to what the pre-check used."""

    def __init__(self, universe):
        self._universe = tuple(universe)
        self._succ = {op: set() for op in self._universe}
        self._pred = {op: set() for op in self._universe}

    def add(self, first, second):
        if first == second:
            return
        self._succ[first].add(second)
        self._pred[second].add(first)

    def precedes(self, first, second):
        return second in self._succ.get(first, ())

    def restricted_to(self, ops):
        keep_set = set(ops)
        keep = [op for op in self._universe if op in keep_set]
        sub = _SeedDictRelation(keep)
        for op, succs in self._succ.items():
            if op in keep_set:
                for nxt in succs:
                    if nxt in keep_set:
                        sub.add(op, nxt)
        return sub

    def transitive_closure(self):
        closed = _SeedDictRelation(self._universe)
        for op in self._universe:
            stack = list(self._succ[op])
            seen = set()
            while stack:
                cur = stack.pop()
                if cur in seen:
                    continue
                seen.add(cur)
                stack.extend(self._succ[cur])
            for reach in seen:
                closed.add(op, reach)
        return closed

    def is_acyclic(self):
        indegree = {op: len(self._pred[op]) for op in self._universe}
        ready = [op for op in self._universe if indegree[op] == 0]
        count = 0
        while ready:
            op = ready.pop()
            count += 1
            for nxt in self._succ[op]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        return count == len(self._universe)


def _seed_heuristic_check(history, relation, read_from):
    """The seed PerProcessChecker pre-check path, with its size gate removed.

    Faithful to the seed algorithm: per view, restrict the relation, take the
    *materialised* transitive closure, then scan for bad patterns.  (In the
    seed this entire body was silently skipped for views above 300
    operations; here it always runs, so the comparison measures the honest
    before-cost.)
    """
    seed_rel = _SeedDictRelation(relation.universe)
    for a, b in relation.edges():
        seed_rel.add(a, b)
    consistent = True
    for pid in history.processes:
        view = history.sub_history_plus_writes(pid)
        restricted = seed_rel.restricted_to(view)
        closed = restricted.transitive_closure()
        if not restricted.is_acyclic():
            consistent = False
            continue
        ops_set = set(view)
        writes_by_var = {}
        for op in view:
            if op.is_write:
                writes_by_var.setdefault(op.variable, []).append(op)
        for read in view:
            if not read.is_read:
                continue
            writer = read_from.get(read)
            if writer is None:
                for w in writes_by_var.get(read.variable, []):
                    if closed.precedes(w, read):
                        consistent = False
            else:
                if writer not in ops_set:
                    consistent = False
                    continue
                if closed.precedes(read, writer):
                    consistent = False
                for w in writes_by_var.get(read.variable, []):
                    if w is not writer and closed.precedes(writer, w) and closed.precedes(w, read):
                        consistent = False
    return consistent


def test_stress_precheck_with_bitset_engine(benchmark, stress_history):
    # The stress suite checks with exact=False: the backtracking search is
    # exponential and intractable at this size under any representation, so
    # the polynomial pre-check *is* the verification story at scale.
    history, read_from = stress_history
    checker = get_checker("pram")
    result = benchmark(checker.check, history, read_from, False)
    assert result.consistent


def test_bitset_engine_speedup_over_seed_closure(stress_history):
    """≥3× on a 500+ op history, identical verdict to the seed implementation."""
    history, read_from = stress_history
    checker = get_checker("pram")
    relation = checker.relation(history, read_from)

    # Best-of-3 on BOTH sides so transient host load cannot skew the ratio.
    seed_elapsed = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        seed_verdict = _seed_heuristic_check(history, relation, read_from)
        seed_elapsed = min(seed_elapsed, time.perf_counter() - started)

    new_elapsed = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        result = checker.check(history, read_from, exact=False)
        new_elapsed = min(new_elapsed, time.perf_counter() - started)

    assert result.consistent == seed_verdict
    speedup = seed_elapsed / new_elapsed
    print(f"\nseed closure pre-check: {seed_elapsed * 1e3:.1f} ms, "
          f"bitset pre-check: {new_elapsed * 1e3:.1f} ms, speedup: {speedup:.1f}x")
    assert speedup >= 3.0, f"expected >=3x speedup, measured {speedup:.2f}x"


@pytest.mark.parametrize("criterion", ["pram", "causal", "slow"])
def test_bitset_engine_verdicts_match_seed_closure(criterion, stress_history):
    """The new pre-check agrees with the seed closure on pass *and* fail."""
    from repro.core.history import HistoryBuilder

    history, read_from = stress_history
    # A tampered variant: flip one process' observation of two program-ordered
    # writes, which every per-process criterion here must reject.
    b = HistoryBuilder()
    b.write(1, "x", "a").write(1, "x", "b")
    b.read(2, "x", "b").read(2, "x", "a")
    for i in range(40):
        b.write(3, f"pad{i}", i)
    bad = b.build()

    checker = get_checker(criterion)
    for h, rf in ((history, read_from), (bad, bad.read_from())):
        relation = checker.relation(h, rf)
        assert checker.check(h, rf, exact=False).consistent == _seed_heuristic_check(
            h, relation, rf
        )
