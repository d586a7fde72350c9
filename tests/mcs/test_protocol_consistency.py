"""Integration tests: every protocol produces histories its criterion accepts.

These are the library-level counterparts of the paper's claims:

* the partial-replication PRAM protocol produces PRAM-consistent histories
  while sending information about a variable only to its replicas (Theorem 2
  / Section 5);
* the causal protocols produce causally consistent histories, but only by
  handling control information about variables the processes do not
  replicate (Theorem 1 / Section 3.3) — and the ablated variant that refuses
  to relay such information produces causal violations on hoop-shaped
  workloads (the impossibility result made executable);
* the sequencer protocol produces sequentially consistent histories.
"""

import pytest

from repro.core.consistency import get_checker
from repro.core.dependency import has_external_chain
from repro.core.distribution import VariableDistribution
from repro.core.relevance import verify_theorem2
from repro.mcs.metrics import relevance_violations
from repro.mcs.system import PROTOCOL_CRITERION, MCSystem
from repro.netsim.latency import LatencyModel, UniformLatency
from repro.workloads.access_patterns import (
    run_script,
    single_writer_script,
    uniform_access_script,
)
from repro.workloads.distributions import chain_distribution, random_distribution


def run(distribution, protocol, script, latency=None, protocol_options=None):
    system = MCSystem(distribution, protocol=protocol, latency=latency,
                      protocol_options=protocol_options)
    run_script(system, script)
    return system


@pytest.mark.parametrize("protocol", sorted(PROTOCOL_CRITERION))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_protocols_enforce_their_criterion_on_random_workloads(protocol, seed):
    distribution = random_distribution(processes=5, variables=6,
                                       replicas_per_variable=3, seed=seed)
    script = uniform_access_script(distribution, operations_per_process=8,
                                   write_fraction=0.6, seed=seed)
    system = run(distribution, protocol, script,
                 latency=UniformLatency(0.5, 1.5, seed=seed))
    checker = get_checker(PROTOCOL_CRITERION[protocol])
    result = checker.check(system.history(), read_from=system.read_from())
    assert result.consistent, (protocol, result.violations[:3])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_pram_partial_is_efficient_in_the_paper_sense(seed):
    distribution = chain_distribution(3, studied_variable="x")
    script = single_writer_script(distribution, writes_per_variable=5,
                                  reads_per_replica=5, seed=seed)
    system = run(distribution, "pram_partial", script)
    # (1) the history is PRAM consistent,
    checker = get_checker("pram")
    assert checker.check(system.history(), read_from=system.read_from()).consistent
    # (2) no process received any message about a variable it does not hold,
    assert system.efficiency().irrelevant_messages == 0
    # (3) nobody outside the Theorem 1 relevant set handled information about x,
    assert relevance_violations(system.efficiency(), distribution) == {}
    # (4) and the PRAM relation creates no chain along the hoop (Theorem 2).
    assert verify_theorem2(system.history(), distribution,
                           read_from=system.read_from()).holds


def test_pram_partial_needs_no_fifo_channels():
    # per-sender sequence numbers reorder what a non-FIFO channel delivers
    # out of order: still PRAM, still nothing sent to a non-replica
    distribution = random_distribution(processes=6, variables=8,
                                       replicas_per_variable=3, seed=2)
    script = single_writer_script(distribution, writes_per_variable=6,
                                  reads_per_replica=6, seed=2)
    system = MCSystem(distribution, protocol="pram_partial", fifo=False,
                      latency=UniformLatency(0.2, 3.0, seed=4))
    run_script(system, script)
    checker = get_checker("pram")
    assert checker.check(system.history(), read_from=system.read_from()).consistent
    assert system.efficiency().irrelevant_messages == 0


def _hoop_workload_system(relay_scope: str) -> MCSystem:
    """The paper's Figure 3 scenario executed on the causal partial protocol.

    p0 writes x then the relay variable; each intermediate reads its left
    relay variable and writes its right one; the last process reads the relay
    then reads x.  With a large latency on the direct x edge the final read is
    only correct if the dependency information travelled along the hoop.
    """
    distribution = chain_distribution(2, studied_variable="x")
    # Direct channel p0 -> p3 (the x update) is much slower than the relays.
    latency = UniformLatency(0.5, 1.0, seed=1)

    class SlowDirect(LatencyModel):
        def sample(self, src, dst):
            if (src, dst) == (0, 3):
                return 50.0
            return latency.sample(src, dst)

    system = MCSystem(distribution, protocol="causal_partial", latency=SlowDirect(),
                      protocol_options={"relay_scope": relay_scope})
    p0, p1, p2, p3 = (system.process(i) for i in range(4))
    p0.write("x", "v")
    p0.write("y0", "r0")
    system.simulator.run(until=5.0)
    p1.read("y0")
    p1.write("y1", "r1")
    system.simulator.run(until=10.0)
    p2.read("y1")
    p2.write("y2", "r2")
    system.simulator.run(until=15.0)
    # p3 spins until it observes the relayed value, then reads x: with the
    # dependency information relayed along the hoop the relay value only
    # becomes visible once the (slow) x update has been applied.
    for _ in range(200):
        if p3.read("y2") == "r2":
            break
        system.simulator.run(until=system.simulator.now + 1.0)
    p3.read("x")
    system.settle()
    return system


def test_causal_partial_relays_dependencies_along_the_hoop():
    system = _hoop_workload_system("all")
    history = system.history()
    checker = get_checker("causal")
    assert checker.check(history, read_from=system.read_from()).consistent
    # The final read must see the value despite the slow direct channel: the
    # dependency chain forced it to wait.
    final_read = history.local(3).operations[-1]
    assert final_read.value == "v"
    # Intermediate processes handled control information about x although
    # they do not replicate it — exactly Theorem 1's x-relevance.
    assert "x" in system.process(1).foreign_control_variables()
    assert any(proc.relayed_variables() - set(proc.replicated_variables)
               for proc in system.processes.values())


def test_causal_partial_with_relevant_scope_is_still_correct():
    system = _hoop_workload_system("relevant")
    checker = get_checker("causal")
    assert checker.check(system.history(), read_from=system.read_from()).consistent


def test_causal_partial_refusing_to_relay_breaks_causality():
    # The ablation of the impossibility result: if hoop processes drop the
    # control information about x, the final read returns a stale value and
    # the recorded history is no longer causally consistent.
    system = _hoop_workload_system("own")
    history = system.history()
    final_read = history.local(3).operations[-1]
    checker = get_checker("causal")
    consistent = checker.check(history, read_from=system.read_from()).consistent
    assert final_read.value != "v" and not consistent
    # the "efficient" variant relays information about its own variables only
    assert all(proc.relayed_variables() <= set(proc.replicated_variables)
               for proc in system.processes.values())


def test_history_includes_external_chain_under_causal_order():
    system = _hoop_workload_system("all")
    assert has_external_chain(system.history(),
                              chain_distribution(2, studied_variable="x"),
                              criterion="causal",
                              read_from=system.read_from())
