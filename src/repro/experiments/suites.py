"""Built-in scenario suites: paper reproductions, stress and fault scenarios.

Three suites ship with the library (all registered on the global
:data:`~repro.experiments.registry.REGISTRY` at import time):

``paper``
    One scenario per quantitative claim of Hélary & Milani: the hoop-free
    baseline of Figure 1, the Figure 2 hoop, the Theorem 1 hoop-traffic sweep,
    the Theorem 2 PRAM-confinement check, the Section 3.3 protocol-overhead
    comparison and the Section 6 Bellman-Ford access pattern.  EXPERIMENTS.md
    at the repository root cross-references every scenario to the claim, the
    module and the test that back it.

``stress``
    Scenarios beyond the paper's scale: larger cliques, long hoops, skewed
    write-heavy workloads and ring/star/random topologies.  These run with
    ``exact=False`` (polynomial pre-check only) where the exact serialization
    search would dominate the runtime; their verdicts are therefore
    falsification checks, not consistency proofs (see
    :meth:`repro.core.consistency.base.CheckResult.witness`).

``faults``
    The protocols beyond the paper's reliable-FIFO assumption ([5]): message
    loss, duplication, link partitions with heal schedules and process
    crash/recover windows, injected by the ``faulty``
    :class:`~repro.netsim.models.NetworkModel`.  The hardened protocols
    (sequence numbers, vector clocks, causal barriers) survive by *stalling*
    — stale reads, verdicts still consistent — while the barrier-free
    ``best_effort`` protocol produces **proven violations** the incremental
    checkers catch mid-run: its scenarios carry ``expect_consistent=False``,
    so the suite doubles as a regression gate on the checkers' fault
    sensitivity (a violation that stops being caught fails the suite).

``apps``
    The paper's headline case study as *application programs*: the four
    registered apps (Bellman-Ford, Jacobi, matrix product, the
    producer/consumer pipeline) run spec-driven over reliable and faulty
    networks, their histories streamed into the incremental checkers and
    their results validated against the centralised
    :mod:`repro.apps.reference` ground truth.  Scenarios gate on *both*
    expectations: ``expect_consistent`` for the checker verdict and
    ``expect_correct`` for the validated-or-diagnosed application result —
    the hardened PRAM protocol must keep producing correct routes under
    message duplication, and the partitioned barrier must keep being
    *diagnosed* as a livelock instead of spinning forever.

``efficiency``
    The replica-placement study (Section 3.3 quantified): the
    ``placed`` distribution family runs the :mod:`repro.place` optimizer
    while expanding the grid, so the suite sweeps processes x replication
    degree x placement (optimized vs uniform-random vs full) over the
    Zipf-skewed workload and records control bytes per message for the
    sharded-sequencer, causal-tree and PRAM protocols against the
    full-replication baselines.  The ledger claim ``section33-headline-100p``
    (:mod:`repro.analysis.figures`) pins the headline comparison (optimized
    partial against full replication at 100 processes, every count exact).
"""

from __future__ import annotations

from typing import List

from ..spec.scenario import AppSpec, NetworkSpec
from .registry import REGISTRY, ScenarioRegistry
from .spec import DistributionSpec, ExperimentSpec, WorkloadSpec


def builtin_scenarios() -> List[ExperimentSpec]:
    """Fresh spec objects for every built-in scenario (paper/stress/faults)."""
    return [
        # ------------------------------------------------------------------ paper
        ExperimentSpec(
            name="hoopfree-blocks",
            suite="paper",
            paper_ref="Figure 1 / Section 3.1",
            description="Hoop-free disjoint clusters: partial replication is "
                        "efficient for every protocol, no message ever reaches "
                        "an x-irrelevant process.",
            protocols=("pram_partial", "causal_partial", "causal_full"),
            distribution=DistributionSpec("disjoint_blocks",
                                          {"groups": 2, "group_size": 3,
                                           "variables_per_group": 2}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 8,
                                              "write_fraction": 0.5}),
            seeds=(0, 1),
        ),
        ExperimentSpec(
            name="figure2-hoop",
            suite="paper",
            paper_ref="Figure 2 / Theorem 1",
            description="The canonical x-hoop: intermediate processes never "
                        "access x yet the causal protocols route x-control "
                        "information through them.",
            protocols=("pram_partial", "causal_partial", "causal_full"),
            distribution=DistributionSpec("chain", {"intermediates": 2}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 6,
                                              "write_fraction": 0.6}),
            seeds=(0, 1),
        ),
        ExperimentSpec(
            name="theorem1-hoop-traffic",
            suite="paper",
            paper_ref="Theorem 1",
            description="Hoop-length sweep: irrelevant-message counts grow "
                        "with the hoop for causal partial replication and stay "
                        "zero for the PRAM protocol.",
            protocols=("pram_partial", "causal_partial"),
            distribution=DistributionSpec("chain", {"intermediates": 1}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 6,
                                              "write_fraction": 0.6}),
            grid={"distribution.intermediates": (1, 2, 4)},
            seeds=(0,),
        ),
        ExperimentSpec(
            name="theorem2-pram-confinement",
            suite="paper",
            paper_ref="Theorem 2",
            description="PRAM partial replication confines information about x "
                        "to C(x): zero relevance violations across seeds.",
            protocols=("pram_partial",),
            distribution=DistributionSpec("random",
                                          {"processes": 6, "variables": 8,
                                           "replicas_per_variable": 3}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 10,
                                              "write_fraction": 0.6}),
            seeds=(0, 1, 2),
        ),
        ExperimentSpec(
            name="section33-overhead",
            suite="paper",
            paper_ref="Section 3.3",
            description="Same workload over every protocol: control bytes per "
                        "message and irrelevant-message counts, the paper's "
                        "efficiency comparison.",
            protocols=("pram_partial", "causal_partial", "causal_full",
                       "sequencer_sc"),
            distribution=DistributionSpec("random",
                                          {"processes": 6, "variables": 8,
                                           "replicas_per_variable": 3}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 6,
                                              "write_fraction": 0.6}),
            seeds=(0,),
        ),
        ExperimentSpec(
            name="section6-bellman-ford",
            suite="paper",
            paper_ref="Section 6 / Figures 7-9",
            description="The routing access pattern on the Figure 8 network: "
                        "single writer per variable, neighbourhood replication "
                        "- the setting where PRAM consistency suffices.",
            protocols=("pram_partial", "causal_partial"),
            distribution=DistributionSpec("neighbourhood",
                                          {"topology": "figure8"}),
            workload=WorkloadSpec("single_writer", {"writes_per_variable": 6,
                                                    "reads_per_replica": 6}),
            seeds=(0,),
        ),
        # ----------------------------------------------------------------- stress
        ExperimentSpec(
            name="stress-large-clique",
            suite="stress",
            paper_ref="Section 3.1 (scaled)",
            description="Full replication over ten processes: the classical "
                        "setting's message blow-up, the baseline partial "
                        "replication is meant to beat.",
            protocols=("pram_partial", "causal_full"),
            distribution=DistributionSpec("full_replication",
                                          {"processes": 10, "variables": 3}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 6,
                                              "write_fraction": 0.5}),
            seeds=(0,),
            exact=False,
        ),
        ExperimentSpec(
            name="stress-long-hoop",
            suite="stress",
            paper_ref="Theorem 1 (scaled)",
            description="Hoops of six and ten intermediates: worst-case "
                        "x-relevance spread for the causal protocols.",
            protocols=("pram_partial", "causal_partial"),
            distribution=DistributionSpec("chain", {"intermediates": 6}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 4,
                                              "write_fraction": 0.6}),
            grid={"distribution.intermediates": (6, 10)},
            seeds=(0,),
            exact=False,
        ),
        ExperimentSpec(
            name="stress-write-heavy",
            suite="stress",
            paper_ref="Section 3.3 (skewed)",
            description="90% writes over a random distribution: the regime "
                        "where control-information overhead dominates.",
            protocols=("pram_partial", "causal_partial"),
            distribution=DistributionSpec("random",
                                          {"processes": 8, "variables": 12,
                                           "replicas_per_variable": 3}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 10,
                                              "write_fraction": 0.9}),
            seeds=(0, 1),
            exact=False,
        ),
        ExperimentSpec(
            name="stress-ring",
            suite="stress",
            paper_ref="Section 6 (ring)",
            description="Neighbourhood replication on an 8-node ring: every "
                        "process lies on a hoop of the ring's girth.",
            protocols=("pram_partial", "causal_partial"),
            distribution=DistributionSpec("neighbourhood",
                                          {"topology": "ring", "nodes": 8}),
            workload=WorkloadSpec("single_writer", {"writes_per_variable": 4,
                                                    "reads_per_replica": 4}),
            seeds=(0,),
            exact=False,
        ),
        ExperimentSpec(
            name="stress-star",
            suite="stress",
            paper_ref="Section 6 (star)",
            description="Neighbourhood replication on an 8-node star: the "
                        "hub's variable forms one large clique, the leaves' "
                        "stay pairwise.",
            protocols=("pram_partial", "causal_partial"),
            distribution=DistributionSpec("neighbourhood",
                                          {"topology": "star", "nodes": 8}),
            workload=WorkloadSpec("single_writer", {"writes_per_variable": 4,
                                                    "reads_per_replica": 4}),
            seeds=(0,),
            exact=False,
        ),
        ExperimentSpec(
            name="stress-random-topology",
            suite="stress",
            paper_ref="Section 6 (random)",
            description="Neighbourhood replication on a random connected "
                        "8-node network with extra links.",
            protocols=("pram_partial",),
            distribution=DistributionSpec("neighbourhood",
                                          {"topology": "random", "nodes": 8,
                                           "extra_edges": 6, "seed": 7}),
            workload=WorkloadSpec("single_writer", {"writes_per_variable": 4,
                                                    "reads_per_replica": 4}),
            seeds=(0,),
            exact=False,
        ),
        # ----------------------------------------------------------------- faults
        ExperimentSpec(
            name="faults-partition-hoop",
            suite="faults",
            paper_ref="Section 3 assumption [5] (violated)",
            description="The Figure 2 hoop with the direct head-to-tail link "
                        "partitioned while the relay chain stays up: the "
                        "barrier-free protocol lets causally newer relay "
                        "values overtake the lost x update, a causal "
                        "violation the incremental checker proves mid-run.",
            protocols=("best_effort",),
            distribution=DistributionSpec("chain", {"intermediates": 1}),
            workload=WorkloadSpec("hoop_relay", {"rounds": 6}),
            network=NetworkSpec("faulty", {
                "latency": 0.1,
                "partitions": [{"start": 0.0, "end": 4.0, "links": [[0, 2]]}],
            }),
            criteria=("causal",),
            check_policy="fail_fast",
            exact=False,
            expect_consistent=False,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="faults-partition-barrier",
            suite="faults",
            paper_ref="Section 4 (causal barriers under partition)",
            description="The same partitioned hoop on the causal-barrier "
                        "protocol: updates whose dependencies were lost are "
                        "withheld, reads go stale but never inconsistent.",
            protocols=("causal_partial",),
            distribution=DistributionSpec("chain", {"intermediates": 1}),
            workload=WorkloadSpec("hoop_relay", {"rounds": 6}),
            network=NetworkSpec("faulty", {
                "latency": 0.1,
                "partitions": [{"start": 0.0, "end": 4.0, "links": [[0, 2]]}],
            }),
            criteria=("causal",),
            exact=False,
            expect_consistent=True,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="faults-duplication",
            suite="faults",
            paper_ref="Section 5 (sequence numbers as idempotence)",
            description="Random duplication with delayed second copies: the "
                        "best-effort protocol re-applies stale writes and a "
                        "reader observes a writer's values go backwards (a "
                        "proven slow-memory violation); the PRAM protocol's "
                        "sequence numbers discard every duplicate.",
            protocols=("best_effort",),
            distribution=DistributionSpec("random",
                                          {"processes": 3, "variables": 2,
                                           "replicas_per_variable": 3}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 30,
                                              "write_fraction": 0.4}),
            network=NetworkSpec("faulty", {
                "latency": 0.1,
                "duplicate_rate": 0.5,
                "duplicate_lag": 5.0,
            }),
            check_policy="fail_fast",
            exact=False,
            expect_consistent=False,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="faults-duplication-hardened",
            suite="faults",
            paper_ref="Section 5 (sequence numbers as idempotence)",
            description="The same duplicating network against the hardened "
                        "protocols: per-sender sequence numbers (PRAM) and "
                        "write identifiers (causal barriers) make updates "
                        "idempotent, verdicts stay consistent.",
            protocols=("pram_partial", "causal_partial"),
            distribution=DistributionSpec("random",
                                          {"processes": 3, "variables": 2,
                                           "replicas_per_variable": 3}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 30,
                                              "write_fraction": 0.4}),
            network=NetworkSpec("faulty", {
                "latency": 0.1,
                "duplicate_rate": 0.5,
                "duplicate_lag": 5.0,
            }),
            exact=False,
            expect_consistent=True,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="faults-loss",
            suite="faults",
            paper_ref="Section 5 (loss: staleness, not inconsistency)",
            description="15% message loss: the PRAM protocol's per-sender "
                        "gaps stall later updates (stale reads), the causal "
                        "protocols withhold updates with lost dependencies - "
                        "every verdict stays consistent.",
            protocols=("pram_partial", "causal_partial", "causal_full"),
            distribution=DistributionSpec("random",
                                          {"processes": 5, "variables": 6,
                                           "replicas_per_variable": 3}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 12,
                                              "write_fraction": 0.6}),
            network=NetworkSpec("faulty", {"latency": 0.1, "drop_rate": 0.15}),
            exact=False,
            expect_consistent=True,
            seeds=(0, 1),
        ),
        ExperimentSpec(
            name="faults-crash-recover",
            suite="faults",
            paper_ref="Section 1 (MCS process availability)",
            description="One process' network interface crashes mid-run and "
                        "recovers: updates it misses stall its causal "
                        "delivery (vector clocks) or its per-sender windows "
                        "(PRAM); reads go stale, consistency holds.",
            protocols=("causal_full", "pram_partial"),
            distribution=DistributionSpec("random",
                                          {"processes": 4, "variables": 5,
                                           "replicas_per_variable": 3}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 12,
                                              "write_fraction": 0.6}),
            network=NetworkSpec("faulty", {
                "latency": 0.1,
                "crashes": [{"process": 1, "start": 1.0, "end": 3.0}],
            }),
            exact=False,
            expect_consistent=True,
            seeds=(0,),
        ),
        # ------------------------------------------------------------------- apps
        ExperimentSpec(
            name="apps-bellman-ford",
            suite="apps",
            paper_ref="Section 6 / Figures 7-9",
            description="The Figure 7 programs on the Figure 8 network: "
                        "routes must match the centralised Bellman-Ford and "
                        "the streamed history must satisfy the protocol's "
                        "claimed criterion.",
            protocols=("pram_partial", "causal_partial"),
            app=AppSpec("bellman_ford", {"topology": "figure8", "source": 1}),
            exact=False,
            expect_consistent=True,
            expect_correct=True,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="apps-producer-consumer",
            suite="apps",
            paper_ref="Section 5 (PRAM suffices for flag synchronisation)",
            description="Flag-synchronised pipeline: publish value then "
                        "advance counter - the minimal application correct "
                        "under PRAM, checked exactly.",
            protocols=("pram_partial", "best_effort"),
            app=AppSpec("producer_consumer", {"stages": 3, "items": 4}),
            exact=True,
            expect_consistent=True,
            expect_correct=True,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="apps-jacobi",
            suite="apps",
            paper_ref="Section 5 (iterative methods on slow memory)",
            description="Asynchronous block-Jacobi on a seeded diagonally "
                        "dominant system: converges to numpy.linalg.solve "
                        "over the full-replication PRAM memory.",
            protocols=("pram_partial",),
            app=AppSpec("jacobi", {"unknowns": 6, "workers": 3,
                                   "iterations": 30}),
            exact=False,
            expect_consistent=True,
            expect_correct=True,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="apps-matrix-product",
            suite="apps",
            paper_ref="Section 5 (oblivious computations)",
            description="Row-partitioned matrix product over seeded "
                        "operands, on partial PRAM replication and on the "
                        "full-replication causal memory.",
            protocols=("pram_partial", "causal_full"),
            app=AppSpec("matrix_product", {"rows": 6, "inner": 4, "cols": 5,
                                           "workers": 3}),
            exact=False,
            expect_consistent=True,
            expect_correct=True,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="apps-bellman-ford-duplication",
            suite="apps",
            paper_ref="Section 5/6 (sequence numbers under duplication)",
            description="Bellman-Ford on a duplicating faulty network: the "
                        "PRAM protocol's per-sender sequence numbers discard "
                        "every duplicate, so the routes stay correct and "
                        "the streamed history stays consistent.",
            protocols=("pram_partial",),
            app=AppSpec("bellman_ford", {"topology": "figure8", "source": 1}),
            network=NetworkSpec("faulty", {
                "latency": 0.1,
                "duplicate_rate": 0.5,
                "duplicate_lag": 3.0,
            }),
            exact=False,
            expect_consistent=True,
            expect_correct=True,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="apps-bellman-ford-partition",
            suite="apps",
            paper_ref="Section 6 (liveness needs the links up)",
            description="Bellman-Ford with the 1-2 link partitioned for "
                        "good: node 2's barrier can never observe its "
                        "predecessor's round counter, the capped step budget "
                        "diagnoses the livelock (reads stay consistent, "
                        "merely stale) - the expected-result gate asserts "
                        "the diagnosis keeps happening.",
            protocols=("pram_partial",),
            app=AppSpec("bellman_ford", {"topology": "figure8", "source": 1},
                        max_steps=1500),
            network=NetworkSpec("faulty", {
                "latency": 0.1,
                "partitions": [{"start": 0.0, "end": 1e9, "links": [[1, 2]]}],
            }),
            exact=False,
            expect_consistent=True,
            expect_correct=False,
            seeds=(0,),
        ),
        # ------------------------------------------------------------- efficiency
        ExperimentSpec(
            name="efficiency-placed-scale",
            suite="efficiency",
            paper_ref="Section 3.3 / Theorem 1 (control-information cost)",
            description="Optimizer-placed partial replication swept over the "
                        "process count: the sharded and tree protocols route "
                        "control information only through (near-)relevant "
                        "processes, so control bytes per message stay flat "
                        "while full replication's grow with n.",
            protocols=("causal_tree", "sequencer_shard", "pram_partial"),
            distribution=DistributionSpec("placed", {
                "processes": 20, "variables": 24,
                "accessors_per_variable": 3, "budget": 60,
            }),
            workload=WorkloadSpec("zipfian", {"operations_per_process": 3,
                                              "write_fraction": 0.5,
                                              "skew": 1.0}),
            grid={"distribution.processes": (20, 50, 100)},
            exact=False,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="efficiency-uniform-placement",
            suite="efficiency",
            paper_ref="Section 3.3 (placement matters, not just the degree)",
            description="Same replication degree, uniform random placement "
                        "instead of the optimizer's: the baseline the "
                        "placed-scale scenario is compared against.",
            protocols=("causal_tree", "sequencer_shard", "pram_partial"),
            distribution=DistributionSpec("random", {
                "processes": 50, "variables": 24,
                "replicas_per_variable": 3,
            }),
            workload=WorkloadSpec("zipfian", {"operations_per_process": 3,
                                              "write_fraction": 0.5,
                                              "skew": 1.0}),
            exact=False,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="efficiency-full-baseline",
            suite="efficiency",
            paper_ref="Section 3.3 ([5] over full replication)",
            description="The classical full-replication protocols on the "
                        "same workload shape: per-message control grows "
                        "with the process count (vector clocks) or every "
                        "write crosses the whole system (sequencer).",
            protocols=("causal_full", "sequencer_sc"),
            distribution=DistributionSpec("full_replication", {
                "processes": 10, "variables": 8,
            }),
            workload=WorkloadSpec("zipfian", {"operations_per_process": 3,
                                              "write_fraction": 0.5,
                                              "skew": 1.0}),
            grid={"distribution.processes": (10, 20, 40)},
            exact=False,
            seeds=(0,),
        ),
        ExperimentSpec(
            name="efficiency-hot-migration",
            suite="efficiency",
            paper_ref="Section 3.3 (placement vs a drifting workload)",
            description="Zipfian hot spot migrating mid-run over an "
                        "optimizer-placed distribution: the placement was "
                        "optimized for the initial profile, the verdicts "
                        "must survive the drift (overhead may not).",
            protocols=("causal_tree", "pram_partial"),
            distribution=DistributionSpec("placed", {
                "processes": 30, "variables": 24,
                "accessors_per_variable": 3, "budget": 60,
            }),
            workload=WorkloadSpec("zipfian", {"operations_per_process": 4,
                                              "write_fraction": 0.5,
                                              "skew": 1.5,
                                              "hot_migration_every": 8}),
            exact=False,
            seeds=(0, 1),
        ),
        ExperimentSpec(
            name="efficiency-replication-degree",
            suite="efficiency",
            paper_ref="Section 3.3 (partial replication pays off below full degree)",
            description="Replication-degree sweep on six processes: while the "
                        "degree is below the process count the partial PRAM "
                        "protocol sends fewer messages than full broadcast on "
                        "the same script.",
            protocols=("pram_partial", "causal_full"),
            distribution=DistributionSpec("random", {
                "processes": 6, "variables": 8,
                "replicas_per_variable": 2,
            }),
            workload=WorkloadSpec("uniform", {"operations_per_process": 6,
                                              "write_fraction": 0.6}),
            grid={"distribution.replicas_per_variable": (2, 4)},
            exact=False,
            seeds=(0,),
        ),
    ]


def register_builtin_scenarios(registry: ScenarioRegistry = REGISTRY) -> None:
    """Register every built-in scenario on ``registry`` (idempotent)."""
    for spec in builtin_scenarios():
        if spec.name not in registry:
            registry.register(spec)


register_builtin_scenarios()
