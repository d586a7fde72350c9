"""repro — reproduction of Hélary & Milani, *About the efficiency of partial
replication to implement Distributed Shared Memory* (IRISA PI-1727 / ICPP 2006).

The package is organised bottom-up:

* :mod:`repro.core` — the paper's formal machinery: operations, histories,
  order relations, consistency checkers, the share graph / hoop /
  dependency-chain apparatus and the mechanised Theorem 1 and 2 checks;
* :mod:`repro.netsim` — a deterministic discrete-event message-passing
  substrate with message/byte accounting;
* :mod:`repro.mcs` — Memory Consistency System protocols: full-replication
  causal memory, partial-replication causal memory, partial-replication PRAM
  memory and a sequencer-based sequentially consistent baseline;
* :mod:`repro.dsm` — the application-facing distributed shared memory:
  generator-based application programs, the runtime scheduling them over the
  simulator, and the :class:`~repro.dsm.AppInstance` plugin contract;
* :mod:`repro.apps` — the four registered applications: the paper's
  Bellman-Ford case study, further oblivious computations (matrix product,
  asynchronous Jacobi), a producer/consumer pipeline, and their centralised
  reference ground truths — runnable as the ``app`` axis of any scenario
  (``Session(app="bellman_ford")``);
* :mod:`repro.workloads` — history, distribution and topology generators;
* :mod:`repro.analysis` — the ledger of paper claims behind ``repro
  reproduce`` (every figure, theorem and measured section, each judged
  against its expected value or bound) and the x-relevance study.

* :mod:`repro.api` — the streaming :class:`~repro.api.Session` facade tying
  all of the above behind one object, with incremental consistency checking
  over live runs;
* :mod:`repro.experiments` — the declarative scenario-suite orchestrator,
  built on the facade.

Quickstart::

    from repro import Session

    report = Session(
        protocol="pram_partial",
        distribution=("random", {"processes": 6, "variables": 8,
                                 "replicas_per_variable": 3}),
        workload=("uniform", {"operations_per_process": 10}),
        check_policy="fail_fast",
    ).run()
    print(report.summary())

See ``examples/`` for runnable end-to-end scenarios and ``docs/API.md`` for
the facade and incremental-checker reference.
"""

from .api import CheckPolicy, RunReport, Session
from .spec import (
    AppSpec,
    CheckSpec,
    DistributionSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    register_app,
    register_distribution,
    register_network_model,
    register_protocol,
    register_topology,
    register_workload,
)
from .core import (
    BOTTOM,
    History,
    HistoryBuilder,
    Hoop,
    Operation,
    OpKind,
    ShareGraph,
    VariableDistribution,
    verify_theorem1,
    verify_theorem2,
    witness_history,
)
from .core.consistency import all_checkers, get_checker
from .dsm import (
    AppInstance,
    AppVerdict,
    DSMRuntime,
    ProcessContext,
)
from .mcs import MCSystem, PROTOCOLS
from .version import __version__

__all__ = [
    "AppInstance",
    "AppSpec",
    "AppVerdict",
    "BOTTOM",
    "CheckPolicy",
    "CheckSpec",
    "DSMRuntime",
    "DistributionSpec",
    "NetworkSpec",
    "ProtocolSpec",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "register_app",
    "register_distribution",
    "register_network_model",
    "register_protocol",
    "register_topology",
    "register_workload",
    "History",
    "HistoryBuilder",
    "Hoop",
    "MCSystem",
    "OpKind",
    "Operation",
    "PROTOCOLS",
    "ProcessContext",
    "RunReport",
    "Session",
    "ShareGraph",
    "VariableDistribution",
    "__version__",
    "all_checkers",
    "get_checker",
    "verify_theorem1",
    "verify_theorem2",
    "witness_history",
]
