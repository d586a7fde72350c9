"""One-object streaming facade over the whole reproduction pipeline.

:class:`Session` assembles workload, protocol system, network simulator,
history recorder and (incremental) consistency checkers behind a single
object::

    from repro.api import Session

    report = Session(
        protocol="pram_partial",
        distribution=("random", {"processes": 6, "variables": 8,
                                 "replicas_per_variable": 3}),
        workload=("uniform", {"operations_per_process": 10}),
        check_policy="fail_fast",
    ).run()
    print(report.summary())

Checking happens *while* the run executes (see
:mod:`repro.core.consistency.incremental`), so a violating run stops at the
first proven violation instead of paying for the full history — the batch
entry points (:func:`repro.experiments.run_point`, the CLI) are built on top
of this facade.
"""

from ..core.consistency.incremental import (
    CheckPolicy,
    IncrementalChecker,
    WindowedChecker,
    incremental_checker,
)
from .session import RunReport, Session

__all__ = [
    "CheckPolicy",
    "IncrementalChecker",
    "RunReport",
    "Session",
    "WindowedChecker",
    "incremental_checker",
]
