"""The hunt's oracle: what each protocol *promises*, and whether a run kept it.

The registries declare three guarantee-envelope bits per protocol
(``fault_tolerant``, ``order_tolerant``, ``blocking_reads`` — see
:func:`repro.spec.registry.register_protocol`); :func:`guarantee_for`
projects them against a concrete :class:`~repro.spec.ScenarioSpec`'s network
into the envelope of one trial.  :func:`execute_spec` runs the trial and
condenses it into a picklable :class:`TrialOutcome` (so pool workers can ship
it home), and :func:`classify` compares outcome to envelope:

===================  ============================================================
finding kind         meaning
===================  ============================================================
``violation``        proven violation *outside* the envelope — the checkers
                     catching a protocol beyond its declared assumptions
                     (committed as a checker-sensitivity reproducer)
``unexpected_violation``  proven violation *inside* the envelope — a protocol
                     or checker bug, the highest-value find
``livelock``         the run stalled or was diagnosed dead although liveness
                     was guaranteed
``wrong_result``     the app validator rejected a result although the
                     envelope guarantees correctness
``crash``            an exception escaped the stack — always a finding
===================  ============================================================

Expected stalls (a blocking protocol starved by drops) and expected app
failures outside the envelope classify to ``None``: not findings, just the
protocols honestly refusing to lie.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..exceptions import RetryOperation, SimulationError
from ..spec.scenario import ScenarioSpec


@dataclass(frozen=True)
class Guarantee:
    """The envelope one spec's protocol declares over that spec's network."""

    consistency: bool  #: the claimed criterion must hold
    liveness: bool     #: a scripted run must finish (no stalls)
    app_result: bool   #: an application run must finish AND validate

    def describe(self) -> str:
        held = [name for name, value in (("consistency", self.consistency),
                                         ("liveness", self.liveness),
                                         ("app_result", self.app_result)) if value]
        return "+".join(held) if held else "nothing"


def _network_is_clean(spec: ScenarioSpec) -> bool:
    """Reliable delivery: no drops, duplicates, partitions or crashes."""
    if spec.network.model == "reliable":
        return True
    params = spec.network.params
    return not any(params.get(knob) for knob in
                   ("drop_rate", "duplicate_rate", "partitions", "crashes"))


def _criteria_covered(spec: ScenarioSpec) -> bool:
    """Every checked criterion is implied by the protocol's claimed one.

    A hunt trial may deliberately check a criterion *stronger* than the
    protocol claims (checking ``causal`` on a PRAM protocol is how the
    partition-hoop reproducers are found); a violation of such a criterion
    is never inside the envelope.
    """
    from ..core.consistency.registry import implied_criteria

    claimed = implied_criteria(spec.protocol.criterion)
    return all(criterion in claimed for criterion in spec.criteria())


def guarantee_for(spec: ScenarioSpec) -> Guarantee:
    """Project the protocol's declared envelope onto this spec's network."""
    metadata = spec.protocol.component.metadata
    clean = _network_is_clean(spec)
    fifo = spec.network.fifo
    consistency = _criteria_covered(spec) and \
        (clean or bool(metadata.get("fault_tolerant"))) and \
        (fifo or bool(metadata.get("order_tolerant")))
    # Liveness of scripted runs: wait-free protocols always finish; blocking
    # reads need every update actually delivered (clean channels).  Lost
    # FIFO ordering alone never wedges a scripted run — buffered updates
    # still drain — so only cleanliness gates here.
    liveness = (not metadata.get("blocking_reads")) or clean
    # Applications spin on synchronisation flags: any drop/crash can starve
    # a barrier, and non-FIFO delivery can regress the flag a spin loop
    # polls, so the full correctness guarantee needs clean FIFO channels
    # *and* a consistency criterion the app's pattern is proven correct
    # under (which consistency above already encodes).
    app_result = clean and fifo and consistency
    return Guarantee(consistency=consistency, liveness=liveness,
                     app_result=app_result)


@dataclass
class TrialOutcome:
    """What one executed trial produced, reduced to picklable plain data."""

    outcome: str                       #: RunReport.outcome(), "stall" or "crash"
    operations: int = 0                #: operations performed (shrink metric)
    detail: str = ""                   #: first violation / diagnosis / message
    crash_type: str = ""               #: exception class name for crashes
    consistent: Optional[bool] = None
    app_correct: Optional[bool] = None
    extra: Dict[str, Any] = field(default_factory=dict)


def execute_spec(spec: ScenarioSpec) -> TrialOutcome:
    """Run one spec end to end, absorbing every failure mode into data.

    Stalls (a blocking read retried past the budget, a livelocked or aborted
    simulation) become ``outcome="stall"``; any other exception becomes
    ``outcome="crash"`` with the exception class pinned in ``crash_type`` —
    the hunt must survive whatever the sampled corner of the space throws.
    """
    from ..api import Session  # deferred: the facade imports are heavy

    try:
        report = Session.from_spec(spec).run()
    except (RetryOperation, SimulationError) as exc:
        return TrialOutcome(outcome="stall", detail=str(exc),
                            crash_type=type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 — crashes are findings, not aborts
        return TrialOutcome(outcome="crash", detail=str(exc),
                            crash_type=type(exc).__name__)
    outcome = report.outcome()
    detail = report.first_violation or report.app_diagnosis or ""
    if outcome == "livelock":
        # the session diagnosed a dead application run — same bucket as a
        # scripted stall for classification purposes
        outcome = "stall"
    return TrialOutcome(
        outcome=outcome,
        operations=report.operations(),
        detail=detail,
        consistent=report.consistent,
        app_correct=report.app_correct,
        extra={
            "stopped_early": report.stopped_early,
            "messages_dropped": report.messages_dropped,
            "messages_duplicated": report.messages_duplicated,
        },
    )


def classify(spec: ScenarioSpec, outcome: TrialOutcome) -> Optional[str]:
    """Compare what happened to what was promised; a finding kind or ``None``."""
    guarantee = guarantee_for(spec)
    if outcome.outcome == "crash":
        return "crash"
    if outcome.outcome == "violation":
        return "unexpected_violation" if guarantee.consistency else "violation"
    if outcome.outcome == "stall":
        scripted = spec.app is None
        promised = guarantee.liveness if scripted else guarantee.app_result
        return "livelock" if promised else None
    if outcome.outcome == "wrong_result":
        return "wrong_result" if guarantee.app_result else None
    return None
