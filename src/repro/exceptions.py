"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish model errors (malformed histories), protocol errors
(a memory-consistency-system process misused), and simulation errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` package."""


class ModelError(ReproError):
    """A shared-memory model object (operation, history, relation) is malformed."""


class RelationDomainError(ModelError, KeyError):
    """A relation was queried or extended with operations outside its universe.

    Also a :class:`KeyError` so that pre-existing callers catching the ad-hoc
    ``KeyError`` keep working while new code can catch :class:`ModelError`.
    """

    def __str__(self) -> str:  # KeyError.__str__ repr()s the message
        return Exception.__str__(self)


class AmbiguousReadFromError(ModelError):
    """The read-from relation cannot be inferred because written values collide.

    The inference of the read-from relation (paper, Section 2) requires the
    history to be *differentiated*: no two write operations store the same
    value into the same variable.  When that does not hold the caller must
    provide an explicit read-from mapping.
    """


class InvalidHistoryError(ModelError):
    """A history violates a structural invariant (duplicate indices, bad process ids...)."""


class DistributionError(ReproError):
    """A variable distribution is inconsistent with the processes or variables used."""


class ProtocolError(ReproError):
    """A memory-consistency-system protocol was driven into an invalid state."""


class ReplicaMissingError(ProtocolError):
    """A process attempted to access a variable it does not replicate."""


class RetryOperation(ReproError):
    """Control-flow signal: the operation cannot complete yet and must be retried.

    Raised by blocking protocols (e.g. the sequencer-based sequential
    consistency baseline, whose reads must wait for the process' own writes to
    be totally ordered).  The DSM runtime catches it and re-schedules the
    application step after letting the network make progress.
    """


class SimulationError(ReproError):
    """The discrete-event simulation failed (e.g. livelock guard triggered)."""


class LivelockError(SimulationError):
    """An application program did not terminate within the configured step budget."""


class ProtocolConfigError(ProtocolError, ValueError):
    """A protocol was constructed with an invalid option.

    Also a :class:`ValueError` for backwards compatibility with the ad-hoc
    raises this class replaced.
    """


class SpecError(ReproError):
    """Base class of every typed-specification failure (:mod:`repro.spec`)."""


class ScenarioSpecError(SpecError):
    """A scenario specification is malformed (unknown name, bad parameter...)."""


class UnknownComponentError(ScenarioSpecError, KeyError):
    """A name does not resolve in a component registry.

    Also a :class:`KeyError` so callers treating registries as plain mappings
    keep working.
    """

    def __str__(self) -> str:  # KeyError.__str__ repr()s the message
        return Exception.__str__(self)


class ComponentParamError(ScenarioSpecError, ValueError):
    """A registered component was given parameters it does not accept."""


class UnknownAppError(UnknownComponentError):
    """An application-program name is not registered.

    Raised by the app plugin registry (:data:`repro.spec.APP_REGISTRY`) when a
    :class:`~repro.spec.AppSpec`, ``Session(app=...)`` or ``repro run --app``
    names an application no ``@register_app`` decorator declared.
    """


class AppCompatibilityError(ScenarioSpecError):
    """An application was combined with a protocol it cannot run on.

    The registered capability metadata of an app declares whether its
    programs issue command-style (blocking-capable) operations; direct-style
    programs cannot run on protocols whose reads block
    (``blocking_reads=True`` registry metadata, e.g. ``sequencer_sc``).
    """


class UnknownProtocolError(ProtocolConfigError, UnknownComponentError):
    """A protocol name is not registered.

    Both a :class:`ProtocolConfigError` (the protocol layer's contract — the
    :class:`~repro.api.Session` facade and :class:`~repro.mcs.MCSystem`
    raise the *same* typed error for the same mistake) and a
    :class:`ScenarioSpecError` (the spec layer's contract).
    """

    def __str__(self) -> str:
        return Exception.__str__(self)


class NetworkModelError(SimulationError, ValueError):
    """A network model was configured with invalid fault/latency parameters."""


class CheckError(ReproError):
    """Base class of every consistency-checking failure."""


class ConsistencyCheckError(CheckError):
    """A consistency checker was invoked with inputs it cannot handle."""


class UnknownCriterionError(CheckError, KeyError):
    """A consistency criterion name is not registered.

    Also a :class:`KeyError` for backwards compatibility with the registry's
    historical behaviour.
    """

    def __str__(self) -> str:  # KeyError.__str__ repr()s the message
        return Exception.__str__(self)


class WitnessError(CheckError, KeyError):
    """A witness serialization was requested but none was recorded.

    Also a :class:`KeyError` for backwards compatibility with
    :meth:`repro.core.consistency.base.CheckResult.witness`.
    """

    def __str__(self) -> str:
        return Exception.__str__(self)


class SearchBudgetError(CheckError, RuntimeError):
    """The serialization search ran past its state budget (the checkers then
    report ``exact=False``); a :class:`RuntimeError`, like the raise it replaced."""


class DependencyChainError(CheckError, ValueError):
    """The dependency-chain analysis was asked about an unsupported criterion."""


class SessionError(ReproError):
    """A streaming :class:`repro.api.Session` was misused (re-run, bad input...)."""


class RecorderStateError(ReproError):
    """A :class:`repro.mcs.recorder.HistoryRecorder` was asked for state it does not keep."""


class ServeError(ReproError):
    """Base class of every failure of the online monitoring service."""


class TraceFormatError(ServeError):
    """A JSONL trace record or wire-protocol line is malformed."""


class TenantError(ServeError):
    """A tenant declared an invalid configuration or broke the wire protocol."""
