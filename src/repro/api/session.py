"""The streaming :class:`Session` facade and its :class:`RunReport`.

A session owns one end-to-end run: it builds the variable distribution and
the scripted workload *or* application programs (from concrete objects or
declarative specs), wires a :class:`~repro.mcs.system.MCSystem` over the
discrete-event simulator, and checks the recorded run incrementally.  Every
run records into a columnar :class:`~repro.arena.store.OpArena` through one
:class:`~repro.arena.recorder.ArenaRecorder` and is checked by
:class:`~repro.arena.check.ArenaBatchChecker`; ``keep_history`` only decides
whether the report keeps the recorded history.  The
:class:`~repro.core.consistency.incremental.CheckPolicy` decides how eagerly
the polynomial prefix checks run and whether a proven violation aborts the
run (fail-fast) — the property that makes adversarial and long-horizon
workloads affordable: a violation at operation 50 costs 50 operations, not
5 000.

Application runs (``Session(app=...)``, the paper's Section 6 case study)
drive a :class:`~repro.dsm.runtime.DSMRuntime` instead of a script: the
app's registered factory supplies the variable distribution, one program per
process and the result validator, the programs' operations are recorded
and checked the same way (a mid-run policy checks, and may abort, as each
one is recorded), and the report carries the validated-or-diagnosed
application verdict next to the consistency verdicts, efficiency metrics and
fault/network statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..arena.check import ArenaBatchChecker
from ..arena.recorder import ArenaRecorder
from ..arena.store import NO_SOURCE
from ..core.consistency.base import CheckResult, ReadFrom
from ..core.consistency.incremental import CheckPolicy
from ..core.distribution import VariableDistribution
from ..core.history import History
from ..core.operations import OpKind
from ..dsm.app import AppInstance, AppVerdict
from ..dsm.runtime import DSMRuntime
from ..exceptions import LivelockError, SessionError, SimulationError
from ..mcs.metrics import EfficiencyReport, relevance_violations
from ..mcs.system import MCSystem
from ..netsim.models import NetworkModel
from ..spec.registry import resolve_protocol
from ..spec.scenario import (
    AppSpec,
    DistributionSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
    ensure_app_protocol_compatible,
)
from ..workloads.access_patterns import Access, drive_script

#: What ``Session(protocol=...)`` accepts: a registry name or a typed spec.
ProtocolLike = Union[str, ProtocolSpec]

#: What ``Session(distribution=...)`` accepts: a concrete distribution, a
#: declarative spec, or a ``(family, params)`` pair resolved through the
#: spec layer.
DistributionLike = Union[VariableDistribution, DistributionSpec, Tuple[str, Mapping[str, Any]], str]

#: What ``Session(workload=...)`` accepts: a concrete access script, a
#: declarative spec, or a ``(pattern, params)`` pair.
WorkloadLike = Union[Sequence[Access], WorkloadSpec, Tuple[str, Mapping[str, Any]], str]

#: What ``Session(network=...)`` accepts: a typed spec, a concrete model, a
#: model name, or a ``(model, params)`` pair.
NetworkLike = Union[NetworkSpec, NetworkModel, Tuple[str, Mapping[str, Any]], str]

#: What ``Session(app=...)`` accepts: a concrete instance, a typed spec, a
#: registered app name, or a ``(name, params)`` pair.
AppLike = Union[AppInstance, AppSpec, Tuple[str, Mapping[str, Any]], str]


class _AbortAppRun(Exception):
    """Control flow: stop the simulator because fail-fast proved a violation."""


@dataclass
class RunReport:
    """Everything one run produced — the *single* report type of the stack.

    ``results`` maps each checked criterion to its
    :class:`~repro.core.consistency.base.CheckResult`; ``consistent`` is the
    conjunction of the verdicts (``None`` when checking was disabled).
    ``operations_executed`` counts the operations actually performed — for
    scripted workloads the script operations driven (strictly less than
    ``operations_total`` when a fail-fast policy stopped the run early,
    ``stopped_early``), for application runs the operations the recorder
    logged.  ``ops_checked`` counts the operations the checkers observed,
    the metric the streaming benchmark compares against batch checking.
    ``history`` and ``read_from`` are computed from the run's arena on first
    access (``None`` when the session kept no history).

    Application runs additionally fill the ``app*`` fields: ``app_results``
    maps each process to its program's return value, ``app_correct`` is the
    verdict of the app's validator against the centralised reference ground
    truth (``None`` when the run could not be validated), and
    ``app_diagnosis`` explains failures — a result mismatch, a livelocked
    spin barrier under fault injection, a fail-fast abort.  ``sim_time`` is
    the virtual clock at the end of the run; ``program_steps`` and
    ``program_retries`` are the per-process scheduler diagnostics.
    """

    protocol: str
    criteria: Tuple[str, ...]
    results: Dict[str, CheckResult] = field(default_factory=dict)
    consistent: Optional[bool] = None
    exact: bool = True
    operations_total: int = 0
    operations_executed: int = 0
    ops_checked: int = 0
    stopped_early: bool = False
    first_violation: Optional[str] = None
    efficiency: Optional[EfficiencyReport] = None
    relevance_violations: int = 0
    events_processed: int = 0
    elapsed_s: float = 0.0
    sim_time: float = 0.0
    network_model: str = "reliable"
    messages_dropped: int = 0
    messages_duplicated: int = 0
    drops_by_reason: Dict[str, int] = field(default_factory=dict)
    partition_windows: Tuple[Tuple[float, float], ...] = ()
    app: Optional[str] = None
    app_results: Dict[int, Any] = field(default_factory=dict)
    app_expected: Any = None
    app_correct: Optional[bool] = None
    app_diagnosis: str = ""
    program_steps: Dict[int, int] = field(default_factory=dict)
    program_retries: Dict[int, int] = field(default_factory=dict)
    #: The recorder of a history-keeping run, which ``history`` and
    #: ``read_from`` materialise from (``None`` when the session kept no
    #: history).
    _recorder: Optional[ArenaRecorder] = field(default=None, repr=False, compare=False)
    _history: Optional[History] = field(default=None, init=False, repr=False, compare=False)
    _read_from: Optional[ReadFrom] = field(default=None, init=False, repr=False, compare=False)

    @property
    def history(self) -> Optional[History]:
        """The recorded :class:`~repro.core.history.History`, computed from
        the arena on first access and memoised; ``None`` when the session
        kept no history."""
        if self._history is None and self._recorder is not None:
            self._history = self._recorder.history()
        return self._history

    @property
    def read_from(self) -> Optional[ReadFrom]:
        """The run's exact read-from map (read -> source write or ``None``),
        computed from the arena on first access over the same operations as
        :attr:`history`; ``None`` when the session kept no history."""
        if self._read_from is None and self._recorder is not None:
            self._read_from = self._recorder.read_from()
        return self._read_from

    def __bool__(self) -> bool:
        return self.consistent is not False and self.app_correct is not False

    def outcome(self) -> str:
        """Classify what the run produced — the hook :mod:`repro.hunt` builds on.

        One of:

        ``"violation"``
            A checked criterion was proven violated (``consistent is False``)
            — regardless of how the application fared, a consistency proof
            outranks every other observation.
        ``"livelock"``
            The application run was *diagnosed* dead (a livelocked spin
            barrier or an aborted simulation) instead of finishing.
        ``"wrong_result"``
            The application finished but its validator rejected the results.
        ``"unchecked"``
            Nothing was checked and no application ran (``check=False``).
        ``"pass"``
            Everything checked out.

        Exceptions that escape :meth:`Session.run` (a blocking read
        exhausting its retries, a crash in the stack) are by construction not
        classifiable here; callers hunting for those wrap the run — see
        :func:`repro.hunt.execute_spec`.
        """
        if self.consistent is False:
            return "violation"
        if self.app_correct is False:
            if self.app_diagnosis.startswith(("livelock", "simulation aborted")):
                return "livelock"
            return "wrong_result"
        if self.consistent is None and self.app_correct is None:
            return "unchecked"
        return "pass"

    def operations(self) -> int:
        """Number of shared-memory operations performed during the run:
        :attr:`operations_executed`."""
        return self.operations_executed

    def app_summary(self) -> str:
        """One-line digest of the application verdict."""
        return AppVerdict(correct=self.app_correct,
                          diagnosis=self.app_diagnosis).summary()

    def result(self, criterion: Optional[str] = None) -> CheckResult:
        """The check result for ``criterion`` (default: the only one checked)."""
        if criterion is None:
            if len(self.results) != 1:
                raise SessionError(
                    f"run checked {sorted(self.results) or 'no'} criteria; "
                    "name the one you want"
                )
            return next(iter(self.results.values()))
        try:
            return self.results[criterion]
        except KeyError:
            raise SessionError(
                f"criterion {criterion!r} was not checked in this run "
                f"(checked: {sorted(self.results)})"
            ) from None

    def summary(self) -> str:
        """Multi-line human-readable digest (the CLI's output)."""
        lines = [f"protocol            : {self.protocol}"]
        if self.app is not None:
            lines.append(f"application         : {self.app}")
        lines.append(
            f"operations          : {self.operations_executed}/{self.operations_total}"
            + ("  (stopped early)" if self.stopped_early else "")
        )
        if self.app is not None:
            lines.append(f"app result          : {self.app_summary()}")
        for criterion in self.criteria:
            result = self.results.get(criterion)
            # NB: CheckResult.__bool__ is the *verdict*, so test for None.
            lines.append(f"{criterion:<20}: "
                         + (result.summary() if result is not None else "not checked"))
        if self.first_violation:
            lines.append(f"first violation     : {self.first_violation}")
        if self.efficiency is not None:
            lines.append(f"messages sent       : {self.efficiency.messages_sent}")
            lines.append(f"control bytes       : {self.efficiency.control_bytes}")
            lines.append(
                "control B/message   : "
                f"{self.efficiency.control_bytes_per_message:.1f}"
            )
            lines.append(
                "control/payload     : "
                f"{self.efficiency.control_overhead_ratio:.3f}"
            )
            lines.append(f"irrelevant messages : {self.efficiency.irrelevant_messages}")
        if self.network_model != "reliable" or self.messages_dropped \
                or self.messages_duplicated:
            lines.append(f"network model       : {self.network_model}")
            dropped = f"messages dropped    : {self.messages_dropped}"
            if self.drops_by_reason:
                reasons = ", ".join(f"{reason}: {count}" for reason, count
                                    in sorted(self.drops_by_reason.items()))
                dropped += f" ({reasons})"
            lines.append(dropped)
            lines.append(f"messages duplicated : {self.messages_duplicated}")
            if self.partition_windows:
                windows = ", ".join(f"[{start:g}, {end:g})"
                                    for start, end in self.partition_windows)
                lines.append(f"partition windows   : {windows}")
        lines.append(f"elapsed             : {self.elapsed_s:.3f}s")
        return "\n".join(lines)


class Session:
    """One streaming protocol run: workload -> simulator -> incremental checks.

    Parameters
    ----------
    protocol:
        A name resolved through the protocol plugin registry
        (:data:`repro.spec.PROTOCOL_REGISTRY`; see
        :data:`repro.mcs.PROTOCOLS` for the live view) or a
        :class:`~repro.spec.ProtocolSpec`.
    distribution:
        A :class:`~repro.core.distribution.VariableDistribution`, a
        :class:`~repro.spec.DistributionSpec`, a family name, or a
        ``(family, params)`` pair.  Omitted for application runs — the app
        brings its own distribution.
    workload:
        A concrete ``Sequence[Access]`` script, a
        :class:`~repro.spec.WorkloadSpec`, a pattern name, or a
        ``(pattern, params)`` pair.  Mutually exclusive with ``app``.
    app:
        Application programs to run instead of a scripted workload: a
        :class:`~repro.dsm.AppInstance`, an :class:`~repro.spec.AppSpec`, a
        registered app name, or a ``(name, params)`` pair.  The programs run
        on a :class:`~repro.dsm.runtime.DSMRuntime` over the session's
        system; their operations stream into the incremental checkers and
        their results are validated by the app's registered validator.
        Direct-style apps are rejected on blocking protocols with a typed
        :class:`~repro.exceptions.AppCompatibilityError`.
        The runtime keeps its default scheduling; an
        :class:`~repro.spec.AppSpec` carrying ``max_steps`` sets the
        per-process step budget.  A :class:`~repro.exceptions.LivelockError`
        or other :class:`~repro.exceptions.SimulationError` raised by the
        runtime is *diagnosed*, not propagated: the report carries
        ``app_correct=False`` and the failure text in ``app_diagnosis``.
    network:
        A :class:`~repro.spec.NetworkSpec`, a concrete
        :class:`~repro.netsim.models.NetworkModel`, a model name or a
        ``(model, params)`` pair — the fault-injection entry point, and
        where latency and channel order (``NetworkSpec.fifo``) are set.
        Omitted: the reliable unit-latency FIFO network.
    criteria:
        Criterion name(s) to check incrementally; defaults to the criterion
        the protocol claims (:data:`repro.mcs.PROTOCOL_CRITERION`).  Pass
        ``check=False`` to disable checking entirely.
    check_policy:
        A :class:`~repro.core.consistency.incremental.CheckPolicy` or one of
        its string spellings (``"finalize"``, ``"every_op"``, ``"fail_fast"``,
        ``"every:N[:fail_fast]"``).
    exact:
        Whether ``finalize`` decides every view exactly — by saturation for
        the causal and PRAM views, by the backtracking search for the other
        criteria — and records witnesses, or only runs the polynomial
        pre-check.
    keep_history:
        Every run is recorded into a columnar
        :class:`~repro.arena.store.OpArena` and checked by
        :class:`~repro.arena.check.ArenaBatchChecker`.  When ``True``
        (default) the report's ``history`` and ``read_from`` are computed
        from the arena on first access; when ``False`` they are ``None``.
        No per-operation object is built unless one of them (or a witness)
        is read: a policy that checks mid-run (periodic, geometric or
        fail-fast) subscribes the checkers to the recorder's rows, so a
        fail-fast run stops at the operation that proves the violation.
    engine:
        Deprecated, checked only: ``"arena"`` (what :attr:`engine` always
        reports); any other value raises
        :class:`~repro.exceptions.SessionError`.  It stays for the callers
        that still pass it and goes with the next ``benchmark`` change.
    trace_out:
        Path of a ``repro-trace-v1`` JSONL file to export the run's delivery
        log to (see :mod:`repro.serve.trace`), written from the arena's rows
        after the run, whatever ``check`` and ``keep_history`` say; the file
        carries the distribution, the protocol and the seed, enough for
        ``repro trace replay`` and ``repro serve`` to re-check the run
        without the simulator.
    trace_scenario:
        Free-form scenario label stamped into the exported trace's meta
        record (e.g. the experiment point name).
    """

    def __init__(
        self,
        protocol: ProtocolLike = "pram_partial",
        distribution: Optional[DistributionLike] = None,
        workload: Optional[WorkloadLike] = None,
        *,
        app: Optional[AppLike] = None,
        seed: int = 0,
        check: bool = True,
        criteria: Union[None, str, Sequence[str]] = None,
        check_policy: Union[CheckPolicy, str, None] = None,
        exact: bool = True,
        keep_history: bool = True,
        engine: Optional[str] = None,
        network: Optional[NetworkLike] = None,
        protocol_options: Optional[Dict[str, Any]] = None,
        trace_out: Optional[str] = None,
        trace_scenario: str = "",
    ) -> None:
        if isinstance(protocol, ProtocolSpec):
            protocol_options = {**protocol.options, **(protocol_options or {})}
            protocol = protocol.name
        component = resolve_protocol(protocol)  # same typed error as MCSystem
        if app is None:
            if distribution is None:
                raise SessionError("Session needs a distribution")
            if workload is None:
                raise SessionError("Session needs a workload")
        elif workload is not None:
            raise SessionError("pass an app or a workload, not both")
        elif distribution is not None:
            raise SessionError(
                "an app brings its own distribution; don't pass one"
            )
        #: Always ``"arena"``: every session records into the arena.
        self.engine = "arena"
        if engine is not None and engine != self.engine:
            raise SessionError(
                f"engine={engine!r}: every session records into the arena"
            )
        self.protocol = component.name
        self.seed = seed
        self.policy = CheckPolicy.parse(check_policy)
        self.exact = exact
        self.keep_history = keep_history
        self._check = check
        if criteria is None:
            self.criteria: Tuple[str, ...] = (component.metadata["criterion"],)
        elif isinstance(criteria, str):
            self.criteria = (criteria,)
        else:
            self.criteria = tuple(criteria)
        self._trace_out = trace_out
        self._trace_scenario = trace_scenario

        if app is not None:
            self.app: Optional[AppInstance] = self._resolve_app(app, component)
            self.distribution = self.app.distribution
            self.script: List[Access] = []
        else:
            self.app = None
            self.distribution = self._resolve_distribution(distribution)
            self.script = self._resolve_workload(workload)
        model, fifo = self._resolve_network(network)
        self.network_model = model
        self.recorder: ArenaRecorder = ArenaRecorder()
        self.system = MCSystem(
            self.distribution,
            protocol=self.protocol,
            fifo=fifo,
            protocol_options=protocol_options,
            recorder=self.recorder,
            network_model=model,
        )
        self.checkers: Dict[str, ArenaBatchChecker] = {}
        if check:
            for criterion in self.criteria:
                checker = ArenaBatchChecker(
                    criterion,
                    self.recorder.arena,
                    exact=exact,
                    cache=self.recorder.cache,
                )
                checker.start(universe=tuple(self.distribution.processes))
                self.checkers[criterion] = checker
        self._ran = False

    @classmethod
    def from_spec(
        cls,
        spec: Union[ScenarioSpec, Mapping[str, Any]],
        *,
        trace_out: Optional[str] = None,
        trace_scenario: str = "",
    ) -> "Session":
        """Build a session from one typed :class:`repro.spec.ScenarioSpec`.

        Accepts the spec object or its :meth:`~repro.spec.ScenarioSpec.to_dict`
        form (e.g. freshly ``json.load``-ed); the spec is validated first, so
        malformed input fails with a typed
        :class:`~repro.exceptions.ScenarioSpecError` before anything runs.
        """
        if not isinstance(spec, ScenarioSpec):
            spec = ScenarioSpec.from_dict(spec)
        spec.validate()
        return cls(
            protocol=spec.protocol,
            distribution=spec.distribution,
            workload=spec.workload,
            app=spec.app,
            seed=spec.seed,
            check=spec.check.enabled,
            criteria=spec.check.criteria or None,
            check_policy=spec.check.policy,
            exact=spec.check.exact,
            network=spec.network,
            trace_out=trace_out,
            trace_scenario=trace_scenario,
        )

    # -- input resolution ----------------------------------------------------
    def _resolve_app(self, app: AppLike, protocol: Any) -> AppInstance:
        self._app_max_steps: Optional[int] = None
        if isinstance(app, str):
            app = AppSpec(app)
        elif isinstance(app, tuple) and len(app) == 2 and isinstance(app[0], str):
            name, params = app
            app = AppSpec(name, dict(params))
        if isinstance(app, AppSpec):
            app.validate()
            self._app_max_steps = app.max_steps
            instance = app.build(seed=self.seed)
        elif isinstance(app, AppInstance):
            instance = app
        else:
            raise SessionError(
                "app must be an AppInstance, an AppSpec, a registered app "
                f"name or a (name, params) pair; got {type(app).__name__}"
            )
        ensure_app_protocol_compatible(instance.name, instance.blocking_ok, protocol)
        return instance

    def _resolve_distribution(self, distribution: DistributionLike) -> VariableDistribution:
        if isinstance(distribution, VariableDistribution):
            return distribution
        if isinstance(distribution, str):
            distribution = (distribution, {})
        if isinstance(distribution, tuple):
            family, params = distribution
            distribution = DistributionSpec(family, dict(params))
        if not isinstance(distribution, DistributionSpec):
            raise SessionError(
                "distribution must be a VariableDistribution, a "
                f"DistributionSpec, a family name or a (family, params) pair; "
                f"got {type(distribution).__name__}"
            )
        return distribution.build(seed=self.seed)

    def _resolve_workload(self, workload: WorkloadLike) -> List[Access]:
        if isinstance(workload, str):
            workload = (workload, {})
        if isinstance(workload, tuple) and len(workload) == 2 and isinstance(workload[0], str):
            pattern, params = workload
            workload = WorkloadSpec(pattern, dict(params))
        if isinstance(workload, WorkloadSpec):
            return workload.build(self.distribution, seed=self.seed)
        # A list is kept as given (no per-session copy); any other iterable
        # is materialised once.
        script = workload if isinstance(workload, list) else list(workload)
        if any(not isinstance(access, Access) for access in script):
            raise SessionError(
                "workload must be a WorkloadSpec, a pattern name, a "
                "(pattern, params) pair or a sequence of Access objects"
            )
        return script

    def _resolve_network(
        self, network: Optional[NetworkLike]
    ) -> Tuple[Optional[NetworkModel], bool]:
        """Resolve the network argument to a (model, fifo) pair."""
        if network is None:
            return None, True
        if isinstance(network, NetworkModel):
            return network, True
        if isinstance(network, str):
            network = NetworkSpec(network)
        elif isinstance(network, tuple) and len(network) == 2:
            model_name, params = network
            network = NetworkSpec(model_name, dict(params))
        if not isinstance(network, NetworkSpec):
            raise SessionError(
                "network must be a NetworkSpec, a NetworkModel, a model name "
                f"or a (model, params) pair; got {type(network).__name__}"
            )
        network.validate()
        return network.build(seed=self.seed), network.fifo

    # -- execution -----------------------------------------------------------
    def run(self, until: Optional[int] = None) -> RunReport:
        """Execute the workload or application, checking incrementally.

        Single-shot.  ``until`` caps the number of script operations driven
        (the whole script when ``None``; not applicable to application
        runs).  Returns the :class:`RunReport`; a fail-fast policy makes the
        run stop at the first proven violation, with ``report.stopped_early``
        set.
        """
        if self._ran:
            raise SessionError(
                "a Session runs once; build a new Session for a fresh run"
            )
        self._ran = True
        started = time.perf_counter()
        first_violation: List[str] = []
        violated = False

        def note(result: Optional[CheckResult]) -> None:
            nonlocal violated
            if result is not None and not result.consistent:
                violated = True
                if not first_violation and result.violations:
                    first_violation.append(result.violations[0])

        def check_due(count: int) -> None:
            if self.policy.due(count):
                for checker in self.checkers.values():
                    note(checker.check_now())

        app_mode = self.app is not None

        def feed(row: int, source_row: int) -> None:
            for checker in self.checkers.values():
                note(checker.feed())
            if app_mode:
                # No per-script-op hook exists here: cadence and fail-fast
                # are driven off the recorded-operation stream itself.
                check_due(self.recorder.operation_count())
                if violated and self.policy.fail_fast:
                    raise _AbortAppRun()

        # The checkers read their rows from the shared arena, so the feed
        # listener is subscribed only when the policy checks mid-run.
        policy = self.policy
        stream_checks = bool(self.checkers) and (
            policy.fail_fast or policy.every > 0 or policy.geometric
        )
        if stream_checks:
            self.recorder.subscribe(feed)
        try:
            if app_mode:
                if until is not None:
                    raise SessionError(
                        "until applies to scripted workloads, not application runs"
                    )
                executed, stopped_early, verdict = self._drive_app()
            else:
                verdict = None
                if until is not None and until < 0:
                    raise SessionError(f"until must be >= 0, got {until}")
                budget = (len(self.script) if until is None
                          else min(until, len(self.script)))
                executed = 0
                stopped_early = False
                for _idx, _access in drive_script(self.system, islice(self.script, budget)):
                    executed += 1
                    check_due(executed)
                    if violated and self.policy.fail_fast:
                        stopped_early = True
                        break
                if not stopped_early:
                    self.system.settle()
        finally:
            if stream_checks:
                self.recorder.unsubscribe(feed)

        simulator = self.system.simulator
        results = {name: checker.finalize() for name, checker in self.checkers.items()}
        if not first_violation:
            # A finalize-only run subscribes no feed listener, so its
            # stream monitors ran inside finalize; surface the earliest hit
            # they recorded, the violation a fed stream would have noted first.
            hits = [
                checker.first_stream_violation
                for checker in self.checkers.values()
                if checker.first_stream_violation is not None
            ]
            if hits:
                first_violation.append(min(hits)[1])
        if not first_violation:
            # A proof found only at finalize (a bad pattern, saturation):
            # name the first violation of the first failing criterion.
            first_violation.extend(
                result.violations[0] for result in results.values()
                if not result.consistent and result.violations
            )
        stats = self.system.stats
        model = self.network_model
        report = RunReport(
            protocol=self.protocol,
            criteria=self.criteria if self._check else (),
            results=results,
            consistent=(all(r.consistent for r in results.values())
                        if results else None),
            exact=all(r.exact for r in results.values()) if results else True,
            operations_total=(self.recorder.operation_count() if app_mode
                              else len(self.script)),
            operations_executed=executed,
            ops_checked=max((c.ops_fed for c in self.checkers.values()), default=0),
            stopped_early=stopped_early,
            first_violation=first_violation[0] if first_violation else None,
            efficiency=self.system.efficiency(),
            events_processed=simulator.processed_events,
            elapsed_s=time.perf_counter() - started,
            sim_time=simulator.now,
            network_model=model.model_name if model is not None else "reliable",
            messages_dropped=stats.messages_dropped,
            messages_duplicated=stats.messages_duplicated,
            drops_by_reason=dict(stats.drops_by_reason),
            partition_windows=(model.partition_windows()
                               if model is not None else ()),
            _recorder=self.recorder if self.keep_history else None,
        )
        if app_mode:
            assert self.app is not None and verdict is not None
            report.app = self.app.name
            report.app_results = dict(self._runtime.results())
            report.app_expected = verdict.expected
            report.app_correct = verdict.correct
            report.app_diagnosis = verdict.diagnosis
            report.program_steps = self._runtime.step_counts()
            report.program_retries = self._runtime.retry_counts()
        report.relevance_violations = sum(
            len(v) for v in relevance_violations(report.efficiency, self.distribution).values()
        )
        if self._trace_out is not None:
            self._export_trace(self._trace_out)
        return report

    def _export_trace(self, path: str) -> int:
        """Write the arena's rows, in recording (delivery) order, as a
        ``repro-trace-v1`` file."""
        # Local import: repro.api must stay importable without the serve
        # subsystem's asyncio machinery (and serve's smoke path imports us).
        from ..serve.trace import TraceMeta, TraceRecord, write_trace

        meta = TraceMeta(
            scenario=self._trace_scenario,
            protocol=self.protocol,
            distribution={
                var: sorted(self.distribution.holders(var))
                for var in sorted(self.distribution.variables)
            },
            criteria=self.criteria if self._check else (),
            seed=self.seed,
        )
        arena = self.recorder.arena
        proc, index, source = arena.proc, arena.index, arena.source
        records = (
            TraceRecord(
                kind=(OpKind.WRITE if arena.is_write(row) else OpKind.READ).value,
                process=proc[row],
                variable=arena.var_name(arena.var[row]),
                value=arena.value_of(row),
                index=index[row],
                invoked_at=arena.timestamp(arena.invoked, row),
                completed_at=arena.timestamp(arena.completed, row),
                source=(None if source[row] == NO_SOURCE
                        else (proc[source[row]], index[source[row]])),
            )
            for row in range(len(arena))
        )
        return write_trace(path, meta, records)

    def _drive_app(self) -> Tuple[int, bool, AppVerdict]:
        """Run the application programs on a DSM runtime over our system.

        Returns ``(operations_recorded, stopped_early, verdict)``.  A
        fail-fast policy aborts the simulation at the first proven violation
        (the run is then *unvalidatable*, not incorrect); a livelocked or
        otherwise failed simulation is diagnosed in the verdict.
        """
        assert self.app is not None
        runtime = (DSMRuntime(self.system) if self._app_max_steps is None else
                   DSMRuntime(self.system, max_steps_per_process=self._app_max_steps))
        self._runtime = runtime
        runtime.add_programs(self.app.programs)
        stopped_early = False
        diagnosis = ""
        try:
            runtime.run()
            # settle() is a no-op today (runtime.run drains the queue), but
            # it belongs inside the try: were it ever to deliver events, the
            # still-subscribed feed listener could raise _AbortAppRun here.
            self.system.settle()
        except _AbortAppRun:
            stopped_early = True
        except LivelockError as exc:
            stopped_early = True
            diagnosis = f"livelock: {exc}"
        except SimulationError as exc:
            stopped_early = True
            diagnosis = f"simulation aborted: {exc}"
        results = runtime.results()
        if diagnosis:
            unfinished = sorted(set(self.app.programs) - set(results))
            if unfinished:
                diagnosis += f" (unfinished programs: {unfinished})"
            verdict = AppVerdict(correct=False, actual=dict(results),
                                 diagnosis=diagnosis)
        elif stopped_early:
            verdict = AppVerdict(
                correct=None, actual=dict(results),
                diagnosis="run aborted at the first proven consistency violation",
            )
        else:
            verdict = self.app.verdict(results)
        return self.recorder.operation_count(), stopped_early, verdict

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        driven = (f"app={self.app.name!r}" if self.app is not None
                  else f"ops={len(self.script)}")
        return (
            f"<Session protocol={self.protocol!r} criteria={list(self.criteria)} "
            f"{driven} policy={self.policy}>"
        )
