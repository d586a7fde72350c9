"""Batch execution of scenario suites: expand, cache-check, run, aggregate.

The runner turns declarative :class:`~repro.experiments.spec.ExperimentSpec`
objects into :class:`ScenarioRecord` results.  Every expanded point carries
one canonical :class:`repro.spec.ScenarioSpec` and is executed through
:meth:`repro.api.Session.from_spec`, which owns the whole pipeline —
distribution, scripted workload, protocol system over the discrete-event
simulator and its (possibly fault-injecting) network model, history
recorder, incremental consistency checkers for the criteria the scenario
names (default: the criterion the protocol's registry entry claims) — and
hands back one :class:`~repro.api.RunReport` carrying the verdict, the
Section 3.3 efficiency report, the Theorem 1 relevance accounting and the
network/fault statistics.  Each record is compared against the scenario's
``expect_consistent`` expectation: :attr:`SuiteResult.failures` lists the
surprises in *either* direction, which is what makes the ``faults`` suite a
regression gate.

Results are memoised through :class:`~repro.experiments.cache.ResultCache`
(content-hash keyed, see :mod:`repro.experiments.cache`) and independent
points can be fanned out over a ``multiprocessing`` pool — scenario runs
share no state, so the speed-up is close to linear until the pool saturates
the machine.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from ..mcs.system import PROTOCOL_CRITERION
from .cache import ResultCache
from .spec import ExperimentSpec, ScenarioPoint


@dataclass
class ScenarioRecord:
    """Structured result of one executed scenario point."""

    scenario: str
    suite: str
    paper_ref: str
    protocol: str
    seed: int
    distribution: str
    workload: str
    params: Dict[str, Any]
    criterion: str
    consistent: Optional[bool]
    exact: bool
    processes: int
    variables: int
    operations: int
    messages: int
    payload_bytes: int
    control_bytes: int
    control_bytes_per_message: float
    irrelevant_messages: int
    irrelevant_fraction: float
    relevance_violations: int
    elapsed_s: float
    cached: bool = False
    control_overhead_ratio: float = 0.0
    network_model: str = "reliable"
    messages_dropped: int = 0
    messages_duplicated: int = 0
    expected_consistent: Optional[bool] = True
    stopped_early: bool = False
    first_violation: Optional[str] = None
    app: str = ""
    app_correct: Optional[bool] = None
    app_diagnosis: str = ""
    expected_correct: Optional[bool] = None

    @property
    def consistency_as_expected(self) -> bool:
        """The consistency verdict matches ``expected_consistent`` (None = don't care)."""
        return (self.consistent is None or self.expected_consistent is None
                or self.consistent == self.expected_consistent)

    @property
    def app_as_expected(self) -> bool:
        """The application result matches ``expected_correct`` (None = don't care)."""
        return (self.app_correct is None or self.expected_correct is None
                or self.app_correct == self.expected_correct)

    @property
    def as_expected(self) -> bool:
        """``True`` when the verdicts match the scenario's expectations.

        Both the consistency verdict (against ``expected_consistent``) and
        the application result (against ``expected_correct``) must match;
        ``None`` on either side of a comparison means "don't care"/"not
        checked" and never counts as a surprise.
        """
        return self.consistency_as_expected and self.app_as_expected

    def as_row(self) -> Dict[str, Any]:
        """Flat row for the plain-text table renderers."""
        return {
            "scenario": self.scenario,
            "protocol": self.protocol,
            "seed": self.seed,
            "app": self.app or "-",
            "app_ok": {True: "yes", False: "NO", None: "-"}[self.app_correct]
            + ("" if self.app_as_expected else " (UNEXPECTED)"),
            "criterion": self.criterion,
            "ok": {True: "yes", False: "NO", None: "n/a"}[self.consistent]
            + ("" if self.consistency_as_expected else " (UNEXPECTED)"),
            "exact": "yes" if self.exact else "heuristic",
            "network": self.network_model,
            "dropped": self.messages_dropped,
            "procs": self.processes,
            "vars": self.variables,
            "ops": self.operations,
            "msgs": self.messages,
            "ctrl_B/msg": round(self.control_bytes_per_message, 1),
            "ctrl/payload": round(self.control_overhead_ratio, 3),
            "irrelevant": self.irrelevant_messages,
            "beyond_thm1": self.relevance_violations,
            "time_s": round(self.elapsed_s, 3),
            "cached": "hit" if self.cached else "",
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (the shape stored in the result cache)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioRecord":
        """Rebuild a record from :meth:`to_dict` output (tolerates extra keys).

        Raises :class:`TypeError` when ``data`` is not a complete record dict.
        """
        if not isinstance(data, dict):
            raise TypeError(f"record entry must be a dict, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - py37-safe
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class SuiteResult:
    """Outcome of a batch run: records plus cache accounting."""

    records: List[ScenarioRecord] = field(default_factory=list)
    executed: int = 0
    cached: int = 0
    elapsed_s: float = 0.0

    @property
    def failures(self) -> List[ScenarioRecord]:
        """Records whose verdict contradicts the scenario's expectation.

        For ordinary scenarios (``expect_consistent=True``) this is exactly
        the historical "consistency check failed" set; fault-injection
        scenarios designed to produce a proven violation
        (``expect_consistent=False``) fail when the violation is *not*
        caught, which is what makes ``repro experiments run --suite faults``
        a regression gate.
        """
        return [r for r in self.records if not r.as_expected]


@contextlib.contextmanager
def worker_pool(workers: int = 0) -> Iterator[Optional[Any]]:
    """One shared ``multiprocessing.Pool`` for a whole batch (or ``None``).

    This is the single place the experiments layer creates worker pools:
    :func:`run_suite` runs its pending points through it, and batch-style
    callers (the ``repro hunt`` driver) enter it once and thread the yielded
    pool through *all* their scenario executions — one pool per batch, never
    one per scenario.  ``workers`` of 0 or 1 yields ``None``, meaning run in
    the parent process.
    """
    if workers and workers > 1:
        with multiprocessing.Pool(processes=workers) as pool:
            yield pool
    else:
        yield None


def run_point(point: ScenarioPoint) -> ScenarioRecord:
    """Execute one scenario point end-to-end, through one streaming
    :class:`repro.api.Session`, and build its record.

    A module-level function of the point alone, so :func:`run_suite` can map
    it over a worker pool.
    """
    from ..api import Session  # local import: repro.api builds on this package

    spec = point.spec
    started = time.perf_counter()
    session = Session.from_spec(spec)
    report = session.run()
    criterion = ",".join(report.criteria) if report.criteria else \
        PROTOCOL_CRITERION[spec.protocol.name]
    efficiency = report.efficiency
    if spec.app is not None:
        distribution_name, workload_name = "-", "-"
        params: Dict[str, Any] = dict(spec.app.params)
    else:
        distribution_name = spec.distribution.family
        workload_name = spec.workload.pattern
        params = {**spec.distribution.params, **spec.workload.params}
    return ScenarioRecord(
        scenario=spec.name,
        suite=point.suite,
        paper_ref=point.paper_ref,
        protocol=spec.protocol.name,
        seed=spec.seed,
        distribution=distribution_name,
        workload=workload_name,
        params=params,
        criterion=criterion,
        consistent=report.consistent,
        exact=report.exact if point.check_consistency else point.exact,
        processes=efficiency.processes,
        variables=efficiency.variables,
        operations=report.operations_total,
        messages=efficiency.messages_sent,
        payload_bytes=efficiency.payload_bytes,
        control_bytes=efficiency.control_bytes,
        control_bytes_per_message=efficiency.control_bytes_per_message,
        control_overhead_ratio=efficiency.control_overhead_ratio,
        irrelevant_messages=efficiency.irrelevant_messages,
        irrelevant_fraction=efficiency.irrelevant_message_fraction,
        relevance_violations=report.relevance_violations,
        elapsed_s=time.perf_counter() - started,
        cached=False,
        network_model=spec.network.model,
        messages_dropped=report.messages_dropped,
        messages_duplicated=report.messages_duplicated,
        expected_consistent=point.expect_consistent,
        stopped_early=report.stopped_early,
        first_violation=report.first_violation,
        app=report.app or "",
        app_correct=report.app_correct,
        app_diagnosis=report.app_diagnosis,
        expected_correct=point.expect_correct,
    )


def run_suite(
    specs: Sequence[ExperimentSpec],
    cache: Optional[ResultCache] = None,
    workers: int = 0,
    progress: Optional[Any] = None,
) -> SuiteResult:
    """Run every point of every spec, reusing cached results where possible.

    Parameters
    ----------
    specs:
        The scenarios to run (each is expanded to its full grid).
    cache:
        Result cache; pass ``None`` to disable caching entirely.
    workers:
        When > 1, cache misses are executed in a ``multiprocessing`` pool of
        that size, one point per task (scenario points are independent, so
        any split is sound).  Each point's record is the one ``workers=0``
        gives, bar ``elapsed_s``.
    progress:
        Optional ``callable(str)`` invoked with a one-line status per point.
    """
    started = time.perf_counter()
    result = SuiteResult()
    pending: List[ScenarioPoint] = []
    say = progress or (lambda line: None)
    for spec in specs:
        for point in spec.expand():
            if cache is not None:
                stored = cache.get(point.content_hash())
                if stored is not None:
                    try:
                        record = ScenarioRecord.from_dict(stored)
                    except TypeError:
                        # incomplete/foreign entry: a cache may only ever make
                        # things faster, so treat it as a miss and re-run
                        record = None
                    if record is not None:
                        record.cached = True
                        # Presentation/gating fields are excluded from the
                        # cache key, so re-stamp them from the *current*
                        # point: an edited expectation or re-filed scenario
                        # must not be judged against the stored values.
                        record.suite = point.suite
                        record.paper_ref = point.paper_ref
                        record.expected_consistent = point.expect_consistent
                        record.expected_correct = point.expect_correct
                        result.records.append(record)
                        result.cached += 1
                        say(f"cached   {point.label()}")
                        continue
            pending.append(point)
    if pending and workers > 1:
        with worker_pool(workers) as pool:
            assert pool is not None  # workers > 1 always yields a pool
            fresh = pool.map(run_point, pending, chunksize=1)
    else:
        fresh = [run_point(point) for point in pending]
    for point, record in zip(pending, fresh):
        say(f"executed {point.label()} ({record.elapsed_s:.3f}s)")
        if cache is not None:
            cache.put(point.content_hash(), point.key(), record.to_dict())
        result.records.append(record)
        result.executed += 1
    result.elapsed_s = time.perf_counter() - started
    return result


def aggregate_records(records: Iterable[ScenarioRecord]) -> List[Dict[str, Any]]:
    """Aggregate per-point records into per-(scenario, protocol) summary rows.

    Counts are summed over seeds/grid cells; ratios are averaged.  The rows
    feed :func:`repro.analysis.report.render_table` /
    :func:`~repro.analysis.report.render_records` directly.
    """
    groups: Dict[Any, List[ScenarioRecord]] = {}
    for record in records:
        groups.setdefault((record.scenario, record.protocol), []).append(record)
    rows: List[Dict[str, Any]] = []
    for (scenario, protocol), group in sorted(groups.items()):
        n = len(group)
        verdicts = [r.consistent for r in group if r.consistent is not None]
        all_exact = all(r.exact for r in group if r.consistent is not None)
        # Surprises are attributed per gate, so the "(UNEXPECTED)" marker
        # lands on the column whose expectation actually mismatched.
        consistency_surprises = [r for r in group if not r.consistency_as_expected]
        app_surprises = [r for r in group if not r.app_as_expected]
        ok = ("n/a" if not verdicts
              else ("yes" if all_exact else "yes (heuristic)")
              if all(verdicts) else "NO")
        if (not consistency_surprises and any(v is False for v in verdicts)
                and any(r.expected_consistent is False for r in group)):
            # a heuristic "yes" is only "no violation found", not a proof;
            # an expected violation is the scenario doing its job — but only
            # when the scenario actually *expects* one (not a None don't-care)
            ok = "NO (expected)"
        elif consistency_surprises:
            ok += " (UNEXPECTED)"
        app_name = group[0].app
        app_verdicts = [r.app_correct for r in group if r.app_correct is not None]
        if not app_name:
            app_ok = "-"
        elif not app_verdicts:
            app_ok = "n/a"
        elif all(app_verdicts):
            app_ok = "validated"
        elif (not app_surprises
              and any(r.expected_correct is False for r in group)):
            # a diagnosed failure (livelock under faults...) the scenario
            # is designed to produce — the expected-result gate at work
            app_ok = "NO (expected)"
        else:
            app_ok = "NO"
        if app_surprises and app_ok not in ("-", "n/a"):
            app_ok += " (UNEXPECTED)"
        rows.append({
            "scenario": scenario,
            "protocol": protocol,
            "runs": n,
            "app": app_name or "-",
            "app_ok": app_ok,
            "criterion": group[0].criterion,
            "ok": ok,
            "msgs": sum(r.messages for r in group),
            "dropped": sum(r.messages_dropped for r in group),
            "ctrl_B/msg": round(sum(r.control_bytes_per_message for r in group) / n, 1),
            "irrelevant": sum(r.irrelevant_messages for r in group),
            "beyond_thm1": sum(r.relevance_violations for r in group),
            "cached": sum(1 for r in group if r.cached),
            "time_s": round(sum(r.elapsed_s for r in group), 3),
        })
    return rows
