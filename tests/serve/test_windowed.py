"""Bounded-memory windowed checking: equivalence with the batch oracle.

The ISSUE's acceptance battery:

* a >= 50k-op synthetic stream monitored with peak retained operations
  bounded by the eviction window (orders of magnitude below the stream
  length), with Theorem-1-proved evictions doing the bulk of the work;
* windowed verdicts equal the batch oracle's on violating and clean
  streams, with real simulator exports (paper / stress / faults scenarios)
  as the trace sources;
* on violating streams the verdict is equal on the first violating prefix,
  not only at the end;
* checkpoint / restore round-trips the whole monitor state mid-stream.
"""

import json

import pytest

from repro.core.consistency import get_checker
from repro.core.operations import BOTTOM
from repro.core.consistency.incremental import WindowedChecker
from repro.exceptions import ConsistencyCheckError, TraceFormatError, UnknownCriterionError
from repro.serve.monitor import TenantMonitor, VIOLATED
from repro.serve.replay import materialise, replay_trace, replay_windowed
from repro.serve.spec import TenantSpec
from repro.serve.trace import TraceMeta, TraceRecord, read_trace, write_trace

#: (experiment scenario, point index, expected batch verdict) — the trace
#: sources of the equivalence property, one per suite the ISSUE names.
SCENARIO_SOURCES = [
    ("figure2-hoop", 0, True),            # paper, clean
    ("figure2-hoop", 3, True),            # paper, causal_partial point
    ("stress-long-hoop", 0, True),        # stress, clean
    ("faults-partition-hoop", 0, False),  # faults, proven violation
]


def _export(tmp_path, scenario, point_index):
    from repro.api import Session
    from repro.experiments.suites import REGISTRY

    point = REGISTRY.get(scenario).expand()[point_index]
    path = str(tmp_path / f"{scenario}-{point_index}.jsonl")
    Session.from_spec(point.spec, trace_out=path,
                      trace_scenario=point.label()).run()
    return path


def _synthetic_meta():
    return TraceMeta(scenario="synthetic-single-writer",
                     distribution={"x": [0, 1, 2, 3]})


def _synthetic_stream(rounds):
    """One writer, three readers, fully causal: 4 ops per round."""
    records = []
    for r in range(rounds):
        records.append(TraceRecord(kind="write", process=0, variable="x",
                                   value=r, index=r))
        for reader in (1, 2, 3):
            records.append(TraceRecord(kind="read", process=reader,
                                       variable="x", value=r, index=r,
                                       source=(0, r)))
    return records


class TestBoundedMemory:
    def test_50k_stream_peak_bounded_by_window(self):
        window = 64
        rounds = 12_500  # 4 ops per round = 50_000 operations
        monitor = TenantMonitor(
            TenantSpec(name="bulk", policy="finalize", window=window),
            meta=_synthetic_meta(),
        )
        for record in _synthetic_stream(rounds):
            monitor.ingest(record)
        result = monitor.finalize()
        metrics = monitor.metrics
        assert result.consistent is True
        assert metrics.ops_fed == 4 * rounds
        # the bound: window + one frontier write per (process, variable)
        # + a round of slack; orders of magnitude under the stream length
        assert metrics.peak_retained <= window + 4 + 8
        assert metrics.peak_retained * 100 < metrics.ops_fed
        # Theorem 1 proves essentially every write dead (each holder of x
        # observes it one round later); only reads ride the forced path
        assert metrics.evicted_proved >= rounds - window - 4

    def test_violation_after_eviction_is_still_proven(self):
        """A stale read of a long-evicted write is caught exactly (monitors
        never forget writer indices, only the window forgets operations)."""
        window = 64
        rounds = 2_000
        monitor = TenantMonitor(
            TenantSpec(name="stale", policy="finalize", window=window),
            meta=_synthetic_meta(),
        )
        for record in _synthetic_stream(rounds):
            monitor.ingest(record)
        stale = TraceRecord(kind="read", process=1, variable="x", value=100,
                            index=rounds, source=(0, 100))
        found = monitor.ingest(stale)
        assert found is not None and not found.consistent
        assert monitor.state == VIOLATED
        result = monitor.finalize()
        assert result.consistent is False
        assert result.exact is True
        assert monitor.metrics.peak_retained <= window + 4 + 8

    def test_window_floor_is_enforced(self):
        for window in (-1, 1, 2, 3):
            with pytest.raises(ConsistencyCheckError):
                WindowedChecker(get_checker("causal"), window=window)


class TestCleanWindowIsCheckedOnce:
    """A window that checked clean is not checked again until something is fed
    or re-inserted: ``finalize`` right after a due ``check_now`` reuses it."""

    @staticmethod
    def _monitor_counting_checks(calls, policy="every:64", window=256):
        monitor = TenantMonitor(
            TenantSpec(name="count", policy=policy, window=window),
            meta=TraceMeta(distribution={"x": [0, 1, 2, 3], "y": [1, 2]}))
        windowed = monitor._checker
        decide = windowed._decide

        def counting(exact):
            calls.append(windowed.retained_operations)
            return decide(exact)

        windowed._decide = counting
        return monitor

    @pytest.mark.parametrize("records,checks", [(128, 2), (130, 3)])
    def test_finalize_after_a_clean_due_check(self, records, checks):
        calls = []
        monitor = self._monitor_counting_checks(calls)
        plain = TenantMonitor(
            TenantSpec(name="plain", policy="finalize", window=256), meta=_synthetic_meta())
        for record in _synthetic_stream(33)[:records]:
            assert monitor.ingest(record) is None
            plain.ingest(record)
        result = monitor.finalize()
        assert len(calls) == checks
        reference = plain.finalize()
        assert (result.consistent, result.exact, result.violations) == \
            (reference.consistent, reference.exact, reference.violations) == (True, False, [])
        assert monitor.metrics.as_dict() == plain.metrics.as_dict()
        assert monitor._checker.check_now() is None and len(calls) == checks

    def test_a_reinserted_standin_invalidates_the_clean_window(self):
        calls = []
        monitor = self._monitor_counting_checks(calls, policy="every:32", window=8)
        for record in _synthetic_stream(8):
            monitor.ingest(record)
        windowed = monitor._checker
        assert len(calls) == 1 and windowed.lookup_write(0, 0) is None  # evicted
        assert windowed.check_now() is None and len(calls) == 1
        windowed.resolve_source(0, "x", 0, 0)
        assert windowed.check_now() is None and len(calls) == 2
        assert monitor.finalize().consistent and len(calls) == 2

    def test_a_violating_window_is_never_reused(self):
        """p2 reads y from p1, who had read x from p0, then still reads x = ⊥:
        silent stream monitors, a causal bad pattern over the window."""
        calls = []
        monitor = self._monitor_counting_checks(calls, policy="finalize", window=16)
        for record in [
            TraceRecord(kind="write", process=0, variable="x", value=1, index=0),
            TraceRecord(kind="read", process=1, variable="x", value=1, index=0, source=(0, 0)),
            TraceRecord(kind="write", process=1, variable="y", value=2, index=1),
            TraceRecord(kind="read", process=2, variable="y", value=2, index=0, source=(1, 1)),
            TraceRecord(kind="read", process=2, variable="x", value=BOTTOM, index=1),
        ]:
            assert monitor.ingest(record) is None
        first, second = monitor._checker.check_now(), monitor._checker.check_now()
        assert len(calls) == 2 and not first.consistent
        assert first.violations == second.violations == monitor.finalize().violations
        assert len(calls) == 3 and len(first.violations) == 1


class TestBatchEquivalence:
    @pytest.mark.parametrize("scenario,point,expect_consistent",
                             SCENARIO_SOURCES)
    @pytest.mark.parametrize("window", [16, 64])
    def test_windowed_matches_batch(self, tmp_path, scenario, point,
                                    expect_consistent, window):
        path = _export(tmp_path, scenario, point)
        batch = replay_trace(path)
        assert batch.consistent is expect_consistent
        criterion = batch.criteria[0]
        result, metrics = replay_windowed(path, criterion=criterion,
                                          window=window)
        assert result.consistent is expect_consistent
        if not expect_consistent:
            # a windowed violation is a proof, never a heuristic
            assert result.exact is True
            assert result.violations
        assert metrics.peak_retained <= metrics.ops_fed

    def test_violating_prefix_matches_batch(self, tmp_path):
        """Checked every op, the monitor fires on exactly the first prefix
        the batch oracle rejects — same ops, same polynomial machinery."""
        path = _export(tmp_path, "faults-partition-hoop", 0)
        meta, records = read_trace(path)
        criterion = meta.criteria[0]
        monitor = TenantMonitor(
            TenantSpec(name="prefix", criterion=criterion,
                       policy="every_op", window=16),
            meta=meta,
        )
        fired_at = None
        for position, record in enumerate(records):
            if monitor.ingest(record) is not None:
                fired_at = position
                break
        assert fired_at is not None, "windowed monitor never fired"

        def batch_consistent(prefix, exact):
            history, read_from = materialise(meta, prefix)
            return get_checker(criterion).check(
                history, read_from=read_from, exact=exact).consistent

        earliest = next(
            position for position in range(len(records))
            if not batch_consistent(records[:position + 1], exact=False)
        )
        assert fired_at == earliest
        # and the exact oracle confirms the verdict on that prefix
        assert batch_consistent(records[:fired_at + 1], exact=True) is False

    def test_clean_windowed_verdict_is_heuristic_only(self, tmp_path):
        path = _export(tmp_path, "figure2-hoop", 0)
        result, _ = replay_windowed(path, window=8)
        assert result.consistent is True
        assert result.exact is False  # eviction forfeits the clean proof

    def test_undersized_window_degrades_honestly(self, tmp_path):
        """A window smaller than the violating pattern's span may miss the
        violation — but then it must say so (``exact=False``), never claim
        a proof of consistency."""
        path = _export(tmp_path, "faults-partition-hoop", 0)
        criterion = read_trace(path)[0].criteria[0]
        result, metrics = replay_windowed(path, criterion=criterion, window=8)
        if result.consistent:
            assert result.exact is False
            assert metrics.evicted_forced > 0  # evidence left by force
        else:
            assert result.exact is True


class TestCheckpointRestore:
    def test_mid_stream_checkpoint_round_trips(self):
        window = 32
        records = _synthetic_stream(500)  # 2000 ops
        cut = len(records) // 2
        meta = _synthetic_meta()

        straight = TenantMonitor(
            TenantSpec(name="straight", policy="finalize", window=window),
            meta=meta)
        for record in records:
            straight.ingest(record)
        expected = straight.finalize()

        first = TenantMonitor(
            TenantSpec(name="first", policy="finalize", window=window),
            meta=meta)
        for record in records[:cut]:
            first.ingest(record)
        snapshot = json.loads(json.dumps(first.checkpoint()))

        resumed = WindowedChecker.restore(
            snapshot, distribution=meta.variable_distribution())
        for record in records[cut:]:
            source = None
            if record.source is not None:
                source = resumed.resolve_source(
                    record.source[0], record.variable, record.value,
                    record.source[1])
            resumed.feed(record.to_operation(), read_from=source)
        result = resumed.finalize()

        assert result.consistent is expected.consistent is True
        assert resumed.ops_fed == straight.ops_ingested
        assert resumed.metrics.retained == straight.metrics.retained

    @staticmethod
    def _snapshot():
        monitor = TenantMonitor(
            TenantSpec(name="snap", policy="finalize", window=32), meta=_synthetic_meta())
        for record in _synthetic_stream(20):
            monitor.ingest(record)
        return json.loads(json.dumps(monitor.checkpoint()))

    def test_a_payload_without_the_exact_flag_restores_identically(self):
        """Checkpoints written before the ``exact`` key existed restore as the
        serve tenants' ``exact=False`` checker, state for state."""
        snapshot = self._snapshot()
        assert snapshot.pop("exact") is False
        restored = WindowedChecker.restore(
            snapshot, distribution=_synthetic_meta().variable_distribution())
        assert restored.checkpoint() == {**snapshot, "exact": False}

    @pytest.mark.parametrize("key", ["criterion", "window", "operations"])
    def test_a_missing_key_is_refused_at_restore(self, key):
        snapshot = self._snapshot()
        del snapshot[key]
        with pytest.raises(ConsistencyCheckError, match=key):
            WindowedChecker.restore(snapshot)

    def test_an_unknown_operation_kind_is_refused_at_restore(self):
        snapshot = self._snapshot()
        snapshot["operations"][0]["kind"] = "fence"
        with pytest.raises(ConsistencyCheckError, match="fence"):
            WindowedChecker.restore(snapshot)

    @pytest.mark.parametrize("shift", [0, -1], ids=["duplicate", "decreasing"])
    def test_a_non_increasing_index_is_refused_at_restore(self, shift):
        snapshot = self._snapshot()
        ops = snapshot["operations"]
        at = next(i for i in range(1, len(ops)) if ops[i]["process"] == ops[i - 1]["process"])
        ops[at]["index"] = ops[at - 1]["index"] + shift
        with pytest.raises(ConsistencyCheckError, match="does not extend"):
            WindowedChecker.restore(snapshot)

    def test_an_unknown_criterion_is_refused_at_restore(self):
        snapshot = self._snapshot()
        snapshot["criterion"] = "nope"
        with pytest.raises(UnknownCriterionError):
            WindowedChecker.restore(snapshot)

    def test_restored_monitor_still_proves_violations(self):
        window = 32
        records = _synthetic_stream(250)
        meta = _synthetic_meta()
        monitor = TenantMonitor(
            TenantSpec(name="resume", policy="finalize", window=window),
            meta=meta)
        for record in records:
            monitor.ingest(record)
        snapshot = json.loads(json.dumps(monitor.checkpoint()))
        resumed = WindowedChecker.restore(
            snapshot, distribution=meta.variable_distribution())
        stale = resumed.resolve_source(0, "x", 3, 3)
        found = resumed.feed(
            TraceRecord(kind="read", process=1, variable="x", value=3,
                        index=250, source=(0, 3)).to_operation(),
            read_from=stale)
        assert found is not None and found.consistent is False
        assert resumed.finalize().exact is True


class TestCorruptSources:
    """A read whose ``source`` names a write on another variable, or of
    another value, makes the trace malformed: neither the offline oracle nor
    a served tenant (whose window still retains that write) gives it a
    verdict."""

    @staticmethod
    def _records(corruption):
        # the source is w0(y)'b': read x instead, or read the value 'a'
        read = {"variable": dict(variable="x", value="b"),
                "value": dict(variable="y", value="a")}[corruption]
        return [
            TraceRecord(kind="write", process=0, variable="x", value="a", index=0),
            TraceRecord(kind="write", process=0, variable="y", value="b", index=1),
            TraceRecord(kind="read", process=1, index=0, source=(0, 1), **read),
        ]

    @pytest.mark.parametrize("corruption", ["variable", "value"])
    def test_the_offline_oracle_refuses(self, tmp_path, corruption):
        path = str(tmp_path / "corrupt.jsonl")
        write_trace(path, _synthetic_meta(), self._records(corruption))
        with pytest.raises(TraceFormatError, match=r"names source \[0, 1\]"):
            replay_trace(path)

    @pytest.mark.parametrize("corruption", ["variable", "value"])
    def test_a_served_tenant_refuses(self, corruption):
        monitor = TenantMonitor(TenantSpec(name="corrupt", window=16),
                                meta=_synthetic_meta())
        *writes, read = self._records(corruption)
        for record in writes:
            monitor.ingest(record)
        with pytest.raises(TraceFormatError, match=r"names source \[0, 1\]"):
            monitor.ingest(read)
