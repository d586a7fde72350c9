"""Tests of the batch runner, the result cache and record aggregation."""

import json

from repro.experiments import (
    DistributionSpec,
    ExperimentSpec,
    ResultCache,
    ScenarioRecord,
    WorkloadSpec,
    aggregate_records,
    run_point,
    run_suite,
)


def tiny_spec(name="tiny", **overrides):
    base = dict(
        name=name,
        distribution=DistributionSpec("chain", {"intermediates": 1}),
        workload=WorkloadSpec("uniform", {"operations_per_process": 3,
                                          "write_fraction": 0.5}),
        protocols=("pram_partial",),
        seeds=(0,),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRunPoint:
    def test_record_fields(self):
        (point,) = tiny_spec().expand()
        record = run_point(point)
        assert record.scenario == "tiny"
        assert record.protocol == "pram_partial"
        assert record.criterion == "pram"
        assert record.consistent is True and record.exact is True
        assert record.processes == 3  # chain with one intermediate
        assert record.operations == 3 * 3
        assert record.messages > 0
        assert record.cached is False

    def test_heuristic_check_flagged(self):
        (point,) = tiny_spec(exact=False).expand()
        record = run_point(point)
        assert record.exact is False

    def test_check_can_be_skipped(self):
        (point,) = tiny_spec(check_consistency=False).expand()
        record = run_point(point)
        assert record.consistent is None

    def test_record_roundtrips_through_json(self):
        (point,) = tiny_spec().expand()
        record = run_point(point)
        clone = ScenarioRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone == record


class TestCacheBehaviour:
    def test_second_run_hits_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = run_suite([tiny_spec()], cache=cache)
        assert first.executed == 1 and first.cached == 0
        assert not first.records[0].cached

        second = run_suite([tiny_spec()], cache=cache)
        assert second.executed == 0 and second.cached == 1
        assert second.records[0].cached
        # apart from the cached flag, the replayed record is the original
        a, b = first.records[0], second.records[0]
        b.cached = False
        assert a == b

    def test_parameter_change_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_suite([tiny_spec()], cache=cache)
        changed = tiny_spec(seeds=(1,))
        result = run_suite([changed], cache=cache)
        assert result.executed == 1 and result.cached == 0

    def test_no_cache_always_executes(self, tmp_path):
        run_suite([tiny_spec()], cache=None)
        result = run_suite([tiny_spec()], cache=None)
        assert result.executed == 1 and result.cached == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_suite([tiny_spec()], cache=cache)
        for path in (tmp_path / "cache").glob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        result = run_suite([tiny_spec()], cache=cache)
        assert result.executed == 1 and result.cached == 0

    def test_incomplete_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_suite([tiny_spec()], cache=cache)
        for path in (tmp_path / "cache").glob("*.json"):
            path.write_text('{"key": {}, "record": {"scenario": "tiny"}}',
                            encoding="utf-8")
        result = run_suite([tiny_spec()], cache=cache)
        assert result.executed == 1 and result.cached == 0

    def test_entries_are_self_describing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_suite([tiny_spec()], cache=cache)
        (entry,) = (tmp_path / "cache").glob("*.json")
        payload = json.loads(entry.read_text(encoding="utf-8"))
        assert payload["key"]["name"] == "tiny"
        assert payload["record"]["scenario"] == "tiny"

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == 0
        run_suite([tiny_spec()], cache=cache)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestBatchAndAggregation:
    def test_multiprocess_fanout_matches_serial(self, tmp_path):
        specs = [tiny_spec(seeds=(0, 1), protocols=("pram_partial",
                                                    "causal_partial"))]
        serial = run_suite(specs, cache=None, workers=0)
        fanned = run_suite(specs, cache=None, workers=2)
        strip = lambda r: {**r.to_dict(), "elapsed_s": None}
        assert sorted(map(repr, map(strip, serial.records))) == \
               sorted(map(repr, map(strip, fanned.records)))

    def test_progress_callback_sees_every_point(self, tmp_path):
        lines = []
        run_suite([tiny_spec(seeds=(0, 1))], cache=None,
                  progress=lines.append)
        assert len(lines) == 2 and all("tiny" in line for line in lines)

    def test_aggregate_groups_by_scenario_and_protocol(self):
        specs = [tiny_spec(seeds=(0, 1),
                           protocols=("pram_partial", "causal_partial"))]
        result = run_suite(specs, cache=None)
        rows = aggregate_records(result.records)
        assert len(rows) == 2
        for row in rows:
            assert row["runs"] == 2
            assert row["ok"] == "yes"

    def test_aggregate_marks_heuristic_verdicts(self):
        result = run_suite([tiny_spec(exact=False)], cache=None)
        (row,) = aggregate_records(result.records)
        assert row["ok"] == "yes (heuristic)"

    def test_failures_property_empty_on_green_runs(self):
        result = run_suite([tiny_spec()], cache=None)
        assert result.failures == []


class TestCacheVsExpectations:
    def test_cached_record_uses_current_expectation(self, tmp_path):
        # expect_consistent is excluded from the cache key, so a cache hit
        # must be re-stamped with the *current* expectation, not the stored
        # one — otherwise editing a scenario's expectation is invisible
        # until the cache is cleared.
        cache = ResultCache(tmp_path / "cache")
        run_suite([tiny_spec()], cache=cache)
        flipped = tiny_spec(expect_consistent=False)
        result = run_suite([flipped], cache=cache)
        (record,) = result.records
        assert record.cached is True
        assert record.expected_consistent is False
        assert result.failures  # consistent run vs flipped expectation


class TestWorkerPool:
    def test_one_pending_point_over_a_pool_gives_the_serial_record(self):
        """A single cache miss goes through the pool like any other batch;
        its record is the serial one, bar the wall time."""
        pooled = run_suite([tiny_spec()], cache=None, workers=2)
        serial = run_suite([tiny_spec()], cache=None, workers=0)
        assert pooled.executed == serial.executed == 1
        (a,), (b,) = pooled.records, serial.records
        a.elapsed_s = b.elapsed_s = 0.0
        assert a == b
