"""Hunt driver: determinism, pool fan-out, dedup, corpus regression guard."""

from hunt_helpers import build_spec
from repro.hunt import Finding, hunt, replay_finding
from repro.spec.scenario import NetworkSpec

BUDGET = 30  # covers the first committed reproducers of hunter seed 0


class _RecordingPool:
    """multiprocessing.Pool stand-in: serial, order-preserving, counting."""

    def __init__(self):
        self.map_calls = []

    def map(self, func, iterable, chunksize=None):
        items = list(iterable)
        self.map_calls.append(len(items))
        return [func(item) for item in items]


class TestDeterminism:
    def test_identical_hunts_produce_identical_findings(self):
        first = hunt(budget=BUDGET, hunter_seed=0, shrink=False)
        second = hunt(budget=BUDGET, hunter_seed=0, shrink=False)
        assert first.executed == second.executed == BUDGET
        assert [f.to_dict() for f in first.findings] == \
            [f.to_dict() for f in second.findings]
        assert first.findings, "hunter seed 0 must find something in 30 trials"

    def test_pool_fanout_changes_nothing_but_uses_one_batch(self):
        pool = _RecordingPool()
        fanned = hunt(budget=BUDGET, hunter_seed=0, shrink=False, pool=pool)
        serial = hunt(budget=BUDGET, hunter_seed=0, shrink=False)
        assert [f.to_dict() for f in fanned.findings] == \
            [f.to_dict() for f in serial.findings]
        # the whole trial batch goes through ONE pool.map — the pool is
        # reused across scenarios, never recreated per trial
        assert pool.map_calls == [BUDGET]


class TestFindingsShape:
    def test_findings_are_deduplicated_by_signature(self):
        report = hunt(budget=BUDGET, hunter_seed=0, shrink=False)
        signatures = [f.signature() for f in report.findings]
        assert len(signatures) == len(set(signatures))

    def test_shrinking_attaches_provenance_and_reduces_size(self):
        # seed 1 is the smallest hunter seed with a finding inside 10 trials
        # now that the sampler also draws zipfian workloads and the sharded
        # protocols
        report = hunt(budget=10, hunter_seed=1, shrink=True, shrink_budget=60)
        assert report.findings
        for finding in report.findings:
            assert finding.provenance["hunter_seed"] == 1
            assert "shrink_runs" in finding.provenance
            original = finding.provenance["original_operations"]
            assert finding.operations <= original
        assert report.shrink_runs > 0

    def test_fresh_findings_do_not_fail_the_hunt(self):
        report = hunt(budget=10, hunter_seed=0, shrink=False)
        assert report.ok
        assert report.summary_lines()


class TestCorpusGuard:
    def test_a_finding_that_stops_reproducing_is_a_regression(self):
        # a clean reliable-FIFO pram run claimed as a "violation" reproducer:
        # replay classifies it as a pass, which must surface loudly
        bogus = Finding(kind="violation", spec=build_spec("pram_partial"),
                        provenance={"trial": 0})
        still, seen = replay_finding(bogus)
        assert not still and seen is None

        report = hunt(budget=0, known=[bogus])
        assert not report.ok
        assert [r.kind for r in report.regressions] == ["unexpected_pass"]
        assert report.regressions[0].provenance["expected_kind"] == "violation"

    def test_a_reproducing_corpus_passes_replay(self):
        spec = build_spec(network=NetworkSpec(
            "reliable",
            {"latency": {"kind": "uniform", "low": 0.2, "high": 2.0}},
            fifo=False), seed=1)
        # find a seed that actually violates, then replay it as corpus
        from repro.hunt import classify, execute_spec
        for seed in range(30):
            spec.seed = seed
            if classify(spec, execute_spec(spec)) == "violation":
                break
        else:
            raise AssertionError("no violating seed found")
        genuine = Finding(kind="violation", spec=spec)
        report = hunt(budget=0, known=[genuine])
        assert report.ok and not report.regressions


class TestViolationDetails:
    def test_every_violation_finding_names_its_reason(self):
        """Trials keep history, so a violation proven only by the finalize
        bad-pattern sweep (no stream monitor fired) is a finding too, and it
        still carries the violation that proves it."""
        report = hunt(budget=50, hunter_seed=0, shrink=False)
        violations = [f for f in report.findings
                      if f.kind in ("violation", "unexpected_violation")]
        assert violations
        assert all(f.detail for f in violations), \
            [f.slug() for f in violations if not f.detail]
        assert any("is forced between" in f.detail for f in violations)
