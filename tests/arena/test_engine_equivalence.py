"""Cross-engine equivalence: ``engine="arena"`` must reproduce ``"object"``.

Every scenario of the committed paper/stress/faults suites, and sixty
scenarios drawn by the hunt's :class:`~repro.hunt.SpecSampler` (random
protocols, distributions, fault schedules and check policies), is run
through both session engines and the reports compared.  For finalize-checked
specs the guarantee is full equality — verdict, exactness, the violation
strings in order, and every witness, label for label.  Fail-fast policies are
the documented exception: the object engine's per-operation stream monitors
can stop a run mid-operation, while the arena engine (which records
integers, not objects, and therefore does not feed a per-op monitor) stops
at the next geometric checkpoint — so there only the verdict and the first
violation are required to agree, not how much of the workload ran before
the stop.

The object run is also the input of two more verdict paths, which must not
contradict the batch checkers (the ground truth): the batch checker on the
session's own history, and — for scripted specs, through the exported
``repro-trace-v1`` file — the bounded-memory windowed monitor.
"""

from dataclasses import replace

import pytest

from repro.api import Session
from repro.core.consistency import get_checker
from repro.core.consistency.incremental import CheckPolicy
from repro.experiments import builtin_scenarios
from repro.hunt import SpecSampler
from repro.serve.replay import replay_trace, replay_windowed

SUITES = ("paper", "stress", "faults")

SPECS = [point.spec for experiment in builtin_scenarios()
         if experiment.suite in SUITES for point in experiment.expand()]
SPECS += [SpecSampler(0).sample(index) for index in range(60)]


def _spec_id(spec):
    return f"{spec.name}-{spec.protocol.name}-s{spec.seed}"


def assert_no_path_contradicts_batch(report, trace):
    """The heuristic-checked object run against the batch checkers: on its own
    history, and (given a trace of it) through the windowed monitor."""
    if not report.stopped_early:
        for criterion, result in report.results.items():
            batch = get_checker(criterion).check(
                report.history, read_from=report.read_from, exact=False)
            assert (batch.consistent, batch.exact) == (result.consistent, result.exact), \
                criterion
    if trace is None:
        return
    for criterion, batch in replay_trace(trace, exact=False).results.items():
        for window in (8, 64):
            windowed, _ = replay_windowed(trace, criterion=criterion,
                                          window=window, policy="every:4")
            # a windowed violation is always a proof; a clean verdict of a
            # heuristic check never is
            assert windowed.consistent or not batch.consistent, (criterion, window)
            assert not (windowed.consistent and windowed.exact), (criterion, window)


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_engines_agree(spec, tmp_path):
    trace = str(tmp_path / "run.jsonl") if spec.app is None else None
    obj = Session.from_spec(spec, trace_out=trace).run()
    col = Session.from_spec(replace(spec, engine="arena")).run()

    assert obj.consistent == col.consistent
    assert obj.first_violation == col.first_violation
    assert sorted(obj.results) == sorted(col.results)
    if not spec.check.exact:
        assert_no_path_contradicts_batch(obj, trace)

    # Fail-fast policies let a stream hit stop the run mid-workload;
    # executed-operation counts (and anything downstream of them) may differ.
    if CheckPolicy.parse(spec.check.policy).fail_fast:
        assert obj.stopped_early == col.stopped_early
        return

    assert obj.exact == col.exact
    assert obj.operations_executed == col.operations_executed
    assert obj.stopped_early == col.stopped_early
    for criterion, result_obj in obj.results.items():
        result_col = col.results[criterion]
        assert result_obj.consistent == result_col.consistent, criterion
        assert result_obj.exact == result_col.exact, criterion
        assert result_obj.violations == result_col.violations, criterion
        assert sorted(result_obj.serializations) == \
            sorted(result_col.serializations), criterion
        for pid, witness in result_obj.serializations.items():
            assert [op.label() for op in witness] == \
                [op.label() for op in result_col.serializations[pid]], criterion
