"""Differential test: an experiment is valid exactly when its runs are.

``ExperimentSpec.validate`` checks only its own axes (protocols, seeds, grid
axes and values) and defers every run to ``ScenarioSpec.validate``.  Here
the runs are rebuilt independently of the experiment's expansion code, and
on every generated malformed experiment ``ExperimentSpec.validate`` must
raise the same exception type and message as ``ScenarioSpec.validate``
raises on the first invalid run, in expansion order.
"""

import copy
import itertools
import random

import pytest

from repro.exceptions import ReproError
from repro.experiments import DistributionSpec, ExperimentSpec, NetworkSpec, WorkloadSpec
from repro.spec import AppSpec, CheckSpec, ProtocolSpec, ScenarioSpec

WAIT_FREE = ("pram_partial", "causal_partial", "causal_full", "causal_tree")


def expanded_runs(experiment):
    """Every run of ``experiment``: grid cell, then protocol, then seed."""
    axes = sorted(experiment.grid)
    for cell in itertools.product(*(experiment.grid[axis] for axis in axes)):
        for protocol in experiment.protocols:
            for seed in experiment.seeds:
                parts = {scope: copy.deepcopy(getattr(experiment, scope))
                         for scope in ("distribution", "workload", "app")}
                for axis, value in zip(axes, cell):
                    scope, _, param = axis.partition(".")
                    parts[scope].params[param] = value
                yield ScenarioSpec(
                    name=experiment.name,
                    protocol=ProtocolSpec(protocol, dict(experiment.protocol_options)),
                    network=copy.deepcopy(experiment.network),
                    check=CheckSpec(experiment.check_consistency,
                                    tuple(experiment.criteria),
                                    experiment.check_policy, experiment.exact),
                    seed=seed,
                    **parts,
                )


def first_run_error(experiment):
    for run in expanded_runs(experiment):
        try:
            run.validate()
        except ReproError as exc:
            return exc
    return None


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return tuple(items)


def scripted(rng, **overrides):
    fields = dict(
        name=f"gen-{rng.randrange(1000)}",
        distribution=DistributionSpec("chain", {"intermediates": 1}),
        workload=WorkloadSpec("uniform", {"operations_per_process": 3}),
        protocols=tuple(rng.sample(WAIT_FREE, rng.randint(1, 3))),
        seeds=tuple(rng.sample(range(10), rng.randint(1, 3))),
        grid=rng.choice([{}, {"workload.operations_per_process": (2, 3)},
                         {"distribution.intermediates": (1, 2)}]),
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def application(rng, **overrides):
    fields = dict(app=AppSpec("producer_consumer", {"stages": 2}),
                  distribution=None, workload=None,
                  grid=rng.choice([{}, {"app.items": (2, 3)}]))
    fields.update(overrides)
    return scripted(rng, **fields)


MALFORMED = {
    # relay_scope is an option of causal_partial alone
    "protocol-option": lambda rng: scripted(
        rng, protocols=shuffled(rng, ("causal_partial", "pram_partial")),
        protocol_options={"relay_scope": "dependencies"}),
    "app-and-distribution": lambda rng: application(
        rng, distribution=DistributionSpec("random"),
        workload=rng.choice([None, WorkloadSpec("uniform")])),
    "blocking-protocol": lambda rng: application(
        rng, protocols=shuffled(rng, rng.sample(WAIT_FREE, 2) + ["sequencer_sc"])),
    "unknown-criterion": lambda rng: scripted(
        rng, criteria=rng.choice([("nope",), ("causal", "nope")])),
    "check-policy": lambda rng: scripted(
        rng, check_policy=rng.choice(["bogus", "every:x", "every:3:bogus", "every:-1"])),
    "network-param": lambda rng: scripted(
        rng, network=rng.choice([NetworkSpec("faulty", {"drop_rate": 3}),
                                 NetworkSpec("faulty", {"bogus": 1}),
                                 NetworkSpec("reliable", {"duplicate_rate": -1})])),
    # the line topology takes no extra_edges, the random one does
    "topology-grid-value": lambda rng: scripted(
        rng,
        distribution=DistributionSpec("neighbourhood", {"nodes": 4, "extra_edges": 1}),
        workload=WorkloadSpec("uniform", {"operations_per_process": 2}),
        grid={"distribution.topology": shuffled(rng, ("random", "line")),
              **rng.choice([{}, {"workload.operations_per_process": (2, 3)}])}),
}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_experiment_raises_what_its_first_invalid_run_raises(kind, seed):
    experiment = MALFORMED[kind](random.Random(f"{kind}-{seed}"))
    expected = first_run_error(experiment)
    assert expected is not None, "the generator built a valid experiment"
    with pytest.raises(ReproError) as raised:
        experiment.validate()
    assert type(raised.value) is type(expected)
    assert str(raised.value) == str(expected)
    with pytest.raises(type(expected)) as expanded:
        experiment.expand()
    assert str(expanded.value) == str(expected)


@pytest.mark.parametrize("seed", range(8))
def test_valid_experiments_expand_to_their_runs(seed):
    rng = random.Random(seed)
    experiment = rng.choice([scripted, application])(rng)
    assert first_run_error(experiment) is None
    experiment.validate()
    assert [point.spec for point in experiment.expand()] == list(expanded_runs(experiment))
