"""Tests of the pluggable network models: latency specs and fault injection."""

import pytest

from repro.exceptions import NetworkModelError, SimulationError
from repro.netsim import (
    ConstantLatency,
    CrashWindow,
    FaultyNetworkModel,
    LogNormalLatency,
    Message,
    Network,
    Partition,
    ReliableNetworkModel,
    Simulator,
    UniformLatency,
    build_latency,
)


class TestBuildLatency:
    def test_accepts_numbers_none_and_models(self):
        assert build_latency(None).delay == 1.0
        assert build_latency(0.25).delay == 0.25
        model = UniformLatency(0.1, 0.2, seed=3)
        assert build_latency(model) is model

    def test_builds_kinds_from_dicts(self):
        assert isinstance(build_latency({"kind": "constant", "delay": 2.0}),
                          ConstantLatency)
        assert isinstance(build_latency({"kind": "uniform", "low": 0.1,
                                         "high": 0.2}), UniformLatency)
        assert isinstance(build_latency({"kind": "lognormal"}), LogNormalLatency)

    def test_seed_threaded_into_seeded_kinds(self):
        first = build_latency({"kind": "uniform"}, seed=5)
        second = build_latency({"kind": "uniform"}, seed=5)
        samples = [first.sample(0, 1) for _ in range(5)]
        assert samples == [second.sample(0, 1) for _ in range(5)]

    def test_typed_errors(self):
        with pytest.raises(NetworkModelError, match="unknown latency kind"):
            build_latency({"kind": "warp"})
        with pytest.raises(NetworkModelError, match="bad latency spec"):
            build_latency({"kind": "uniform", "bogus": 1})
        with pytest.raises(NetworkModelError, match="bad latency spec"):
            build_latency({"kind": "constant", "delay": -1})
        with pytest.raises(NetworkModelError, match="latency spec must be"):
            build_latency(["nope"])


class TestNonFiniteLatencies:
    """A NaN passes every ``<`` range check, and an infinite delay never
    arrives; both must be refused where the latency is configured."""

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("spec", [
        {"kind": "constant", "delay": NAN},
        {"kind": "constant", "delay": INF},
        {"kind": "uniform", "low": 0.5, "high": INF},
        {"kind": "lognormal", "median": NAN},
        {"kind": "lognormal", "sigma": INF},
        {"kind": "pairwise", "base": {(0, 1): NAN}},
        {"kind": "pairwise", "base": {}, "default": INF},
        {"kind": "pairwise", "base": {}, "jitter": NAN},
        NAN,
    ], ids=repr)
    def test_build_latency_rejects(self, spec):
        with pytest.raises(NetworkModelError, match="finite"):
            build_latency(spec)

    def test_models_reject_directly(self):
        from repro.netsim import PairwiseLatency

        with pytest.raises(NetworkModelError, match="median"):
            LogNormalLatency(median=self.NAN)
        with pytest.raises(NetworkModelError, match="base"):
            PairwiseLatency({(0, 1): self.NAN})
        with pytest.raises(NetworkModelError, match="delay"):
            ConstantLatency(self.NAN)
        with pytest.raises(NetworkModelError, match="duplicate_lag"):
            FaultyNetworkModel(duplicate_rate=0.5, duplicate_lag=self.NAN)

    def test_spec_dicts_reject(self):
        from repro.exceptions import ScenarioSpecError
        from repro.spec import NetworkSpec

        spec = NetworkSpec.from_dict(
            {"model": "faulty", "params": {"latency": {"kind": "constant", "delay": self.NAN}}}
        )
        with pytest.raises(ScenarioSpecError, match="finite"):
            spec.validate()
        with pytest.raises(NetworkModelError, match="finite"):
            spec.build(seed=0)


class TestPartition:
    def test_group_partition_severs_across_groups_only(self):
        partition = Partition(start=1.0, end=2.0, groups=((0, 1), (2,)))
        assert partition.severs(0, 2, 1.5)
        assert partition.severs(2, 1, 1.5)
        assert not partition.severs(0, 1, 1.5)

    def test_window_and_heal(self):
        partition = Partition(start=1.0, end=2.0, groups=((0,), (1,)))
        assert not partition.severs(0, 1, 0.5)   # before
        assert partition.severs(0, 1, 1.0)       # inclusive start
        assert not partition.severs(0, 1, 2.0)   # healed at end

    def test_link_partition_directions(self):
        symmetric = Partition(start=0.0, end=1.0, links=((0, 2),))
        assert symmetric.severs(0, 2, 0.5) and symmetric.severs(2, 0, 0.5)
        oneway = Partition(start=0.0, end=1.0, links=((0, 2),), symmetric=False)
        assert oneway.severs(0, 2, 0.5) and not oneway.severs(2, 0, 0.5)

    def test_unpartitioned_processes_unaffected(self):
        partition = Partition(start=0.0, end=1.0, groups=((0,), (1,)))
        assert not partition.severs(5, 6, 0.5)

    def test_validation(self):
        with pytest.raises(NetworkModelError, match="start <= end"):
            Partition(start=2.0, end=1.0, groups=((0,), (1,)))
        with pytest.raises(NetworkModelError, match="'groups' or 'links'"):
            Partition(start=0.0, end=1.0)
        with pytest.raises(NetworkModelError, match="unknown keys"):
            Partition.from_dict({"start": 0, "end": 1, "groups": [[0]],
                                 "bogus": 2})

    @pytest.mark.parametrize("spec", [
        {"start": "x", "end": 1, "groups": [[0], [1]]},
        {"start": None, "end": 1, "groups": [[0], [1]]},
        {"start": 0, "end": [1], "groups": [[0], [1]]},
        {"start": 0, "end": 1, "groups": [0, 1]},
        {"start": 0, "end": 1, "links": [[0, "b"]]},
        {"start": 0, "end": 1, "links": [[0, 1, 2]]},
        {"start": 0, "end": 1, "links": [[0]]},
    ], ids=["string-start", "null-start", "list-end", "flat-groups", "string-link", "three-link",
            "one-link"])
    def test_a_mistyped_field_is_typed(self, spec):
        with pytest.raises(NetworkModelError, match="malformed partition spec"):
            Partition.from_dict(spec)

    @pytest.mark.parametrize("start,end", [(float("nan"), 1.0), (0.0, float("nan"))])
    def test_a_nan_bound_is_refused(self, start, end):
        with pytest.raises(NetworkModelError, match="start <= end"):
            Partition(start=start, end=end, groups=((0,), (1,)))
        with pytest.raises(NetworkModelError, match="start <= end"):
            CrashWindow(process=0, start=start, end=end)

    @pytest.mark.parametrize("symmetric", ["false", "true", 0, 1, None])
    def test_symmetric_must_be_a_json_bool(self, symmetric):
        with pytest.raises(NetworkModelError, match="'symmetric' must be true or false"):
            Partition.from_dict({"start": 0, "end": 1, "links": [[0, 2]],
                                 "symmetric": symmetric})

    def test_a_one_way_cut_stays_one_way(self):
        oneway = Partition.from_dict({"start": 0, "end": 1, "links": [[0, 2]],
                                      "symmetric": False})
        assert oneway.severs(0, 2, 0.5) and not oneway.severs(2, 0, 0.5)
        assert Partition.from_dict(oneway.to_dict()) == oneway


class TestCrashWindow:
    def test_covers_only_the_window(self):
        crash = CrashWindow(process=1, start=1.0, end=3.0)
        assert crash.covers(1, 2.0)
        assert not crash.covers(1, 3.0)  # recovered
        assert not crash.covers(2, 2.0)  # someone else

    def test_round_trip(self):
        crash = CrashWindow(process=1, start=1.0, end=3.0)
        assert CrashWindow.from_dict(crash.to_dict()) == crash

    @pytest.mark.parametrize("spec", [
        {"process": None, "start": 0, "end": 1},
        {"process": 1, "start": None, "end": 1},
        {"process": "one", "start": 0, "end": 1},
        {"process": 1, "start": 0, "end": "later"},
    ], ids=["null-process", "null-start", "string-process", "string-end"])
    def test_a_mistyped_field_is_typed(self, spec):
        with pytest.raises(NetworkModelError, match="malformed crash spec"):
            CrashWindow.from_dict(spec)


class TestFaultyModelPlans:
    def test_reliable_model_always_delivers_once(self):
        model = ReliableNetworkModel(latency=0.5)
        plan = model.plan(0, 1, 0.0)
        assert plan.delays == (0.5,) and plan.drop_reason is None

    def test_partition_drop_reason(self):
        model = FaultyNetworkModel(
            latency=0.5, partitions=[{"start": 0.0, "end": 1.0,
                                      "groups": [[0], [1]]}])
        assert model.plan(0, 1, 0.5).drop_reason == "partition"
        assert model.plan(0, 1, 1.5).delays  # healed

    def test_crash_drop_reason_and_precedence(self):
        model = FaultyNetworkModel(
            latency=0.5,
            crashes=[{"process": 1, "start": 0.0, "end": 1.0}],
            partitions=[{"start": 0.0, "end": 1.0, "groups": [[0], [1]]}])
        assert model.plan(0, 1, 0.5).drop_reason == "crash"   # src or dst
        assert model.plan(1, 0, 0.5).drop_reason == "crash"

    def test_loss_and_duplication_are_seed_deterministic(self):
        def schedule(seed):
            model = FaultyNetworkModel(latency=0.5, drop_rate=0.3,
                                       duplicate_rate=0.3, seed=seed)
            return [model.plan(0, 1, float(t)).delays for t in range(50)]

        assert schedule(3) == schedule(3)
        assert schedule(3) != schedule(4)

    def test_duplicate_plan_has_two_delays(self):
        model = FaultyNetworkModel(latency=0.5, duplicate_rate=1.0,
                                   duplicate_lag=2.0, seed=0)
        plan = model.plan(0, 1, 0.0)
        assert len(plan.delays) == 2
        assert plan.delays[1] >= plan.delays[0]

    def test_rate_validation(self):
        with pytest.raises(NetworkModelError, match="drop_rate"):
            FaultyNetworkModel(drop_rate=1.5)
        with pytest.raises(NetworkModelError, match="duplicate_rate"):
            FaultyNetworkModel(duplicate_rate=-0.1)
        with pytest.raises(NetworkModelError, match="duplicate_lag"):
            FaultyNetworkModel(duplicate_lag=-1)

    def test_partition_windows_reported(self):
        model = FaultyNetworkModel(partitions=[
            {"start": 0.0, "end": 2.0, "groups": [[0], [1]]},
            {"start": 5.0, "end": 6.0, "links": [[0, 1]]},
        ])
        assert model.partition_windows() == ((0.0, 2.0), (5.0, 6.0))


class _Sink:
    def __init__(self):
        self.received = []

    def on_message(self, message):
        self.received.append(message)


class TestNetworkIntegration:
    def _network(self, model):
        simulator = Simulator()
        network = Network(simulator, model=model)
        sinks = {}
        for pid in (0, 1):
            sinks[pid] = _Sink()
            network.register(pid, sinks[pid])
        return simulator, network, sinks

    def test_drops_are_counted_not_delivered(self):
        model = FaultyNetworkModel(latency=0.5, partitions=[
            {"start": 0.0, "end": 1.0, "groups": [[0], [1]]}])
        simulator, network, sinks = self._network(model)
        network.send(Message(src=0, dst=1, kind="update"))
        simulator.run()
        assert sinks[1].received == []
        assert network.stats.messages_sent == 1
        assert network.stats.messages_dropped == 1
        assert network.stats.drops_by_reason == {"partition": 1}

    def test_duplicates_are_delivered_twice_and_counted(self):
        model = FaultyNetworkModel(latency=0.5, duplicate_rate=1.0,
                                   duplicate_lag=1.0, seed=1)
        simulator, network, sinks = self._network(model)
        network.send(Message(src=0, dst=1, kind="update"))
        simulator.run()
        assert len(sinks[1].received) == 2
        assert network.stats.messages_duplicated == 1
        assert network.stats.messages_delivered == 2

    def test_duplicate_copies_escape_the_fifo_floor(self):
        # Copy of message 1 lags far behind; message 2's primary copy must
        # still be delivered at its own latency, i.e. *before* the stale
        # duplicate — that reordering is what breaks barrier-free protocols.
        model = FaultyNetworkModel(latency=0.2, duplicate_rate=1.0,
                                   duplicate_lag=0.0, seed=0)
        # make the duplicate of the first message very late
        original_plan = model.plan

        def plan(src, dst, now, _orig=original_plan):
            result = _orig(src, dst, now)
            if now == 0.0 and len(result.delays) == 2:
                return type(result)(delays=(result.delays[0], 5.0))
            return result

        model.plan = plan
        simulator, network, sinks = self._network(model)
        first = Message(src=0, dst=1, kind="update", control={"n": 1})
        second = Message(src=0, dst=1, kind="update", control={"n": 2})
        network.send(first)
        simulator.run(until=0.1)
        network.send(second)
        simulator.run()
        order = [m.control["n"] for m in sinks[1].received]
        # message 2 (and its zero-lag duplicate) overtakes the stale copy of 1
        assert order == [1, 2, 2, 1]

    def test_reliable_default_path_unchanged(self):
        simulator, network, sinks = self._network(None)
        network.send(Message(src=0, dst=1, kind="update"))
        simulator.run()
        assert len(sinks[1].received) == 1
        assert network.stats.messages_dropped == 0


class TestCrashArrivalSemantics:
    def test_in_flight_message_lost_when_dst_crashed_at_arrival(self):
        model = FaultyNetworkModel(
            latency=0.5, crashes=[{"process": 1, "start": 1.0, "end": 3.0}])
        # sent at 0.9, would arrive at 1.4 while p1's interface is down
        assert model.plan(0, 1, 0.9).drop_reason == "crash"
        # sent at 0.4 -> arrives 0.9, before the crash: delivered
        assert model.plan(0, 1, 0.4).delays == (0.5,)
        # sent at 2.8 -> arrives 3.3, after recovery... but send-time check
        # fires first (the crashed process cannot receive at send either)
        assert model.plan(0, 1, 2.8).drop_reason == "crash"
        # sent after recovery: delivered
        assert model.plan(0, 1, 3.0).delays == (0.5,)
