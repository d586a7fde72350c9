"""Unit tests for :mod:`repro.mcs.vector_clock`."""

from repro.mcs.system import MCSystem
from repro.mcs.vector_clock import VectorClock
from repro.netsim.message import estimate_size
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import full_replication


class TestVectorClock:
    def test_initial_entries_are_zero(self):
        vc = VectorClock([0, 1, 2])
        assert vc[0] == vc[1] == vc[2] == 0
        assert vc[99] == 0  # unknown entries read as zero
        assert len(vc) == 3

    def test_increment_and_set(self):
        vc = VectorClock([0, 1])
        vc.increment(0).increment(0)
        vc[1] = 5
        assert vc[0] == 2 and vc[1] == 5

    def test_merge_is_pointwise_max(self):
        a = VectorClock(values={0: 3, 1: 1})
        b = VectorClock(values={0: 2, 1: 4, 2: 1})
        a.merge(b)
        assert a[0] == 3 and a[1] == 4 and a[2] == 1

    def test_copy_is_independent(self):
        a = VectorClock(values={0: 1})
        b = a.copy()
        b.increment(0)
        assert a[0] == 1 and b[0] == 2

    def test_dominates(self):
        a = VectorClock(values={0: 2, 1: 2})
        b = VectorClock(values={0: 1, 1: 2})
        assert a.dominates(b)
        assert not b.dominates(a)
        assert a.strictly_dominates(b)
        assert not a.strictly_dominates(a.copy())

    def test_concurrency(self):
        a = VectorClock(values={0: 1, 1: 0})
        b = VectorClock(values={0: 0, 1: 1})
        assert a.concurrent_with(b)
        assert not a.concurrent_with(a.copy())

    def test_equality_ignores_zero_entries(self):
        assert VectorClock(values={0: 1}) == VectorClock(values={0: 1, 1: 0})
        assert hash(VectorClock(values={0: 1})) == hash(VectorClock(values={0: 1, 1: 0}))

    def test_as_dict_and_items(self):
        vc = VectorClock(values={1: 2, 0: 1})
        assert vc.as_dict() == {0: 1, 1: 2}
        assert list(vc.items()) == [(0, 1), (1, 2)]

    def test_size_bytes_scales_with_entries(self):
        assert VectorClock([0, 1, 2]).size_bytes() == 48

    def test_size_bytes_is_the_message_byte_model(self):
        vc = VectorClock(values={0: 7, 3: 1, 12: 40})
        assert vc.size_bytes() == estimate_size(vc.as_dict()) == 16 * 3

    def test_admits_only_the_senders_next_write_with_its_past_seen(self):
        local = VectorClock(values={0: 2, 1: 1, 2: 0})
        assert local.admits(1, {0: 2, 1: 2, 2: 0})
        assert local.admits(1, {0: 1, 1: 2, 2: 0})  # older dependencies are fine
        assert not local.admits(1, {0: 2, 1: 1, 2: 0})  # already applied
        assert not local.admits(1, {0: 2, 1: 3, 2: 0})  # a sender write is missing
        assert not local.admits(1, {0: 3, 1: 2, 2: 0})  # depends on an unseen write
        assert not local.admits(1, {0: 2, 1: 2, 2: 1})
        assert VectorClock([0, 1]).admits(2, {2: 1, 5: 0})  # absent entries read as zero

    def test_accept_counts_what_admits_lets_through_and_nothing_else(self):
        local = VectorClock(values={0: 2, 1: 1, 2: 0})
        assert not local.accept(1, {0: 3, 1: 2, 2: 0})  # depends on an unseen write
        assert local.as_dict() == {0: 2, 1: 1, 2: 0}
        assert local.accept(1, {0: 1, 1: 2, 2: 0})
        assert local.as_dict() == {0: 2, 1: 2, 2: 0}  # only the sender's entry moves
        assert not local.accept(1, {0: 1, 1: 2, 2: 0})  # the same update again


def test_full_broadcast_update_costs_274_control_bytes():
    """16 clock entries of 16 B, ``"sender"`` plus its 8-B number, the
    ``"vc"`` key and a 2-byte variable name: 256 + 14 + 2 + 2."""
    dist = full_replication(16, 8)
    system = MCSystem(dist, protocol="causal_full")
    run_script(system, uniform_access_script(dist, operations_per_process=4, seed=0))
    stats = system.stats
    assert stats.messages_sent > 0
    assert stats.control_bytes == 274 * stats.messages_sent
    assert 16 * 16 + len("sender") + 8 + len("vc") + len("x0") == 274
