"""Behavioural unit tests of the four MCS protocols, driven through MCSystem."""

import pytest

from repro.core.distribution import VariableDistribution
from repro.core.operations import BOTTOM
from repro.exceptions import ProtocolError, ReplicaMissingError, RetryOperation
from repro.mcs.system import PROTOCOL_CRITERION, PROTOCOLS, MCSystem
from repro.netsim.latency import PairwiseLatency


def pair_distribution():
    return VariableDistribution({0: {"x", "y"}, 1: {"x", "y"}, 2: {"y"}})


class TestMCSystemWiring:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ProtocolError):
            MCSystem(pair_distribution(), protocol="two-phase-commit")

    def test_every_registered_protocol_builds(self):
        for name in PROTOCOLS:
            system = MCSystem(pair_distribution(), protocol=name)
            assert system.protocol_name == name
            assert system.expected_criterion == PROTOCOL_CRITERION[name]

    def test_process_accessors(self):
        system = MCSystem(pair_distribution(), protocol="pram_partial")
        assert set(system.processes) == {0, 1, 2}
        assert system.process(0).pid == 0


class TestPRAMPartial:
    def test_update_reaches_only_replica_holders(self):
        system = MCSystem(pair_distribution(), protocol="pram_partial")
        system.process(0).write("x", 1)
        system.settle()
        assert system.process(1).read("x") == 1
        # p2 does not replicate x and received nothing about it.
        assert system.stats.received_variable_messages.get((2, "x"), 0) == 0
        assert system.stats.messages_sent == 1

    def test_read_own_write_is_immediate(self):
        system = MCSystem(pair_distribution(), protocol="pram_partial")
        system.process(0).write("x", 41)
        assert system.process(0).read("x") == 41

    def test_missing_replica_rejected(self):
        system = MCSystem(pair_distribution(), protocol="pram_partial")
        with pytest.raises(ReplicaMissingError):
            system.process(2).read("x")
        with pytest.raises(ReplicaMissingError):
            system.process(2).write("x", 1)

    def test_per_sender_program_order_is_preserved(self):
        system = MCSystem(pair_distribution(), protocol="pram_partial")
        for i in range(5):
            system.process(0).write("x", i)
        system.settle()
        assert system.process(1).read("x") == 4

    def test_non_fifo_network_buffers_out_of_order_updates(self):
        class Decreasing:
            def __init__(self):
                self.next = 50.0

            def sample(self, src, dst):
                self.next -= 1.0
                return self.next

        system = MCSystem(pair_distribution(), protocol="pram_partial",
                          latency=Decreasing(), fifo=False)
        for i in range(5):
            system.process(0).write("x", i)
        system.settle()
        assert system.process(1).read("x") == 4
        assert system.process(1).pending_updates() == 0

    def test_initial_value_is_bottom(self):
        system = MCSystem(pair_distribution(), protocol="pram_partial")
        assert system.process(1).read("x") is BOTTOM

    def test_control_bytes_constant_per_message(self):
        system = MCSystem(pair_distribution(), protocol="pram_partial")
        for i in range(10):
            system.process(0).write("x", i)
        system.settle()
        per_message = system.stats.control_bytes / system.stats.messages_sent
        # sender id + sequence number + variable name: small and constant.
        assert per_message < 40


class TestCausalFull:
    def test_every_process_receives_every_write(self):
        system = MCSystem(pair_distribution(), protocol="causal_full")
        system.process(0).write("x", 7)
        system.settle()
        # Full replication: even p2 (which never accesses x) stores it.
        assert system.process(2).read("x") == 7
        assert system.stats.messages_sent == 2

    def test_causal_delivery_order(self):
        # p0 writes x then y; p1 reads y=new then must not read stale x.
        latency = PairwiseLatency({(0, 1): 1.0}, default=1.0)
        system = MCSystem(pair_distribution(), protocol="causal_full", latency=latency)
        system.process(0).write("x", "old")
        system.settle()
        system.process(0).write("x", "new")
        system.process(0).write("y", "flag")
        system.settle()
        assert system.process(1).read("y") == "flag"
        assert system.process(1).read("x") == "new"

    def test_pending_buffer_empties_after_settle(self):
        system = MCSystem(pair_distribution(), protocol="causal_full")
        for i in range(4):
            system.process(i % 2).write("x", i)
        system.settle()
        for pid in (0, 1, 2):
            assert system.process(pid).pending_updates() == 0

    def test_vector_clock_tracks_writes(self):
        system = MCSystem(pair_distribution(), protocol="causal_full")
        system.process(0).write("x", 1)
        system.process(0).write("y", 2)
        system.settle()
        assert system.process(1).vector_clock[0] == 2


class TestCausalPartial:
    def test_updates_restricted_to_holders(self):
        system = MCSystem(pair_distribution(), protocol="causal_partial")
        system.process(0).write("x", 3)
        system.settle()
        assert system.process(1).read("x") == 3
        assert system.stats.received_variable_messages.get((2, "x"), 0) == 0

    def test_dependencies_grow_with_causal_past(self):
        system = MCSystem(pair_distribution(), protocol="causal_partial")
        system.process(0).write("x", 1)
        system.settle()
        system.process(1).read("x")
        system.process(1).write("y", 2)
        system.settle()
        p2 = system.process(2)
        assert p2.read("y") == 2
        # p2 holds only y but has now heard (through the dependency list) of x.
        assert "x" in p2.foreign_control_variables()

    def test_invalid_relay_scope_rejected(self):
        with pytest.raises(ValueError):
            MCSystem(pair_distribution(), protocol="causal_partial",
                     protocol_options={"relay_scope": "bogus"})

    def test_context_size_reporting(self):
        system = MCSystem(pair_distribution(), protocol="causal_partial")
        system.process(0).write("x", 1)
        system.process(0).write("y", 2)
        assert system.process(0).context_size() == 2


class TestSequencerSC:
    def test_write_then_read_sees_own_write_after_ordering(self):
        system = MCSystem(pair_distribution(), protocol="sequencer_sc")
        writer = system.process(1)  # not the sequencer (0 is)
        writer.write("x", 9)
        with pytest.raises(RetryOperation):
            writer.read("x")
        system.settle()
        assert writer.read("x") == 9
        assert writer.own_pending_writes() == 0

    def test_sequencer_orders_writes_globally(self):
        system = MCSystem(pair_distribution(), protocol="sequencer_sc")
        system.process(1).write("x", "from-1")
        system.process(2).write("x", "from-2")
        system.settle()
        values = {system.process(pid).read("x") for pid in (0, 1, 2)}
        assert len(values) == 1  # everybody agrees on the same final value

    def test_sequencer_process_writes_directly(self):
        system = MCSystem(pair_distribution(), protocol="sequencer_sc")
        system.process(0).write("y", 5)
        system.settle()
        assert system.process(2).read("y") == 5

    def test_reads_do_not_block_without_pending_writes(self):
        system = MCSystem(pair_distribution(), protocol="sequencer_sc")
        assert system.process(1).read("x") is BOTTOM


class TestDuplicateToleranceWhilePending:
    """Duplicates of an update still buffered (not yet deliverable) must be
    dropped too — a faulty network can duplicate a message whose original is
    waiting on a causal dependency."""

    def test_causal_full_ignores_duplicate_of_pending_update(self):
        from repro.netsim.message import Message

        system = MCSystem(pair_distribution(), protocol="causal_full")
        receiver = system.process(1)
        # p0's *second* write: needs vc[0] == 1 first, so it buffers.
        update = Message(src=0, dst=1, kind="update", variable="x",
                         payload={"value": "v2"},
                         control={"sender": 0, "vc": {0: 2, 1: 0, 2: 0},
                                  "_wid": [0, 2]})
        receiver.on_message(update)
        assert receiver.pending_updates() == 1
        receiver.on_message(update)  # duplicate of the buffered original
        assert receiver.pending_updates() == 1
        # The missing first write arrives: everything must drain, the
        # duplicate must not survive as an undeliverable pending entry.
        receiver.on_message(Message(
            src=0, dst=1, kind="update", variable="x",
            payload={"value": "v1"},
            control={"sender": 0, "vc": {0: 1, 1: 0, 2: 0}, "_wid": [0, 1]}))
        assert receiver.pending_updates() == 0
        assert receiver.local_value("x") == "v2"

    def test_causal_partial_delivers_duplicated_pending_update_once(self):
        from repro.netsim.message import Message

        system = MCSystem(pair_distribution(), protocol="causal_partial")
        receiver = system.process(1)
        delivered = []
        original_deliver = receiver._deliver
        receiver._deliver = lambda message: (
            delivered.append(tuple(message.control["wid"])),
            original_deliver(message),
        )
        # Update on x depending on a write on y that p1 (holder of y) has
        # not applied yet: it buffers.
        update = Message(src=0, dst=1, kind="update", variable="x",
                         payload={"value": "vx"},
                         control={"wid": [0, 2], "deps": ((0, 1, "y"),)})
        receiver.on_message(update)
        assert receiver.pending_updates() == 1
        receiver.on_message(update)  # duplicate while the original is pending
        assert receiver.pending_updates() == 1
        receiver.on_message(Message(src=0, dst=1, kind="update", variable="y",
                                    payload={"value": "vy"},
                                    control={"wid": [0, 1], "deps": ()}))
        assert receiver.pending_updates() == 0
        assert delivered.count((0, 2)) == 1  # applied exactly once
