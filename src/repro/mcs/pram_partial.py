"""Efficient partial-replication PRAM protocol (paper, Section 5, Theorem 2).

The paper's positive result: because the PRAM relation has no transitivity
through intermediary processes, an update on ``x`` only ever concerns the
processes of ``C(x)``.  The protocol below is the natural witness of that
claim:

* a write ``w_i(x)v`` is applied locally (wait-free) and an ``update`` message
  is sent **only to the other replicas of x**;
* the only control information carried is the pair *(sender, per-destination
  sequence number)* — constant size, independent of the number of processes
  and of the number of variables;
* each receiver applies the updates of a given sender in the sender's sending
  order (which is the sender's program order restricted to the variables the
  receiver holds), buffering out-of-order arrivals when channels are not FIFO;
* reads return the local replica, wait-free.

Every history this protocol can produce is PRAM consistent (checked by the
integration and property tests), and no process ever receives a message about
a variable it does not replicate — the "efficient partial replication" the
paper defines in Section 3.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from ..core.distribution import VariableDistribution
from ..exceptions import ProtocolError
from ..netsim.message import Message
from ..netsim.network import Network
from ..spec.registry import register_protocol
from .base import MCSProcess
from .recorder import Recorder, WriteId


@register_protocol(
    "pram_partial",
    criterion="pram",
    replication="partial",
    fault_tolerant=True,   # per-sender sequence gating: loss/duplication/
    order_tolerant=True,   # partition/crash and reordering stall, never lie
    blocking_reads=False,  # reads return the local replica immediately
    description="per-sender FIFO update propagation confined to C(x) "
                "(Section 5, Theorem 2)",
)
class PRAMPartialReplication(MCSProcess):
    """Partial-replication PRAM memory (per-sender FIFO update propagation)."""

    protocol_name = "pram_partial"

    def __init__(
        self,
        pid: int,
        distribution: VariableDistribution,
        network: Network,
        recorder: Recorder,
    ):
        super().__init__(pid, distribution, network, recorder)
        #: Next sequence number for updates sent to each destination.
        self._next_seq_to: Dict[int, int] = {}
        #: Next sequence number expected from each sender.
        self._expected_from: Dict[int, int] = {}
        #: Out-of-order buffer: sender -> seq -> message.
        self._pending: Dict[int, Dict[int, Message]] = {}
        #: Duplicate copies discarded thanks to the sequence numbers.
        self._duplicates_ignored = 0

    # -- write propagation ------------------------------------------------------
    def _propagate_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        for dst in sorted(self.holders(variable)):
            if dst == self.pid:
                continue
            seq = self._next_seq_to.get(dst, 0)
            self._next_seq_to[dst] = seq + 1
            self.send(
                dst,
                "update",
                variable=variable,
                payload={"value": value},
                control={"sender": self.pid, "seq": seq, "_wid": list(write_id)},
            )

    # -- delivery ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if message.kind != "update":
            raise ProtocolError(f"unexpected message kind {message.kind!r}")
        sender = message.control["sender"]
        seq = message.control["seq"]
        expected = self._expected_from.get(sender, 0)
        if seq == expected:
            self._deliver(message)
            self._expected_from[sender] = expected + 1
            self._drain(sender)
        elif seq > expected:
            self._pending.setdefault(sender, {})[seq] = message
        else:
            # seq < expected: a duplicate copy (possible under a faulty
            # network model).  The per-sender sequence numbers make the
            # protocol idempotent: the update was already applied, drop it.
            self._duplicates_ignored += 1

    def _drain(self, sender: int) -> None:
        pending = self._pending.get(sender, {})
        while self._expected_from.get(sender, 0) in pending:
            seq = self._expected_from[sender]
            self._deliver(pending.pop(seq))
            self._expected_from[sender] = seq + 1

    def _deliver(self, message: Message) -> None:
        wid = tuple(message.control["_wid"])
        self._apply(message.variable, message.payload["value"], wid)  # type: ignore[arg-type]

    # -- diagnostics -----------------------------------------------------------------
    def pending_updates(self) -> int:
        """Number of buffered out-of-order updates (0 on FIFO networks)."""
        return sum(len(v) for v in self._pending.values())

    def duplicates_ignored(self) -> int:
        """Duplicate update copies discarded (only nonzero on faulty networks)."""
        return self._duplicates_ignored
