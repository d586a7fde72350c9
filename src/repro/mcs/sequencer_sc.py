"""Sequencer-based sequential consistency (strong baseline).

Sequential consistency (Lamport [11]) is the strongest criterion the paper
contrasts with causal consistency (Section 1).  The classical implementation
totally orders every write through a sequencer (equivalently, an atomic
broadcast) and lets reads return the locally applied prefix, provided a
process never reads before its own writes have been ordered and applied
locally (the "write barrier" that distinguishes SC from weaker pipelined
models).

The protocol uses complete replication and is included as the upper end of the
control-overhead spectrum in the efficiency benchmarks: every write costs a
round-trip to the sequencer plus a broadcast to all processes, and reads may
have to wait — the latency/synchronisation price the paper's Section 3.3
recalls as the motivation for causal (and weaker) memories.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.distribution import VariableDistribution
from ..core.operations import BOTTOM
from ..exceptions import ProtocolError, RetryOperation
from ..netsim.message import Message
from ..netsim.network import Network
from ..spec.registry import register_protocol
from .base import MCSProcess
from .recorder import Recorder, WriteId


@register_protocol(
    "sequencer_sc",
    criterion="sequential",
    replication="full",
    options=("sequencer",),
    blocking_reads=True,
    fault_tolerant=True,   # total-order gaps block reads (stall, not lie):
                           # liveness needs reliable channels, safety does not
    order_tolerant=False,  # ordered-update delivery buffers by seq, but two
                           # order-requests from one process can reach the
                           # sequencer reordered, inverting program order in
                           # the assigned total order (hunt reproducer)
    description="sequencer-ordered writes with a read barrier (Lamport's "
                "sequential consistency, the strong baseline)",
)
class SequencerSC(MCSProcess):
    """Sequentially consistent memory via a write sequencer and local reads."""

    protocol_name = "sequencer_sc"

    def __init__(
        self,
        pid: int,
        distribution: VariableDistribution,
        network: Network,
        recorder: Recorder,
        sequencer: Optional[int] = None,
    ):
        super().__init__(pid, distribution, network, recorder)
        # Complete replication: SC makes little sense otherwise and this is
        # the classical-baseline role of the protocol.
        for var in distribution.variables:
            self._store.setdefault(var, (BOTTOM, None))
        self.sequencer = min(distribution.processes) if sequencer is None else sequencer
        #: Sequencer state: next global sequence number to assign.
        self._next_global_seq = 0
        #: Receiver state: next global sequence number to apply.
        self._next_to_apply = 0
        #: Out-of-order ordered-updates buffer: seq -> message fields.
        self._ordered_pending: Dict[int, Tuple[str, Any, WriteId]] = {}
        #: Number of own writes not yet applied locally (read barrier).
        self._own_pending = 0

    # -- write path -----------------------------------------------------------------
    def _before_local_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        # Unlike the wait-free protocols, the write is *not* applied locally at
        # invocation time: it only takes effect once totally ordered.
        self._own_pending += 1

    def _propagate_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        if self.pid == self.sequencer:
            self._sequence(variable, value, write_id)
        else:
            self.send(
                self.sequencer,
                "order-request",
                variable=variable,
                payload={"value": value},
                control={"origin": self.pid, "_wid": list(write_id)},
            )

    def _sequence(self, variable: str, value: Any, write_id: WriteId) -> None:
        """Sequencer role: assign the next global sequence number and broadcast."""
        seq = self._next_global_seq
        self._next_global_seq += 1
        self.send_to_all(
            self.distribution.processes,
            "ordered-update",
            variable=variable,
            payload={"value": value},
            control={"seq": seq, "_wid": list(write_id)},
        )
        self._enqueue_ordered(seq, variable, value, write_id)

    # -- read path --------------------------------------------------------------------
    def _before_read(self, variable: str) -> None:
        if self._own_pending > 0:
            raise RetryOperation(
                f"process {self.pid} has {self._own_pending} writes awaiting total order"
            )

    # -- delivery ------------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if message.kind == "order-request":
            if self.pid != self.sequencer:
                raise ProtocolError("order-request delivered to a non-sequencer process")
            wid: WriteId = tuple(message.control["_wid"])  # type: ignore[assignment]
            self._sequence(message.variable, message.payload["value"], wid)  # type: ignore[arg-type]
            return
        if message.kind == "ordered-update":
            wid = tuple(message.control["_wid"])  # type: ignore[assignment]
            self._enqueue_ordered(
                message.control["seq"], message.variable, message.payload["value"], wid  # type: ignore[arg-type]
            )
            return
        raise ProtocolError(f"unexpected message kind {message.kind!r}")

    def _enqueue_ordered(self, seq: int, variable: str, value: Any, write_id: WriteId) -> None:
        self._ordered_pending[seq] = (variable, value, write_id)
        while self._next_to_apply in self._ordered_pending:
            var, val, wid = self._ordered_pending.pop(self._next_to_apply)
            self._apply(var, val, wid)
            if wid[0] == self.pid:
                self._own_pending -= 1
            self._next_to_apply += 1

    # -- diagnostics ----------------------------------------------------------------------
    def pending_ordered_updates(self) -> int:
        """Number of ordered updates buffered out of order."""
        return len(self._ordered_pending)

    def own_pending_writes(self) -> int:
        """Number of this process' writes not yet totally ordered and applied."""
        return self._own_pending
