"""Best-effort partial replication: apply updates the instant they arrive.

This protocol is the zero-control-information end of the design space the
paper spans: a write is applied locally and an update carrying *only* the
value is sent to the other replicas; a receiver applies whatever arrives, the
moment it arrives.  No sequence numbers, no vector clocks, no causal
barriers.

On the reliable FIFO channels the paper assumes ([5]) this is exactly as good
as the Section 5 PRAM protocol — per-channel FIFO delivery already hands each
receiver every sender's writes in program order — so the protocol legitimately
claims PRAM consistency there, with strictly less control information.

Its role in the repository is to make the *assumptions* of that claim
executable: the guarantee leans entirely on the network.  Under a faulty
:class:`~repro.netsim.models.NetworkModel` the claim collapses in ways the
incremental checkers prove —

* a **duplicated** update re-applies an old write after newer ones, the
  replica regresses, and a reader observes a writer's values go backwards
  (a slow-memory violation, caught by the O(1) stream monitors);
* a **partition** can drop an update whose value meanwhile travels through
  other variables' updates (the Figure 2 hoop pattern), so a reader observes
  a causally newer value and then reads ``⊥`` or a stale value on the
  partitioned variable — the causal bad pattern the prefix checker rejects.

The ``faults`` experiment suite scripts both scenarios; the hardened
protocols (sequence numbers, causal barriers) survive them by stalling
instead, which is the efficiency/robustness trade-off the suite measures.
"""

from __future__ import annotations

from typing import Any

from ..exceptions import ProtocolError
from ..netsim.message import Message
from ..spec.registry import register_protocol
from .base import MCSProcess
from .recorder import WriteId


@register_protocol(
    "best_effort",
    criterion="pram",
    replication="partial",
    fault_tolerant=False,
    order_tolerant=False,  # apply-on-arrival: a reordered channel regresses replicas
    blocking_reads=False,  # reads return the local replica immediately
    description="apply-on-arrival updates with zero control information; "
                "PRAM only on reliable FIFO channels (the faults suite "
                "shows proven violations beyond them)",
)
class BestEffortReplication(MCSProcess):
    """Partial replication with apply-on-arrival updates and no control info."""

    protocol_name = "best_effort"

    # -- write propagation ------------------------------------------------------
    def _propagate_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        self.send_to_all(
            self.holders(variable),
            "update",
            variable=variable,
            payload={"value": value},
            # The write identifier is simulation bookkeeping (underscore
            # key: excluded from the control-byte accounting); the
            # protocol itself ships no control information at all.
            control={"_wid": list(write_id)},
        )

    # -- delivery ------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if message.kind != "update":
            raise ProtocolError(f"unexpected message kind {message.kind!r}")
        wid = tuple(message.control["_wid"])
        self._apply(message.variable, message.payload["value"], wid)  # type: ignore[arg-type]
