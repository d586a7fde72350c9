"""Full-replication causal memory (vector-clock causal broadcast).

This is the classical implementation of causal memory the paper refers to in
Section 1 ([3], [4], [8], [10]): every MCS process manages a copy of **every**
shared variable, each write is broadcast to every other process, and causal
delivery is enforced with a vector clock of size ``n`` piggybacked on every
update.

The protocol is the reference point of the efficiency study: it is correct and
simple, but each process receives (and stores) information about every
variable — including variables its application process never accesses — and
every message carries ``O(n)`` control bytes, which is what motivates partial
replication in the first place (Section 3.3).
"""

from __future__ import annotations

from typing import Any, List, Set, Tuple

from ..core.distribution import VariableDistribution
from ..exceptions import ProtocolError
from ..netsim.message import Message
from ..netsim.network import Network
from ..spec.registry import register_protocol
from .base import MCSProcess
from .recorder import Recorder, WriteId
from .vector_clock import VectorClock


@register_protocol(
    "causal_full",
    criterion="causal",
    replication="full",
    fault_tolerant=True,   # vector-clock delivery withholds updates whose
    order_tolerant=True,   # dependencies are missing, whatever the channel does
    blocking_reads=False,  # reads return the local replica immediately
    description="classical vector-clock causal broadcast over complete "
                "replication (Section 1 references [3], [4], [8], [10])",
)
class CausalFullReplication(MCSProcess):
    """Causal memory with complete replication and vector-clock causal broadcast."""

    protocol_name = "causal_full"

    def __init__(
        self,
        pid: int,
        distribution: VariableDistribution,
        network: Network,
        recorder: Recorder,
    ):
        super().__init__(pid, distribution, network, recorder)
        # Complete replication: manage a copy of every variable, whatever the
        # distribution says about the application's access pattern.
        from ..core.operations import BOTTOM

        for var in distribution.variables:
            self._store.setdefault(var, (BOTTOM, None))
        self._vc = VectorClock(distribution.processes)
        #: Updates waiting for causal deliverability, and their (sender, seq) keys.
        self._pending: List[Message] = []
        self._buffered: Set[Tuple[int, int]] = set()

    # -- write propagation --------------------------------------------------------
    def _propagate_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        self._vc.increment(self.pid)
        self.send_to_all(
            self.distribution.processes,
            "update",
            variable=variable,
            payload={"value": value},
            control={
                "sender": self.pid,
                "vc": self._vc.as_dict(),
                "_wid": list(write_id),
            },
        )

    # -- delivery --------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if message.kind != "update":
            raise ProtocolError(f"unexpected message kind {message.kind!r}")
        control = message.control
        sender = control["sender"]
        pending = self._pending
        if not pending and self._vc.accept(sender, control["vc"]):
            # ``_receive`` on an empty buffer: one test (which also counted the
            # update in the clock), then nothing to drain.  An update that
            # passes it is the sender's next one, so no duplicate.
            self._apply(message.variable, message.payload["value"], tuple(control["_wid"]))
            return
        seq = control["vc"][sender]
        if seq <= self._vc[sender] or (sender, seq) in self._buffered:
            # Duplicate copy (faulty network).  Either the sender entry was
            # already advanced past this update, so it was applied before, or
            # a first copy is still buffered and will advance the clock past
            # this one.  Discard instead of letting it pin the pending buffer.
            return
        if not pending:
            pending.append(message)  # blocked: the test above failed
            self._buffered.add((sender, seq))
        elif self._receive(message, pending):
            self._buffered.add((sender, seq))

    def _deliverable(self, message: Message) -> bool:
        control = message.control
        return self._vc.admits(control["sender"], control["vc"])

    def _deliver(self, message: Message) -> None:
        control = message.control
        sender = control["sender"]
        seq = control["vc"][sender]
        self._apply(message.variable, message.payload["value"], tuple(control["_wid"]))  # type: ignore[arg-type]
        self._vc[sender] = seq
        if self._buffered:
            self._buffered.discard((sender, seq))

    # -- diagnostics ---------------------------------------------------------------------
    def pending_updates(self) -> int:
        """Number of updates waiting for causal deliverability."""
        return len(self._pending)

    @property
    def vector_clock(self) -> VectorClock:
        """The process' current vector clock (copy)."""
        return self._vc.copy()
