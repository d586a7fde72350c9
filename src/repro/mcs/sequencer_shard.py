"""Sharded sequencer protocol: per-variable-group total order, partial replicas.

:class:`~repro.core.share_graph.ShareGraph.variable_groups` partitions the
distribution into independent shards — one per share-graph component, with
disjoint variable *and* process sets.  Since no process ever accesses two
shards, a serialization of each shard interleaves freely with the others:
totally ordering the writes *inside* each group is enough for sequential
consistency of the whole memory, at a fraction of the classical protocol's
cost.

Each group elects its smallest process as sequencer.  A writer sends the
sequencer an order request; the sequencer assigns the group's next position
and multicasts the ordered update **only to the holders of the written
variable**, stamped with a per-destination sequence number (the projection of
the group order onto that destination's subscription).  Receivers apply
strictly in stamp order, so a lost update stalls the suffix instead of
letting a stale read contradict the total order — faults degrade to blocking,
never to lying, exactly like the full-replication sequencer.

Control information per message is a single sequence number plus the variable
name: writes about ``x`` circulate only within ``C(x)`` plus the group
sequencer, the sharded counterpart of the paper's Section 3.3 efficiency
argument.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Set, Tuple

from ..core.distribution import VariableDistribution
from ..core.share_graph import ShareGraph
from ..exceptions import ProtocolError, RetryOperation
from ..netsim.message import Message
from ..netsim.network import Network
from ..spec.registry import register_protocol
from .base import MCSProcess
from .recorder import HistoryRecorder, WriteId


@register_protocol(
    "sequencer_shard",
    criterion="sequential",
    replication="partial",
    blocking_reads=True,
    fault_tolerant=True,   # per-destination stamps make gaps block the
                           # suffix: faults stall reads, they never reorder
                           # the applied prefix
    order_tolerant=False,  # two order-requests from one writer can reach the
                           # group sequencer reordered, inverting program
                           # order in the assigned total order (same exposure
                           # as sequencer_sc)
    description="per-shard sequencers over share-graph components: total "
                "order per variable group, updates multicast to holders only",
)
class SequencerShard(MCSProcess):
    """Sequential consistency via one sequencer per share-graph component."""

    protocol_name = "sequencer_shard"

    def __init__(
        self,
        pid: int,
        distribution: VariableDistribution,
        network: Network,
        recorder: HistoryRecorder,
    ):
        super().__init__(pid, distribution, network, recorder)
        self.group_variables: FrozenSet[str] = frozenset()
        self.group_members: Tuple[int, ...] = ()
        self.sequencer: Optional[int] = None
        for vars_, members in ShareGraph.of(distribution).variable_groups():
            if pid in members:
                self.group_variables = vars_
                self.group_members = tuple(sorted(members))
                self.sequencer = min(members)
                break
        #: Sequencer state: next per-destination stamp to assign.
        self._next_seq_to: Dict[int, int] = {}
        #: Sequencer state: write ids already ordered (duplicate requests).
        self._sequenced: Set[WriteId] = set()
        #: Receiver state: next stamp to apply, and the out-of-order buffer.
        self._next_to_apply = 0
        self._ordered_pending: Dict[int, Tuple[str, Any, WriteId]] = {}
        #: Number of own writes not yet ordered and applied (read barrier).
        self._own_pending = 0

    # -- write path -----------------------------------------------------------------
    def _before_local_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        # The write takes effect only once its group position is assigned.
        self._own_pending += 1

    def _propagate_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        if self.pid == self.sequencer:
            self._sequence(variable, value, write_id)
        else:
            assert self.sequencer is not None  # writers hold variables, so they shard
            self.send(
                self.sequencer,
                "order-request",
                variable=variable,
                payload={"value": value},
                control={"origin": self.pid, "_wid": list(write_id)},
            )

    def _sequence(self, variable: str, value: Any, write_id: WriteId) -> None:
        """Sequencer role: stamp the write for each holder and multicast."""
        if write_id in self._sequenced:
            return  # duplicated order-request (faulty network): already ordered
        self._sequenced.add(write_id)
        for dst in sorted(self.holders(variable)):
            if dst == self.pid:
                continue
            seq = self._next_seq_to.get(dst, 0)
            self._next_seq_to[dst] = seq + 1
            self.send(
                dst,
                "ordered-update",
                variable=variable,
                payload={"value": value},
                control={"seq": seq, "_wid": list(write_id)},
            )
        if self.holds(variable):
            # The sequencer is the order point: it applies at stamping time.
            self._apply_ordered(variable, value, write_id)

    # -- read path --------------------------------------------------------------------
    def _before_read(self, variable: str) -> None:
        if self._own_pending > 0:
            raise RetryOperation(
                f"process {self.pid} has {self._own_pending} writes awaiting "
                f"their group order"
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
        if seq < self._next_to_apply:
            return  # duplicate of an already-applied stamp
        self._ordered_pending[seq] = (variable, value, write_id)
        while self._next_to_apply in self._ordered_pending:
            var, val, wid = self._ordered_pending.pop(self._next_to_apply)
            self._apply_ordered(var, val, wid)
            self._next_to_apply += 1

    def _apply_ordered(self, variable: str, value: Any, write_id: WriteId) -> None:
        self._apply(variable, value, write_id)
        if write_id[0] == self.pid:
            self._own_pending -= 1

    # -- diagnostics ----------------------------------------------------------------------
    def pending_ordered_updates(self) -> int:
        """Number of ordered updates buffered out of stamp order."""
        return len(self._ordered_pending)

    def own_pending_writes(self) -> int:
        """Number of this process' writes not yet ordered and applied."""
        return self._own_pending
