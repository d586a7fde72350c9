"""Tree-structured causal broadcast confined to the Theorem-1 relevant sets.

``causal_partial`` has every writer multicast its update directly to the
whole clique ``C(x)`` and relay dependency *summaries* along hoops.  This
protocol makes the paper's relaying physical: an update to ``x`` travels the
edges of a deterministic spanning tree of the x-relevant processes
(:meth:`~repro.core.share_graph.ShareGraph.relevance_tree`) — clique members
apply it, hoop members store-and-forward it.  Every message therefore flows
only between processes that share a variable (a real share-graph channel) and
only x-relevant processes ever touch information about ``x``, which is
exactly the boundary Theorem 1 proves unimprovable.

Causal order is enforced with the same causal barriers as
``causal_partial``: each update carries the writer's causal context as an
explicit dependency list, and a receiver applies it only once every
dependency on a variable it replicates has been applied.  Forwarding is
immediate (a relay does not wait for deliverability — it cannot judge
dependencies on variables it does not hold), and duplicate copies are
recognised by write id.  The context a process piggybacks is confined to the
variables it is relevant for, the paper's "ad-hoc optimal design" of
Section 3.3: on sparse share graphs the dependency lists stay proportional
to the local neighbourhood instead of the system size, which is where the
efficiency gain over full replication comes from at scale.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.distribution import VariableDistribution
from ..core.share_graph import ShareGraph
from ..exceptions import ProtocolError
from ..netsim.message import Message
from ..netsim.network import Network
from ..spec.registry import register_protocol
from .base import MCSProcess
from .recorder import HistoryRecorder, WriteId


@register_protocol(
    "causal_tree",
    criterion="causal",
    replication="partial",
    fault_tolerant=True,   # a lost tree edge starves a subtree: barriers
    order_tolerant=True,   # withhold causally-later updates, so faults and
                           # reordering degrade to staleness, never disorder
    blocking_reads=False,  # reads return the local replica immediately
    description="causal barriers routed along spanning trees of the "
                "Theorem-1 relevant sets (hoop relaying made physical)",
)
class CausalTreeReplication(MCSProcess):
    """Causal memory whose updates travel relevant-set spanning trees."""

    protocol_name = "causal_tree"

    def __init__(
        self,
        pid: int,
        distribution: VariableDistribution,
        network: Network,
        recorder: HistoryRecorder,
    ):
        super().__init__(pid, distribution, network, recorder)
        self._share_graph = ShareGraph.of(distribution)
        #: Write identifiers applied locally (writes on replicated variables).
        self._applied: Set[WriteId] = set()
        #: Causal past to piggyback on the next writes: wid -> variable.
        self._context: Dict[WriteId, str] = {}
        #: Updates on held variables waiting for their dependencies.
        self._pending: List[Message] = []
        #: Every write id seen (applied, buffered or forwarded) — dedup.
        self._seen: Set[WriteId] = set()
        #: Variables about which this process has handled control information.
        self.control_variables_seen: Set[str] = set()
        self._relevant_cache: Optional[Set[str]] = None

    # -- relevance ----------------------------------------------------------------
    def _is_relevant(self, variable: str) -> bool:
        if self._relevant_cache is None:
            self._relevant_cache = {
                var
                for var in self.distribution.variables
                if self.pid in self._share_graph.relevant_processes(var)
            }
        return variable in self._relevant_cache

    def _tree_neighbours(self, variable: str) -> Tuple[int, ...]:
        return self._share_graph.relevance_tree(variable).get(self.pid, ())

    # -- write propagation ----------------------------------------------------------
    def _propagate_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        deps = [
            [wid[0], wid[1], var]
            for wid, var in sorted(self._context.items())
        ]
        self._applied.add(write_id)
        self._seen.add(write_id)
        self._context[write_id] = variable
        self.control_variables_seen.add(variable)
        self.send_to_all(
            self._tree_neighbours(variable),
            "update",
            variable=variable,
            payload={"value": value},
            control={"wid": list(write_id), "deps": deps},
        )

    # -- delivery ----------------------------------------------------------------------
    def on_message(self, message: Message) -> None:
        if message.kind != "update":
            raise ProtocolError(f"unexpected message kind {message.kind!r}")
        wid: WriteId = tuple(message.control["wid"])  # type: ignore[assignment]
        if wid in self._seen:
            return  # duplicate copy (faulty network): forwarded/applied once only
        self._seen.add(wid)
        assert message.variable is not None
        self.control_variables_seen.add(message.variable)
        self._forward(message)
        if self.holds(message.variable):
            self._receive(message, self._pending)
        # A relay outside C(x) stores-and-forwards only: the update cannot be
        # applied here and its dependencies cannot be judged here.

    def _forward(self, message: Message) -> None:
        self.send_to_all(
            set(self._tree_neighbours(message.variable)) - {message.src},  # type: ignore[arg-type]
            "update",
            variable=message.variable,
            payload=message.payload,
            control=message.control,
        )

    def _deliverable(self, message: Message) -> bool:
        for writer, seq, var in message.control["deps"]:
            if self.holds(var) and (writer, seq) not in self._applied:
                return False
        return True

    def _deliver(self, message: Message) -> None:
        wid: WriteId = tuple(message.control["wid"])  # type: ignore[assignment]
        variable = message.variable
        assert variable is not None
        self._apply(variable, message.payload["value"], wid)
        self._applied.add(wid)
        # Merge the dependency information this process is relevant for into
        # the local causal past, then add the freshly applied write.
        for writer, seq, var in message.control["deps"]:
            self.control_variables_seen.add(var)
            if self._is_relevant(var):
                self._context[(writer, seq)] = var
        if self._is_relevant(variable):
            self._context[wid] = variable

    # -- diagnostics -------------------------------------------------------------------
    def pending_updates(self) -> int:
        """Number of updates waiting for their causal dependencies."""
        return len(self._pending)

    def context_size(self) -> int:
        """Number of write identifiers currently piggybacked on outgoing updates."""
        return len(self._context)

    def foreign_control_variables(self) -> Set[str]:
        """Variables not replicated here about which control info was handled."""
        return {v for v in self.control_variables_seen if not self.holds(v)}
