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
``causal_partial``, through the same :class:`~repro.mcs.causal_past.CausalPast`:
each update carries the writer's causal context as a tuple of ``(writer, seq,
variable)`` tuples, and a receiver applies it only once every dependency on a
variable it replicates has been applied.  Forwarding is
immediate (a relay does not wait for deliverability — it cannot judge
dependencies on variables it does not hold), and duplicate copies are
recognised by write id.  The context a process piggybacks is confined to the
variables it is relevant for, the paper's "ad-hoc optimal design" of
Section 3.3: on sparse share graphs the dependency lists stay proportional
to the local neighbourhood instead of the system size, which is where the
efficiency gain over full replication comes from at scale.
"""

from __future__ import annotations

from typing import Any, Tuple

from ..core.distribution import VariableDistribution
from ..core.share_graph import ShareGraph
from ..exceptions import ProtocolError
from ..netsim.message import Message
from ..netsim.network import Network
from ..spec.registry import register_protocol
from .causal_past import CausalBarrierProcess, relevant_variables
from .recorder import Recorder, WriteId


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
class CausalTreeReplication(CausalBarrierProcess):
    """Causal memory whose updates travel relevant-set spanning trees."""

    protocol_name = "causal_tree"

    def __init__(
        self,
        pid: int,
        distribution: VariableDistribution,
        network: Network,
        recorder: Recorder,
    ):
        #: Whether this process is ``x``-relevant (Theorem 1: ``C(x)`` or an x-hoop).
        self._is_relevant = relevant_variables(pid, distribution).__contains__
        super().__init__(pid, distribution, network, recorder, self._is_relevant)
        self._share_graph = ShareGraph.of(distribution)

    # -- routing ------------------------------------------------------------------
    def _tree_neighbours(self, variable: str) -> Tuple[int, ...]:
        return self._share_graph.relevance_tree(variable).get(self.pid, ())

    # -- write propagation ----------------------------------------------------------
    def _propagate_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        self._seen.add(write_id)
        self.send_to_all(
            self._tree_neighbours(variable),
            "update",
            variable=variable,
            payload={"value": value},
            control={"wid": list(write_id), "deps": self._past.write(write_id, variable)},
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
        self._past.variables_seen.add(message.variable)
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
