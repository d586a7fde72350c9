"""Partial-replication causal memory with explicit dependency propagation.

This protocol keeps a replica of a variable only at the processes of ``C(x)``
(as the partial-replication setting of Section 3 prescribes) and enforces
causal consistency with *causal barriers*: every update carries the set of
write identifiers in the writer's causal past, tagged with the variable each
write was applied to.  A receiver delays an update until it has applied every
dependency concerning a variable it replicates; dependencies about variables
it does not replicate cannot be applied locally but must still be **stored and
relayed** (merged into the receiver's own causal past) so that downstream
replicas eventually learn about them.

That relaying is exactly the phenomenon analysed by the paper: processes on an
x-hoop end up storing and forwarding control information about ``x`` even
though they never read nor write ``x``.  The ``relay_scope`` parameter makes
the phenomenon measurable and testable:

``"all"``
    (default) relay every dependency — correct, but the control information a
    process handles concerns all variables of the system;
``"relevant"``
    relay a dependency about variable ``y`` only when this process is
    y-relevant according to Theorem 1 (member of ``C(y)`` or of a y-hoop) —
    the paper's "ad-hoc optimal design" of Section 3.3, still correct;
``"own"``
    relay only dependencies about variables this process replicates — the
    hypothetical "efficient" implementation the paper proves impossible: on
    share graphs with hoops it produces causal violations, which the
    integration tests demonstrate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..core.distribution import VariableDistribution
from ..core.share_graph import ShareGraph
from ..exceptions import ProtocolConfigError, ProtocolError
from ..netsim.message import Message
from ..netsim.network import Network
from ..spec.registry import register_protocol
from .base import MCSProcess
from .recorder import HistoryRecorder, WriteId

#: relay scopes accepted by :class:`CausalPartialReplication`.
RELAY_SCOPES = ("all", "relevant", "own")


@register_protocol(
    "causal_partial",
    criterion="causal",
    replication="partial",
    options=("relay_scope",),
    fault_tolerant=True,   # causal barriers withhold updates with missing
    order_tolerant=True,   # dependencies; faults degrade to staleness
    blocking_reads=False,  # reads return the local replica immediately
    description="causal barriers with dependency relaying along hoops "
                "(Theorem 1's x-relevance made executable)",
)
class CausalPartialReplication(MCSProcess):
    """Causal memory over partial replication, with causal-barrier dependencies."""

    protocol_name = "causal_partial"

    def __init__(
        self,
        pid: int,
        distribution: VariableDistribution,
        network: Network,
        recorder: HistoryRecorder,
        relay_scope: str = "all",
    ):
        super().__init__(pid, distribution, network, recorder)
        if relay_scope not in RELAY_SCOPES:
            raise ProtocolConfigError(
                f"relay_scope must be one of {RELAY_SCOPES}, got {relay_scope!r}"
            )
        self.relay_scope = relay_scope
        #: Write identifiers applied locally (writes on replicated variables).
        self._applied: Set[WriteId] = set()
        #: Causal past to piggyback on the next writes: wid -> variable.
        self._context: Dict[WriteId, str] = {}
        #: Updates waiting for their dependencies, and their write identifiers.
        self._pending: List[Message] = []
        self._pending_wids: Set[WriteId] = set()
        #: Variables about which this process has handled control information.
        self.control_variables_seen: Set[str] = set()
        self._relevant_cache: Optional[Set[str]] = None

    # -- relay-scope policy -------------------------------------------------------
    def _relevant_variables(self) -> Set[str]:
        share = ShareGraph.of(self.distribution)
        return {
            var
            for var in self.distribution.variables
            if self.pid in share.relevant_processes(var)
        }

    def _should_relay(self, variable: str) -> bool:
        if self.relay_scope == "all":
            return True
        if self.relay_scope == "own":
            return self.holds(variable)
        if self._relevant_cache is None:
            self._relevant_cache = self._relevant_variables()
        return variable in self._relevant_cache

    # -- write propagation ----------------------------------------------------------
    def _propagate_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        deps = [
            [wid[0], wid[1], var]
            for wid, var in sorted(self._context.items())
        ]
        self._applied.add(write_id)
        self._context[write_id] = variable
        self.control_variables_seen.add(variable)
        self.send_to_all(
            self.holders(variable),
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
        if wid in self._applied or wid in self._pending_wids:
            # Duplicate copy (faulty network): the write identifier makes the
            # update idempotent — whether the original was already applied or
            # is still buffered awaiting its dependencies, the second copy
            # must not be delivered again.
            return
        if self._receive(message, self._pending):
            self._pending_wids.add(wid)

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
        self._pending_wids.discard(wid)
        # Merge the dependency information into the local causal past, subject
        # to the relay-scope policy, then add the freshly applied write.
        for writer, seq, var in message.control["deps"]:
            self.control_variables_seen.add(var)
            if self._should_relay(var):
                self._context[(writer, seq)] = var
        if self._should_relay(variable):
            self._context[wid] = variable
        self.control_variables_seen.add(variable)

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

    def relayed_variables(self) -> Set[str]:
        """Variables currently mentioned in the dependency context this process relays."""
        return set(self._context.values())
