"""Partial-replication causal memory with explicit dependency propagation.

This protocol keeps a replica of a variable only at the processes of ``C(x)``
(as the partial-replication setting of Section 3 prescribes) and enforces
causal consistency with *causal barriers*: every update carries the writer's
causal past as a tuple of ``(writer, seq, variable)`` tuples — each write
identifier tagged with the variable it wrote — kept incrementally by
:class:`~repro.mcs.causal_past.CausalPast`.  A receiver delays an update
until it has applied every dependency concerning a variable it replicates;
dependencies about variables it does not replicate cannot be applied locally
but must still be **stored and relayed** (merged into the receiver's own
causal past) so that downstream replicas eventually learn about them.

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

from typing import Any, Callable

from ..core.distribution import VariableDistribution
from ..exceptions import ProtocolConfigError, ProtocolError
from ..netsim.message import Message
from ..netsim.network import Network
from ..spec.registry import register_protocol
from .causal_past import CausalBarrierProcess, relevant_variables
from .recorder import HistoryRecorder, WriteId

#: relay scopes accepted by :class:`CausalPartialReplication`.
RELAY_SCOPES = ("all", "relevant", "own")


def _relay_all(variable: str) -> bool:
    return True


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
class CausalPartialReplication(CausalBarrierProcess):
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
        if relay_scope not in RELAY_SCOPES:
            raise ProtocolConfigError(
                f"relay_scope must be one of {RELAY_SCOPES}, got {relay_scope!r}"
            )
        #: The relay-scope policy: may a dependency on this variable be relayed?
        self._should_relay: Callable[[str], bool] = (
            _relay_all if relay_scope == "all"
            else distribution.variables_of(pid).__contains__ if relay_scope == "own"
            else relevant_variables(pid, distribution).__contains__
        )
        super().__init__(pid, distribution, network, recorder, self._should_relay)
        self.relay_scope = relay_scope

    # -- write propagation ----------------------------------------------------------
    def _propagate_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        self.send_to_all(
            self.holders(variable),
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
            # Duplicate copy (faulty network): the write identifier makes the
            # update idempotent — whether the original was already applied or
            # is still buffered awaiting its dependencies, the second copy
            # must not be delivered again.
            return
        self._seen.add(wid)
        self._receive(message, self._pending)
