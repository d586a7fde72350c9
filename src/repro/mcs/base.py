"""Base class of the Memory Consistency System (MCS) processes.

Following the paper's architecture (Section 1), each node of the system hosts
an application process and an MCS process; the application invokes ``read``
and ``write`` through its local MCS process, which is in charge of the actual
execution of the operation (replica access, update propagation, control
information management).

:class:`MCSProcess` factors the machinery every protocol shares: replica
storage with write-identifier tagging, operation recording, message sending
helpers, the local-store access used by wait-free reads, and the buffered
delivery of :meth:`MCSProcess._receive`.  Each concrete protocol implements
:meth:`MCSProcess._propagate_write` (what to send on a write) and
:meth:`MCSProcess.on_message` (how to treat received messages).
"""

from __future__ import annotations

import abc
import weakref
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.distribution import VariableDistribution
from ..core.operations import BOTTOM
from ..exceptions import ProtocolError, ReplicaMissingError
from ..netsim.message import Message
from ..netsim.network import Network
from .recorder import HistoryRecorder, WriteId


class MCSProcess(abc.ABC):
    """One protocol instance, attached to one application process."""

    #: Short protocol name (set by subclasses, used in reports).
    protocol_name: str = "abstract"

    def __init__(
        self,
        pid: int,
        distribution: VariableDistribution,
        network: Network,
        recorder: HistoryRecorder,
    ):
        self.pid = pid
        self.distribution = distribution
        self.network = network
        self.recorder = recorder
        recorder.declare_process(pid)
        # The system owns its processes: the network reaches each one through
        # a weak proxy, so no process <-> network cycle outlives a run.
        network.register(pid, weakref.proxy(self))
        #: Local replicas: variable -> (value, write-id of the writer, or None).
        self._store: Dict[str, Tuple[Any, Optional[WriteId]]] = {
            var: (BOTTOM, None) for var in self.replicated_variables
        }
        #: Number of writes issued locally (per-writer sequence numbers).
        self._write_seq = 0

    # -- structural helpers -------------------------------------------------------
    @property
    def replicated_variables(self) -> frozenset:
        """The variables this process replicates (``X_i``)."""
        return self.distribution.variables_of(self.pid)

    def holds(self, variable: str) -> bool:
        """``True`` iff this process replicates ``variable``."""
        return variable in self._store

    def holders(self, variable: str) -> frozenset:
        """Processes replicating ``variable`` (``C(variable)``)."""
        return self.distribution.holders(variable)

    def _require_replica(self, variable: str) -> None:
        if variable not in self._store:
            raise ReplicaMissingError(
                f"process {self.pid} ({self.protocol_name}) does not replicate {variable!r}"
            )

    def _next_write_id(self) -> WriteId:
        self._write_seq += 1
        return (self.pid, self._write_seq)

    @property
    def now(self) -> float:
        """Current virtual time of the simulation."""
        return self.network.simulator.now

    # -- local store ----------------------------------------------------------------
    def _apply(self, variable: str, value: Any, write_id: Optional[WriteId]) -> None:
        """Install ``value`` as the current local value of ``variable``."""
        store = self._store
        if variable not in store:
            self._require_replica(variable)
        store[variable] = (value, write_id)

    def local_value(self, variable: str) -> Any:
        """Current local value of a replicated variable (no recording)."""
        self._require_replica(variable)
        return self._store[variable][0]

    def local_source(self, variable: str) -> Optional[WriteId]:
        """Write identifier of the write currently visible locally."""
        self._require_replica(variable)
        return self._store[variable][1]

    # -- application-facing API --------------------------------------------------------
    def write(self, variable: str, value: Any) -> None:
        """Execute ``w_i(variable)value``: apply locally, record, propagate."""
        self._require_replica(variable)
        write_id = self._next_write_id()
        now = self.now
        self._before_local_write(variable, value, write_id)
        self.recorder.record_write(
            self.pid, variable, value, write_id, invoked_at=now, completed_at=now
        )
        self._propagate_write(variable, value, write_id)

    def read(self, variable: str) -> Any:
        """Execute ``r_i(variable)``: return (and record) the local value."""
        self._require_replica(variable)
        self._before_read(variable)
        value, source = self._store[variable]
        now = self.now
        self.recorder.record_read(
            self.pid, variable, value, source, invoked_at=now, completed_at=now
        )
        return value

    # -- protocol hooks ------------------------------------------------------------------
    def _before_local_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        """Hook run before recording a local write; default: apply it locally."""
        self._apply(variable, value, write_id)

    def _before_read(self, variable: str) -> None:
        """Hook run before a read returns the local value (may raise RetryOperation)."""

    @abc.abstractmethod
    def _propagate_write(self, variable: str, value: Any, write_id: WriteId) -> None:
        """Send whatever messages the protocol requires for this write."""

    @abc.abstractmethod
    def on_message(self, message: Message) -> None:
        """Handle a message delivered by the network."""

    # -- messaging helpers -----------------------------------------------------------------
    def send(
        self,
        dst: int,
        kind: str,
        variable: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
        control: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Send a message to ``dst`` through the network."""
        if dst == self.pid:
            raise ProtocolError("a protocol process never messages itself")
        self.network.send(
            Message(
                src=self.pid,
                dst=dst,
                kind=kind,
                variable=variable,
                payload=payload or {},
                control=control or {},
            )
        )

    def send_to_all(
        self,
        destinations: Iterable[int],
        kind: str,
        variable: Optional[str] = None,
        payload: Optional[Dict[str, Any]] = None,
        control: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Send the same logical message (built and sized once; ``payload`` and
        ``control`` are shared, read-only from here on) to all but self."""
        targets = set(destinations) - {self.pid}
        if not targets:
            return 0
        return self.network.multicast(
            Message(
                src=self.pid,
                dst=min(targets),
                kind=kind,
                variable=variable,
                payload=payload or {},
                control=control or {},
            ),
            targets,
        )

    # -- buffered delivery -------------------------------------------------------------------
    def _deliverable(self, message: Message) -> bool:
        """Hook of :meth:`_receive`: may ``message`` be applied now?"""
        raise NotImplementedError

    def _deliver(self, message: Message) -> None:
        """Hook of :meth:`_receive`: apply ``message`` locally."""
        raise NotImplementedError

    def _receive(self, message: Message, pending: List[Message]) -> bool:
        """Deliver an arrival now, or buffer it in ``pending``; ``True`` iff buffered.

        The arrival is tested once.  If it is blocked it is appended and
        nothing else runs; if not, it is delivered, and the pass loop of
        :meth:`_drain_pending` runs only when something is buffered.  The
        delivery order is the one of appending the arrival and running that
        loop, because of this invariant: *no buffered message is
        deliverable between two arrivals.*

        - It holds after every drain, which ends only on a pass that
          delivers nothing.
        - Deliverability is a function of the local state.  Between two
          arrivals only a delivery or an own write changes that state.
          A delivery happens only inside this method.
        - An own write adds an identifier, or advances this process' own
          clock entry, that no earlier-created message can depend on.
          Every buffered message was created before it.

        So the first pass of the old append-then-drain loop delivers nothing
        before it reaches the arrival, which is what the single test checks.
        If the arrival is blocked, that pass ends without progress.  If it
        is deliverable, the next pass is :meth:`_drain_pending` over the
        same buffer.  A protocol using this method must keep the invariant.
        Its hooks may read and change only state that deliveries and own
        writes change.
        """
        if not self._deliverable(message):
            pending.append(message)
            return True
        self._deliver(message)
        if pending:
            self._drain_pending(pending)
        return False

    def _drain_pending(self, pending: List[Message]) -> None:
        """Deliver what ``pending`` allows, until a pass makes no progress
        (one delivery can unblock messages buffered before it)."""
        progress = True
        while progress:
            progress = False
            for message in list(pending):
                if self._deliverable(message):
                    pending.remove(message)
                    self._deliver(message)
                    progress = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} p{self.pid}>"
