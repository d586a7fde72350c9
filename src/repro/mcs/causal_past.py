"""The causal past that the causal-barrier protocols piggyback on updates.

``causal_partial`` and ``causal_tree`` ship every update with the writer's
causal past as ``(writer, seq, variable)`` entries (Section 3.3's control
information), and a receiver applies an update only once every entry on a
variable it replicates has been applied.  :class:`CausalPast` keeps that past
incrementally: the entries live in a set and in a list that is re-sorted only
after an out-of-order entry arrived, a write ships a :class:`SizedTuple`
snapshot of the list that carries its byte size as a running sum, and an
arrival is tested by membership, walking only the entries not yet known.
:class:`CausalBarrierProcess` is the delivery both protocols share on top of it.

The fast path of :meth:`CausalPast.admits` rests on one invariant: *every
known entry on a held variable has been applied.*  An entry becomes known in
only three ways, and none breaks it:

- an own write, applied locally before its entry is added;
- an entry of a delivered update, which :meth:`admits` let through only once
  every entry of it on a held variable had been applied;
- a delivered update's own write, applied as it is merged.

Applied writes are never forgotten, so known entries (in ``deps`` or not)
need no test, and ``admits`` gives the answer of testing every entry.  The
invariant also keeps the list free of repeats: an update is delivered once,
so its own write, on a held variable and not applied before, was not known.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Callable, FrozenSet, List, Sequence, Set, Tuple

from ..core.distribution import VariableDistribution
from ..core.share_graph import ShareGraph
from ..netsim.message import Message, SizedTuple
from ..netsim.network import Network
from .base import MCSProcess
from .recorder import HistoryRecorder, WriteId

#: One dependency: the write ``(writer, seq)`` and the variable it wrote.
Entry = Tuple[int, int, str]


class CausalPast:
    """Known dependencies, applied writes and the variables seen in control."""

    def __init__(self, held: FrozenSet[str], relays: Callable[[str], bool]):
        self._held = held
        self._relays = relays  # may an entry on this variable be relayed?
        #: Write identifiers applied locally (writes on replicated variables).
        self._applied: Set[WriteId] = set()
        #: Variables about which this process has handled control information.
        self.variables_seen: Set[str] = set()
        #: The known entries, as a set and as a list (sorted when ``_sorted``).
        self._known: Set[Entry] = set()
        self.entries: List[Entry] = []
        self._size = 0
        self._sorted = True

    def _add(self, entry: Entry) -> None:
        if self.entries and entry < self.entries[-1]:
            self._sorted = False
        self.entries.append(entry)
        self._known.add(entry)
        self._size += 16 + len(entry[2].encode("utf-8"))  # estimate_size(entry)

    def write(self, wid: WriteId, variable: str) -> SizedTuple:
        """The dependencies of own write ``wid``, which then joins the past."""
        if not self._sorted:
            self.entries.sort()
            self._sorted = True
        deps = SizedTuple(self.entries)
        deps.size = self._size
        self._applied.add(wid)
        self.variables_seen.add(variable)
        self._add((wid[0], wid[1], variable))
        return deps

    def admits(self, deps: Sequence[Entry]) -> bool:
        """Whether every entry of ``deps`` on a held variable has been applied."""
        if self._known.issuperset(deps):
            return True
        held, applied = self._held, self._applied
        return all(var not in held or (writer, seq) in applied
                   for writer, seq, var in filterfalse(self._known.__contains__, deps))

    def merge(self, deps: Sequence[Entry], wid: WriteId, variable: str) -> None:
        """Deliver update ``wid`` on ``variable``: learn its dependencies, then it."""
        self._applied.add(wid)
        for entry in filterfalse(self._known.__contains__, deps):
            self.variables_seen.add(entry[2])
            if self._relays(entry[2]):
                self._add(entry)
        if self._relays(variable):
            self._add((wid[0], wid[1], variable))
        self.variables_seen.add(variable)


def relevant_variables(pid: int, distribution: VariableDistribution) -> FrozenSet[str]:
    """The variables ``pid`` is relevant to (Theorem 1: in ``C(x)`` or an x-hoop)."""
    share = ShareGraph.of(distribution)
    return frozenset(var for var in distribution.variables
                     if pid in share.relevant_processes(var))


class CausalBarrierProcess(MCSProcess):
    """A process whose updates carry ``{"wid": ..., "deps": CausalPast.write(...)}``.

    Subclasses route the updates; an arrival on a held variable, seen for the
    first time, goes to ``self._receive(message, self._pending)``.  The
    ``relays`` predicate the :class:`CausalPast` keeps must not refer to the
    process (no bound method), or process and past form a cycle that only
    the cyclic collector frees.
    """

    def __init__(self, pid: int, distribution: VariableDistribution, network: Network,
                 recorder: HistoryRecorder, relays: Callable[[str], bool]):
        super().__init__(pid, distribution, network, recorder)
        #: Causal past to piggyback on the next writes, and the writes applied.
        self._past = CausalPast(self.replicated_variables, relays)
        #: Updates on held variables waiting for their dependencies.
        self._pending: List[Message] = []
        #: Every write id received (applied, buffered or forwarded) — dedup.
        self._seen: Set[WriteId] = set()

    def _deliverable(self, message: Message) -> bool:
        return self._past.admits(message.control["deps"])

    def _deliver(self, message: Message) -> None:
        wid: WriteId = tuple(message.control["wid"])  # type: ignore[assignment]
        variable = message.variable
        assert variable is not None
        self._apply(variable, message.payload["value"], wid)
        self._past.merge(message.control["deps"], wid, variable)

    def pending_updates(self) -> int:
        """Number of updates waiting for their causal dependencies."""
        return len(self._pending)

    def context_size(self) -> int:
        """Number of write identifiers currently piggybacked on outgoing updates."""
        return len(self._past.entries)

    def foreign_control_variables(self) -> Set[str]:
        """Variables not replicated here about which control info was handled."""
        return self._past.variables_seen - self.replicated_variables

    def relayed_variables(self) -> Set[str]:
        """Variables currently mentioned in the dependency context this process relays."""
        return {entry[2] for entry in self._past.entries}
