"""Wiring of a complete Memory Consistency System.

:class:`MCSystem` assembles, for a given variable distribution and protocol
name, the simulator, the network, one MCS process per application process and
a shared history recorder.  It is the entry point used by the DSM runtime, the
examples and the benchmarks:

>>> from repro.core import VariableDistribution
>>> from repro.mcs import MCSystem
>>> dist = VariableDistribution({0: {"x"}, 1: {"x", "y"}, 2: {"y"}})
>>> system = MCSystem(dist, protocol="pram_partial")
>>> system.process(0).write("x", 1)
>>> system.settle()                      # let every message be delivered
>>> system.process(1).read("x")
1

Protocols are resolved through the plugin registry
(:data:`repro.spec.registry.PROTOCOL_REGISTRY`): the built-in protocols
register themselves with :func:`repro.spec.register_protocol` in their own
modules (imported below), and third-party protocols registered the same way
are constructible here — and from :class:`repro.api.Session`, the experiment
runner and the CLI — without touching this file.  :data:`PROTOCOLS` and
:data:`PROTOCOL_CRITERION` remain importable as live read-only views over the
registry.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from ..core.distribution import VariableDistribution
from ..core.history import History
from ..netsim.latency import LatencyModel
from ..netsim.models import NetworkModel
from ..netsim.network import Network
from ..netsim.simulator import Simulator
from ..spec.registry import PROTOCOL_REGISTRY, RegistryView, resolve_protocol

# Importing the protocol modules runs their @register_protocol decorators.
from . import best_effort as _best_effort  # noqa: F401
from . import causal_full as _causal_full  # noqa: F401
from . import causal_partial as _causal_partial  # noqa: F401
from . import causal_tree as _causal_tree  # noqa: F401
from . import pram_partial as _pram_partial  # noqa: F401
from . import sequencer_sc as _sequencer_sc  # noqa: F401
from . import sequencer_shard as _sequencer_shard  # noqa: F401
from .base import MCSProcess
from .metrics import EfficiencyReport, efficiency_report
from .recorder import HistoryRecorder

#: Live view of the protocol registry: name -> constructor.  Kept for
#: backwards compatibility with the historical hardcoded table; third-party
#: protocols registered via :func:`repro.spec.register_protocol` appear here
#: automatically.
PROTOCOLS: Mapping[str, type] = RegistryView(
    PROTOCOL_REGISTRY, lambda component: component.factory
)

#: Live view: protocol name -> the consistency criterion it claims to enforce
#: (used by tests and by the experiment harness to pick the right checker).
PROTOCOL_CRITERION: Mapping[str, str] = RegistryView(
    PROTOCOL_REGISTRY, lambda component: component.metadata["criterion"]
)


class MCSystem:
    """A simulator + network + one MCS process per application process."""

    def __init__(
        self,
        distribution: VariableDistribution,
        protocol: str = "pram_partial",
        latency: Optional[LatencyModel] = None,
        fifo: bool = True,
        record_trace: bool = False,
        protocol_options: Optional[Dict[str, Any]] = None,
        recorder: Optional[HistoryRecorder] = None,
        network_model: Optional[NetworkModel] = None,
    ):
        component = resolve_protocol(protocol)  # typed UnknownProtocolError
        self.distribution = distribution
        self.protocol_name = component.name
        self._criterion = component.metadata["criterion"]
        self.simulator = Simulator()
        self.network = Network(
            self.simulator,
            latency=latency,
            fifo=fifo,
            record_trace=record_trace,
            model=network_model,
        )
        self.recorder = recorder if recorder is not None else HistoryRecorder()
        options = dict(protocol_options or {})
        component.validate_params(options)  # typed ComponentParamError
        ctor = component.factory
        self._processes: Dict[int, MCSProcess] = {
            pid: ctor(pid, distribution, self.network, self.recorder, **options)
            for pid in distribution.processes
        }

    # -- access -----------------------------------------------------------------------
    def process(self, pid: int) -> MCSProcess:
        """The MCS process attached to application process ``pid``."""
        return self._processes[pid]

    @property
    def processes(self) -> Dict[int, MCSProcess]:
        """All MCS processes, keyed by process identifier."""
        return dict(self._processes)

    # -- execution ---------------------------------------------------------------------
    def settle(self, max_events: Optional[int] = None) -> int:
        """Run the simulator until no message is in flight; returns events processed."""
        return self.simulator.run(max_events=max_events)

    # -- results ------------------------------------------------------------------------
    def history(self) -> History:
        """The history recorded so far."""
        return self.recorder.history()

    def read_from(self):
        """The exact read-from mapping recorded so far."""
        return self.recorder.read_from()

    @property
    def stats(self):
        """Network statistics of the run."""
        return self.network.stats

    def efficiency(self) -> EfficiencyReport:
        """The control-information efficiency report of the run."""
        return efficiency_report(self.protocol_name, self.network.stats, self.distribution)

    @property
    def expected_criterion(self) -> str:
        """The consistency criterion the chosen protocol is meant to enforce."""
        return self._criterion

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MCSystem protocol={self.protocol_name!r} "
            f"processes={len(self._processes)} variables={len(self.distribution.variables)}>"
        )
