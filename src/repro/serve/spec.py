"""Typed, JSON-round-trippable configuration of the monitoring service.

Every ``*Spec`` here is a :class:`~repro.spec.scenario.Spec`, so it shares
the scenario specs' one JSON codec: :meth:`to_dict` omits defaults and
:meth:`from_dict` rejects unknown keys and mistyped values, so a typo in a
config file fails loudly instead of silently monitoring nothing.  Unlike a
scenario spec, a serve spec also validates on load.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..core.consistency import CheckPolicy, all_checkers
from ..exceptions import ScenarioSpecError
from ..spec.scenario import Spec

#: Default eviction window of a tenant's bounded-memory checker.
DEFAULT_WINDOW = 512


@dataclass
class TraceSpec(Spec):
    """One file-backed trace source (``repro-trace-v1`` JSONL).

    ``follow=True`` tails the file like ``tail -f`` — the service keeps the
    tenant open and monitors records as they are appended.
    """

    _shorthand = "path"
    _validate_on_load = True

    path: str
    follow: bool = False

    def validate(self) -> None:
        if not self.path or not isinstance(self.path, str):
            raise ScenarioSpecError("trace spec needs a non-empty 'path'")
        if not isinstance(self.follow, bool):
            raise ScenarioSpecError(
                f"trace spec 'follow' must be a bool, got {self.follow!r}"
            )


@dataclass
class TenantSpec(Spec):
    """One monitored stream: a name, a criterion and a check cadence.

    ``window`` bounds the tenant's retained operations (the
    :class:`~repro.core.consistency.incremental.WindowedChecker` eviction
    window); ``trace`` attaches a file source for tenants the service should
    ingest itself (socket tenants configure themselves in their hello line).
    """

    _shorthand = "name"
    _validate_on_load = True

    name: str
    criterion: str = "causal"
    policy: str = "fail_fast"
    window: int = DEFAULT_WINDOW
    trace: Optional[TraceSpec] = None

    def validate(self) -> None:
        if not self.name or not str(self.name).replace("-", "").replace("_", "").isalnum():
            raise ScenarioSpecError(
                f"tenant name must be a non-empty [-_a-zA-Z0-9] slug, got {self.name!r}"
            )
        known = all_checkers()
        if self.criterion not in known:
            raise ScenarioSpecError(
                f"tenant {self.name!r} names unknown criterion {self.criterion!r}; "
                f"known: {sorted(known)}"
            )
        try:
            CheckPolicy.parse(self.policy)
        except Exception as exc:
            raise ScenarioSpecError(f"tenant {self.name!r}: {exc}") from None
        if not isinstance(self.window, int) or self.window < 4:
            raise ScenarioSpecError(
                f"tenant {self.name!r} window must be an int >= 4, got {self.window!r}"
            )
        if self.trace is not None:
            self.trace.validate()


@dataclass
class ServeSpec(Spec):
    """The whole service: listen address, defaults and preconfigured tenants.

    ``queue_size`` bounds every tenant's ingest queue — the backpressure
    knob: when a tenant's monitor falls behind, its socket reader blocks
    (TCP flow control pushes back on the producer) instead of buffering
    unboundedly.  ``status_interval`` is the period, in wall seconds, of the
    service's status stream (0 disables it).
    """

    _validate_on_load = True

    host: str = "127.0.0.1"
    port: int = 0
    window: int = DEFAULT_WINDOW
    queue_size: int = 1024
    status_interval: float = 1.0
    tenants: Tuple[TenantSpec, ...] = field(default_factory=tuple)

    def validate(self) -> None:
        if not self.host or not isinstance(self.host, str):
            raise ScenarioSpecError("serve spec needs a non-empty 'host'")
        if not isinstance(self.port, int) or not 0 <= self.port <= 65535:
            raise ScenarioSpecError(
                f"serve spec 'port' must be 0..65535, got {self.port!r}"
            )
        if not isinstance(self.window, int) or self.window < 4:
            raise ScenarioSpecError(
                f"serve spec 'window' must be an int >= 4, got {self.window!r}"
            )
        if not isinstance(self.queue_size, int) or self.queue_size < 1:
            raise ScenarioSpecError(
                f"serve spec 'queue_size' must be an int >= 1, got {self.queue_size!r}"
            )
        if not isinstance(self.status_interval, (int, float)) or self.status_interval < 0:
            raise ScenarioSpecError(
                f"serve spec 'status_interval' must be >= 0, got {self.status_interval!r}"
            )
        seen = set()
        for tenant in self.tenants:
            tenant.validate()
            if tenant.name in seen:
                raise ScenarioSpecError(f"duplicate tenant name {tenant.name!r}")
            seen.add(tenant.name)
