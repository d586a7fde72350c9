"""Message latency models.

The paper's results do not depend on timing, but the simulated protocols do
exchange messages whose interleaving is shaped by latencies; providing several
models lets the benchmarks stress protocols under uniform, heterogeneous and
heavy-tailed delays while staying fully deterministic for a given seed.
"""

from __future__ import annotations

import abc
import math
import random
from typing import Optional

from ..exceptions import NetworkModelError


#: Latency classes buildable from a declarative ``{"kind": ...}`` spec.
LATENCY_KINDS = {}


def latency_kind(name):
    """Register a latency class under a spec ``kind`` name."""

    def decorate(cls):
        LATENCY_KINDS[name] = cls
        return cls

    return decorate


def build_latency(spec=None, seed: int = 0) -> "LatencyModel":
    """Build a latency model from a declarative spec.

    Accepts ``None`` (constant 1.0), a bare number (constant), an existing
    :class:`LatencyModel`, or a ``{"kind": name, **params}`` mapping; seeded
    kinds default to ``seed`` unless the spec pins its own.  Raises
    :class:`~repro.exceptions.NetworkModelError` on malformed specs.
    """
    if spec is None:
        return ConstantLatency(1.0)
    if isinstance(spec, LatencyModel):
        return spec
    if isinstance(spec, (int, float)):
        return ConstantLatency(float(spec))
    if not isinstance(spec, dict):
        raise NetworkModelError(
            f"latency spec must be a number, a LatencyModel or a dict, got {spec!r}"
        )
    params = dict(spec)
    kind = params.pop("kind", "constant")
    try:
        cls = LATENCY_KINDS[kind]
    except KeyError:
        raise NetworkModelError(
            f"unknown latency kind {kind!r}; known: {sorted(LATENCY_KINDS)}"
        ) from None
    if cls is not ConstantLatency:
        params.setdefault("seed", seed)
    try:
        return cls(**params)
    except TypeError as exc:
        raise NetworkModelError(f"bad latency spec {spec!r}: {exc}") from None
    except ValueError as exc:
        raise NetworkModelError(f"bad latency spec {spec!r}: {exc}") from None


def _require_finite(**params: float) -> None:
    """Raise :class:`NetworkModelError` naming the first non-finite parameter.

    A NaN latency would pass every ``<``/``<=`` range check (they are all
    false) and then corrupt the simulator's event order.
    """
    for name, value in params.items():
        if not math.isfinite(value):
            raise NetworkModelError(f"latency parameter {name} must be finite, got {value!r}")


class LatencyModel(abc.ABC):
    """Base class of latency models: maps (src, dst) to a positive, finite delay."""

    @abc.abstractmethod
    def sample(self, src: int, dst: int) -> float:
        """Latency of the next message from ``src`` to ``dst``."""

    def sample_many(self, src: int, dsts) -> "list[float]":
        """Latencies for one message to each of ``dsts``, in order.

        The draw order is exactly ``[sample(src, d) for d in dsts]`` so a
        multicast consumes the seeded RNG stream identically whether it is
        sent message-by-message or as one batched call — traces stay
        bit-for-bit reproducible either way.  Subclasses may override for
        speed but must preserve that draw order.
        """
        return [self.sample(src, d) for d in dsts]

    def __call__(self, src: int, dst: int) -> float:
        return self.sample(src, dst)


@latency_kind("constant")
class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: float = 1.0):
        _require_finite(delay=delay)
        if delay <= 0:
            raise NetworkModelError("latency must be positive")
        self.delay = delay

    def sample(self, src: int, dst: int) -> float:
        return self.delay

    def sample_many(self, src: int, dsts) -> "list[float]":
        return [self.delay] * len(dsts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ConstantLatency({self.delay})"


@latency_kind("uniform")
class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]`` (seeded, deterministic)."""

    def __init__(self, low: float = 0.5, high: float = 1.5, seed: int = 0):
        _require_finite(low=low, high=high)
        if not 0 < low <= high:
            raise NetworkModelError("need 0 < low <= high")
        self.low = low
        self.high = high
        self._rng = random.Random(seed)

    def sample(self, src: int, dst: int) -> float:
        return self._rng.uniform(self.low, self.high)

    def sample_many(self, src: int, dsts) -> "list[float]":
        uniform, low, high = self._rng.uniform, self.low, self.high
        return [uniform(low, high) for _ in dsts]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformLatency({self.low}, {self.high})"


@latency_kind("lognormal")
class LogNormalLatency(LatencyModel):
    """Heavy-tailed latency (log-normal), mimicking wide-area links."""

    def __init__(self, median: float = 1.0, sigma: float = 0.5, seed: int = 0):
        _require_finite(median=median, sigma=sigma)
        if median <= 0 or sigma < 0:
            raise NetworkModelError("median must be positive and sigma non-negative")
        self._mu = math.log(median)
        self._sigma = sigma
        self._rng = random.Random(seed)

    def sample(self, src: int, dst: int) -> float:
        return self._rng.lognormvariate(self._mu, self._sigma)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LogNormalLatency(mu={self._mu:.3f}, sigma={self._sigma})"


@latency_kind("pairwise")
class PairwiseLatency(LatencyModel):
    """Per-pair base latency (e.g. from a distance matrix) plus optional jitter."""

    def __init__(self, base: dict, default: float = 1.0, jitter: float = 0.0, seed: int = 0):
        self._base = {tuple(k): float(v) for k, v in base.items()}
        _require_finite(default=default, jitter=jitter, **{
            f"base[{pair}]": value for pair, value in self._base.items()
        })
        self._default = default
        self._jitter = jitter
        self._rng = random.Random(seed)

    def sample(self, src: int, dst: int) -> float:
        base = self._base.get((src, dst), self._base.get((dst, src), self._default))
        if self._jitter:
            base += self._rng.uniform(0.0, self._jitter)
        return max(base, 1e-9)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PairwiseLatency(pairs={len(self._base)}, default={self._default})"
