"""Metric primitives, the process-wide registry, and its JSON rendering.

The telemetry layer every subsystem shares: a plain :class:`Counter`
and a fixed-bucket :class:`Histogram`, plus the :class:`MetricsRegistry`
that groups them per subsystem.  A count broken down by some key (faults
by kind, phases by name) is a plain ``Dict[str, int]`` on its provider.
:func:`get_registry` returns the default process-wide registry that
:func:`to_json` renders for the ``repro metrics`` CLI command and
``--metrics-out``.

Everything here is dependency-free (stdlib only), draws from **no RNG
stream** (so instrumentation can never perturb a sampled value — the
``world_fingerprint`` contract), and snapshots to plain dicts so
callers can just ``json.dumps`` the result.

A registry *provider* (one registered group) is any object with a
``snapshot() -> dict`` method returning a JSON-ready view of the
group.  ``ServeMetrics``, ``ScanMetrics``, ``ResolverPoolMetrics``,
``ResilienceMetrics``, the span :class:`~repro.obs.spans.Tracer`, and
the standing :class:`~repro.obs.observers.ObserverSuite` all satisfy it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Counter", "Histogram", "MetricsRegistry", "get_registry", "to_json",
]


class Counter:
    """A named count that only goes up."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """Fixed-bucket histogram with sum/count/max.

    ``bounds`` are inclusive upper bucket edges; observations above the
    last bound land in the overflow bucket.  The quantile estimate is
    rank-based: ``quantile(q)`` returns the upper edge of the bucket
    holding the observation of rank ``max(1, ceil(q * count))``, capped
    at the true observed maximum — so ``quantile(0.0)`` is the first
    *non-empty* bucket's edge, ``quantile(1.0)`` equals ``max``, and an
    empty histogram answers ``0.0`` for every quantile.
    """

    DEFAULT_BOUNDS = (1, 10, 60, 300, 900, 3600, 6 * 3600, 24 * 3600)

    __slots__ = ("name", "bounds", "buckets", "count", "total", "max")

    def __init__(self, name: str,
                 bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds: List[float] = sorted(bounds if bounds is not None
                                          else self.DEFAULT_BOUNDS)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        # bisect_left: a value equal to a bound is in that bound's bucket.
        self.buckets[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def observe_many(self, values: Sequence[float], zeros: int = 0) -> None:
        """Record every value in ``values``, plus ``zeros`` observations
        of ``0`` in a single add.

        Equals one :meth:`observe` per value in ``buckets``, ``count``
        and ``max``, and in ``total`` whenever the values sum exactly in
        any order (integers, as every caller passes).  The values are
        sorted once and each bucket takes its share with one bisect, so
        a batch costs the sort, not a bucket search per value.
        """
        buckets = self.buckets
        if zeros:
            # ``max`` starts at 0 and only grows, so zeros never move it.
            buckets[bisect_left(self.bounds, 0)] += zeros
            self.count += zeros
        if not values:
            return
        ordered = sorted(values)
        below = 0
        for i, bound in enumerate(self.bounds):
            upto = bisect_right(ordered, bound, below)
            buckets[i] += upto - below
            below = upto
        buckets[-1] += len(ordered) - below
        self.count += len(ordered)
        self.total += sum(ordered)
        top = ordered[-1]
        if top > self.max:
            self.max = top

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the covering bucket's upper edge.

        Raises :class:`ValueError` outside ``[0, 1]``.  The estimate is
        exact at ``q == 1.0`` (the tracked maximum) and never exceeds
        it — a single observation in the overflow bucket reports its
        own value, not infinity.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for i, n in enumerate(self.buckets):
            seen += n
            if seen >= rank:
                edge = self.bounds[i] if i < len(self.bounds) else self.max
                return min(edge, self.max)
        return self.max  # pragma: no cover - rank <= count always lands

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, 3),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Histogram({self.name!r}, count={self.count})"


class MetricsRegistry:
    """Named groups of metric providers — the process's telemetry root.

    Subsystems register under a stable group name (``"serve"``,
    ``"scan"``, ``"spans"`` ...); re-registering a name *replaces* the
    previous provider, so the registry always reflects the most recent
    subsystem instance (tests and CLI runs construct many servers and
    engines per process).  :meth:`snapshot` is the JSON view.
    """

    def __init__(self) -> None:
        self._groups: Dict[str, object] = {}

    def register(self, group: str, provider) -> None:
        """Attach (or replace) one provider under ``group``."""
        if not group:
            raise ValueError("group name must be non-empty")
        if not callable(getattr(provider, "snapshot", None)):
            raise TypeError(
                f"provider for {group!r} lacks a snapshot() method")
        self._groups[group] = provider

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of every group (stable key order)."""
        return {group: self._groups[group].snapshot()
                for group in sorted(self._groups)}


#: The default process-wide registry (created eagerly: it is tiny, and
#: a module-level singleton keeps get_registry() allocation-free).
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every subsystem registers into."""
    return _REGISTRY


def to_json(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry snapshot as a JSON document (sorted keys)."""
    registry = registry if registry is not None else get_registry()
    return json.dumps(registry.snapshot(), indent=2, sort_keys=True)
