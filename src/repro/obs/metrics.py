"""Metric primitives and the process-wide registry.

The telemetry layer every subsystem shares: :class:`Counter`,
:class:`Gauge`, and :class:`Histogram` primitives (with optional label
dimensions on counters and gauges) plus the :class:`MetricsRegistry`
that groups them per subsystem.  :func:`get_registry` returns the default
process-wide registry that exposition (``repro.obs.exposition``), the
``repro metrics`` CLI command, and ``--metrics-out`` all read.

Everything here is dependency-free (stdlib only), draws from **no RNG
stream** (so instrumentation can never perturb a sampled value — the
``world_fingerprint`` contract), and snapshots to plain dicts so
callers can just ``json.dumps`` the result.

A registry *provider* (one registered group) is any object with two
methods::

    snapshot() -> dict           # JSON-ready view of the group
    metrics()  -> iterable       # the primitives, for exposition

``ServeMetrics``, ``ScanMetrics``, the resolver-pool gauge adapter,
the span :class:`~repro.obs.spans.Tracer`, and the standing
:class:`~repro.obs.observers.ObserverSuite` all satisfy it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
]

#: A single exposition sample: (name suffix, label dict, value).
Sample = Tuple[str, Dict[str, str], float]


def _check_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names: {names}")
    for name in names:
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"invalid label name: {name!r}")
    return names


class _LabeledMetric:
    """Shared parent/child machinery for labelled counters and gauges.

    A metric constructed with ``labelnames`` is a *parent*: it holds no
    value of its own and hands out per-label-value children via
    :meth:`labels`.  A metric without label names is its own single
    child.  Children are memoised, so ``m.labels(tld="com")`` is cheap
    enough for non-hot-path call sites (hot loops should hoist the
    child once, exactly like they hoist bound methods today).
    """

    __slots__ = ("name", "help", "labelnames", "_labelvalues", "_children")

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._labelvalues: Tuple[str, ...] = ()
        self._children: Optional[Dict[Tuple[str, ...], "_LabeledMetric"]] = (
            {} if self.labelnames else None)

    # -- labels ---------------------------------------------------------------

    def labels(self, *values, **kv):
        """Return (creating if needed) the child for one label vector."""
        if not self.labelnames:
            raise ValueError(f"{self.name} has no label dimensions")
        if self._children is None:
            raise ValueError(f"{self.name}: labels() on a child metric")
        if kv:
            if values:
                raise ValueError("pass label values either positionally "
                                 "or by keyword, not both")
            try:
                values = tuple(kv[name] for name in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc} "
                                 f"(expected {self.labelnames})") from None
            if len(kv) != len(self.labelnames):
                extra = set(kv) - set(self.labelnames)
                raise ValueError(f"unexpected labels: {sorted(extra)}")
        values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(f"{self.name} expects {len(self.labelnames)} "
                             f"label values, got {len(values)}")
        child = self._children.get(values)
        if child is None:
            child = type(self)(self.name, self.help)
            child._labelvalues = values
            child.labelnames = self.labelnames
            child._children = None
            self._children[values] = child
        return child

    def children(self) -> Iterator["_LabeledMetric"]:
        """The concrete value-holding metrics (itself when unlabelled)."""
        if self._children is None:
            yield self
        else:
            # Sorted for stable exposition output, run to run.
            for key in sorted(self._children):
                yield self._children[key]

    def _label_dict(self) -> Dict[str, str]:
        return dict(zip(self.labelnames, self._labelvalues))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name!r})"


class Counter(_LabeledMetric):
    """A monotonically increasing count, optionally labelled."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if self._children is not None:
            raise ValueError(f"{self.name} is labelled; inc() a child "
                             f"from labels()")
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def samples(self) -> Iterator[Sample]:
        for child in self.children():
            yield ("", child._label_dict(), child.value)


class Gauge(_LabeledMetric):
    """A value that can go up, down, or be computed at read time.

    ``set_function`` makes the gauge *pull-based*: the callable is
    evaluated on every sample/snapshot, which is how live fleet state
    (resolver-pool totals, queue depths) joins the registry without a
    push call on the hot path.
    """

    __slots__ = ("_value", "_fn")

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._value = 0.0
        self._fn = None

    def _check_leaf(self) -> None:
        if self._children is not None:
            raise ValueError(f"{self.name} is labelled; use labels() first")

    def set(self, value: float) -> None:
        self._check_leaf()
        self._value = value
        self._fn = None

    def inc(self, amount: float = 1) -> None:
        self._check_leaf()
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        self._check_leaf()
        self._value -= amount

    def set_function(self, fn) -> None:
        """Evaluate ``fn()`` at every read instead of a stored value."""
        self._check_leaf()
        self._fn = fn

    @property
    def value(self) -> float:
        if self._children is not None:
            raise ValueError(f"{self.name} is labelled; read a child")
        return self._fn() if self._fn is not None else self._value

    def samples(self) -> Iterator[Sample]:
        for child in self.children():
            yield ("", child._label_dict(), child.value)


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

    kind = "histogram"

    __slots__ = ("name", "help", "bounds", "buckets", "count", "total", "max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None,
                 help: str = "") -> None:
        self.name = name
        self.help = help
        self.bounds: List[float] = sorted(bounds if bounds is not None
                                          else self.DEFAULT_BOUNDS)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.buckets[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

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

    def samples(self) -> Iterator[Sample]:
        """Prometheus histogram series: cumulative buckets, sum, count."""
        cumulative = 0
        for bound, n in zip(self.bounds, self.buckets):
            cumulative += n
            yield ("_bucket", {"le": _format_bound(bound)}, cumulative)
        yield ("_bucket", {"le": "+Inf"}, self.count)
        yield ("_sum", {}, self.total)
        yield ("_count", {}, self.count)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Histogram({self.name!r}, count={self.count})"


def _format_bound(bound: float) -> str:
    """Render a bucket edge the way Prometheus does (no trailing .0)."""
    if float(bound) == int(bound):
        return str(int(bound))
    return repr(float(bound))


class MetricsRegistry:
    """Named groups of metric providers — the process's telemetry root.

    Subsystems register under a stable group name (``"serve"``,
    ``"scan"``, ``"spans"`` ...); re-registering a name *replaces* the
    previous provider, so the registry always reflects the most recent
    subsystem instance (tests and CLI runs construct many servers and
    engines per process).  :meth:`snapshot` is the JSON view;
    :meth:`collect` feeds the Prometheus exposition.
    """

    def __init__(self) -> None:
        self._groups: Dict[str, object] = {}

    def register(self, group: str, provider) -> None:
        """Attach (or replace) one provider under ``group``."""
        if not group:
            raise ValueError("group name must be non-empty")
        for method in ("snapshot", "metrics"):
            if not callable(getattr(provider, method, None)):
                raise TypeError(
                    f"provider for {group!r} lacks a {method}() method")
        self._groups[group] = provider

    def unregister(self, group: str) -> None:
        self._groups.pop(group, None)

    def group(self, name: str):
        """The registered provider, or None."""
        return self._groups.get(name)

    def groups(self) -> List[str]:
        return sorted(self._groups)

    def collect(self) -> Iterator[Tuple[str, object]]:
        """Yield ``(group, metric)`` for every registered primitive."""
        for group in sorted(self._groups):
            for metric in self._groups[group].metrics():
                yield group, metric

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready view of every group (stable key order)."""
        return {group: self._groups[group].snapshot()
                for group in sorted(self._groups)}


class SimpleProvider:
    """A provider over a plain list of primitives.

    The convenience wrapper for ad-hoc groups (benchmarks, examples)
    that have no subsystem class of their own.
    """

    def __init__(self, *metrics_) -> None:
        self._metrics = list(metrics_)

    def add(self, metric):
        self._metrics.append(metric)
        return metric

    def metrics(self) -> Iterable:
        return list(self._metrics)

    def snapshot(self) -> Dict[str, object]:
        snap: Dict[str, object] = {}
        for metric in self._metrics:
            if isinstance(metric, Histogram):
                snap[metric.name] = metric.snapshot()
            elif metric.labelnames:
                snap[metric.name] = {
                    ",".join(child._labelvalues): child.value
                    for child in metric.children()}
            else:
                snap[metric.name] = metric.value
        return snap


#: The default process-wide registry (created eagerly: it is tiny, and
#: a module-level singleton keeps get_registry() allocation-free).
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every subsystem registers into."""
    return _REGISTRY
