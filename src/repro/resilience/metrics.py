"""The process-wide ``resilience`` metric group.

Unlike ``serve``/``scan`` metrics — which belong to one server or
engine instance — resilience events are scattered across subsystems
(build supervision, scan breakers, segment salvage, feed-line
quarantine), so this module keeps one process-wide
:class:`ResilienceMetrics` that every call site shares via
:func:`get_resilience_metrics`.  The instance self-registers under the
``resilience`` group of :func:`repro.obs.metrics.get_registry`, so it
shows up in ``repro metrics`` and ``--metrics-out`` snapshots alongside
every other subsystem.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

from repro.obs.metrics import Counter, get_registry

__all__ = ["ResilienceMetrics", "get_resilience_metrics"]


class ResilienceMetrics:
    """Counts of every fault injected and every recovery performed.

    Four counts are broken down by a key and held as plain dicts that
    call sites bump with ``d[key] += 1``; the rest are :class:`Counter`
    values.  :meth:`snapshot` names each ``resilience_<attr>_total``.
    """

    def __init__(self) -> None:
        #: Injected faults, by kind (worker.crash, scan.servfail, ...).
        self.faults_injected: Dict[str, int] = defaultdict(int)
        #: Build-worker failures observed by the supervisor, by reason
        #: (injected crashes and real exceptions as ``crash``, shards
        #: lost to a broken pool as ``pool_broken``).
        self.worker_failures: Dict[str, int] = defaultdict(int)
        #: Failed build shards rebuilt in-process.
        self.serial_fallbacks = Counter("serial_fallbacks")
        #: Circuit breaker state transitions, by edge (``closed->open``).
        self.breaker_transitions: Dict[str, int] = defaultdict(int)
        #: Probes refused because a circuit breaker was open.
        self.breaker_skips = Counter("breaker_skips")
        #: Segmented-log salvage: lines dropped by CRC/parse, complete
        #: records recovered, files moved aside as unrecoverable.
        self.torn_lines = Counter("torn_lines")
        self.records_salvaged = Counter("records_salvaged")
        self.segments_quarantined = Counter("segments_quarantined")
        #: Subscribers dropped by overload shedding, by tier.
        self.shed_clients: Dict[str, int] = defaultdict(int)
        #: Malformed feed lines quarantined to a .rejects sidecar.
        self.rejected_lines = Counter("rejected_lines")

    def snapshot(self) -> Dict[str, object]:
        return {f"resilience_{attr}_total":
                dict(sorted(metric.items())) if isinstance(metric, dict)
                else metric.value
                for attr, metric in vars(self).items()}


_METRICS: ResilienceMetrics = ResilienceMetrics()
get_registry().register("resilience", _METRICS)


def get_resilience_metrics() -> ResilienceMetrics:
    """The process-wide resilience counters (shared by all subsystems)."""
    return _METRICS


def reset_resilience_metrics() -> ResilienceMetrics:
    """Swap in a fresh instance (test isolation helper)."""
    global _METRICS
    _METRICS = ResilienceMetrics()
    get_registry().register("resilience", _METRICS)
    return _METRICS
