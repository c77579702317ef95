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

from typing import Dict

from repro.obs.metrics import Counter, get_registry

__all__ = ["ResilienceMetrics", "get_resilience_metrics"]


class ResilienceMetrics:
    """Counters for every fault injected and every recovery performed."""

    def __init__(self) -> None:
        #: Injected faults, by kind (worker.crash, scan.servfail, ...).
        self.faults_injected = Counter(
            "resilience_faults_injected_total",
            "Faults fired by the active fault plan", labelnames=("kind",))
        #: Build-worker failures observed by the supervisor (injected
        #: crashes and real exceptions as ``crash``, shards lost to a
        #: broken pool as ``pool_broken``).
        self.worker_failures = Counter(
            "resilience_worker_failures_total",
            "Build shards whose worker crashed or was lost",
            labelnames=("reason",))
        self.serial_fallbacks = Counter(
            "resilience_serial_fallbacks_total",
            "Failed build shards rebuilt in-process")
        #: Breaker lifecycle, labelled by the transition edge.
        self.breaker_transitions = Counter(
            "resilience_breaker_transitions_total",
            "Circuit breaker state transitions",
            labelnames=("transition",))
        self.breaker_skips = Counter(
            "resilience_breaker_skips_total",
            "Probes refused because a circuit breaker was open")
        #: Segmented-log salvage results.
        self.torn_lines = Counter(
            "resilience_torn_lines_total",
            "Segment lines dropped by CRC/parse during salvage")
        self.records_salvaged = Counter(
            "resilience_records_salvaged_total",
            "Complete records recovered from damaged segments")
        self.segments_quarantined = Counter(
            "resilience_segments_quarantined_total",
            "Segment files moved aside as unrecoverable or orphaned")
        #: Serve-side degradation.
        self.shed_clients = Counter(
            "resilience_shed_clients_total",
            "Subscribers dropped by overload shedding", labelnames=("tier",))
        #: Feed-ingest hygiene.
        self.rejected_lines = Counter(
            "resilience_rejected_lines_total",
            "Malformed feed lines quarantined to a .rejects sidecar")

    def snapshot(self) -> Dict[str, object]:
        snap: Dict[str, object] = {}
        for metric in vars(self).values():      # every attribute is a Counter
            if metric.labelnames:
                snap[metric.name] = {
                    ",".join(child._labelvalues): child.value
                    for child in metric.children()}
            else:
                snap[metric.name] = metric.value
        return snap


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
