"""repro.obs — unified telemetry: registry, spans, observers.

The cross-cutting observability layer (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  primitives, the process-wide :class:`MetricsRegistry`, and its JSON
  snapshot rendering :func:`to_json`;
* :mod:`repro.obs.spans` — the phase :func:`span` tracer (wall time,
  sim time, peak RSS, cross-process stitching);
* :mod:`repro.obs.observers` — standing observers: rolling baselines,
  z-score / step-change significance, mass-event triggers;
* :mod:`repro.obs.profiler` — sampling profiler with span-phase
  attribution and flamegraph-collapsed output;
* :mod:`repro.obs.log` — structured logging with span/trace
  correlation ids and rate-limited duplicate suppression.

``repro.obs`` sits at the very top of the layer map: it imports
nothing from the rest of ``repro`` (stdlib only) so every layer —
dnscore, czds, serve, scan, core, workload, cli — may depend on it.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    to_json,
)
from repro.obs.spans import Span, Tracer, set_enabled, span, tracer
from repro.obs.observers import (
    SCENARIO_EXPECTATIONS,
    Anomaly,
    MassEvent,
    ObserverSuite,
    RollingBaseline,
    ScenarioExpectation,
    SeriesObserver,
    check_expectations,
    daily_counts,
    default_pipeline_suite,
    observe_pipeline_result,
    observe_world,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.log import LogRouter, get_logger

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "get_registry",
    "to_json",
    "Span", "Tracer", "span", "tracer", "set_enabled",
    "Anomaly", "MassEvent", "RollingBaseline", "SeriesObserver",
    "ObserverSuite", "daily_counts", "default_pipeline_suite",
    "observe_pipeline_result", "observe_world",
    "ScenarioExpectation", "SCENARIO_EXPECTATIONS", "check_expectations",
    "SamplingProfiler",
    "LogRouter", "get_logger",
]
