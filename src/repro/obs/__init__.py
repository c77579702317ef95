"""repro.obs — unified telemetry: registry, spans, exposition, observers.

The cross-cutting observability layer (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  primitives and the process-wide :class:`MetricsRegistry`;
* :mod:`repro.obs.spans` — the phase :func:`span` tracer (wall time,
  sim time, peak RSS, JSONL event sink);
* :mod:`repro.obs.exposition` — Prometheus text + JSON snapshot
  renderings of the registry (and the parse/lint inverses);
* :mod:`repro.obs.observers` — standing observers: rolling baselines,
  z-score / step-change significance, mass-event triggers;
* :mod:`repro.obs.profiler` — sampling profiler with span-phase
  attribution and flamegraph-collapsed output;
* :mod:`repro.obs.log` — structured logging with span/trace
  correlation ids and rate-limited duplicate suppression;
* :mod:`repro.obs.progress` — live pull gauges + the heartbeat
  reporter for long builds.

``repro.obs`` sits at the very top of the layer map: it imports
nothing from the rest of ``repro`` (stdlib only) so every layer —
dnscore, czds, serve, scan, core, workload, cli — may depend on it.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SimpleProvider,
    get_registry,
)
from repro.obs.spans import Span, Tracer, set_enabled, span, tracer
from repro.obs.exposition import (
    lint_prometheus,
    parse_prometheus,
    to_json,
    to_prometheus,
)
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
from repro.obs.profiler import SamplingProfiler, profiling
from repro.obs.log import LogRouter, configure, get_logger
from repro.obs.progress import BuildProgress, Heartbeat, build_progress

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "SimpleProvider",
    "get_registry",
    "Span", "Tracer", "span", "tracer", "set_enabled",
    "to_prometheus", "to_json", "parse_prometheus", "lint_prometheus",
    "Anomaly", "MassEvent", "RollingBaseline", "SeriesObserver",
    "ObserverSuite", "daily_counts", "default_pipeline_suite",
    "observe_pipeline_result", "observe_world",
    "ScenarioExpectation", "SCENARIO_EXPECTATIONS", "check_expectations",
    "SamplingProfiler", "profiling",
    "LogRouter", "configure", "get_logger",
    "BuildProgress", "Heartbeat", "build_progress",
]
