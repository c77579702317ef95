"""The DarkDNS pipeline: all five steps, wired through the broker.

``DarkDNSPipeline(world).run()`` reproduces the paper's §3 methodology
end to end against a scenario world:

1. CT detection (Certstream → candidates, PSL + snapshot filter);
2. RDAP collection (IP-cycling client, no retries);
3. reactive DNS monitoring (A/AAAA/NS every 10 min for 48 h);
4. RDAP/CT cross-validation;
5. transient identification (±3-day snapshot slack).

Each stage also publishes to its topic, so examples can demonstrate the
streaming shape of the deployment; the returned
:class:`~repro.core.records.PipelineResult` is what the analyses and
benchmark harnesses consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.bus.broker import TOPIC_FEED, TOPIC_OBSERVATIONS
from repro.core.ctdetect import CTDetector
from repro.core.feed import PublicFeed
from repro.core.monitor import MonitorConfig, make_monitor
from repro.core.rdap_collect import RDAPCollector, RDAPCollectorConfig
from repro.core.records import PipelineResult
from repro.core.transient import TransientClassifier
from repro.core.validate import Validator, ValidatorConfig
from repro.dnscore.psl import PublicSuffixList
from repro.heap import gc_paused
from repro.obs.observers import observe_pipeline_result
from repro.obs.spans import span
from repro.workload.scenario import World


@dataclass
class PipelineConfig:
    """Tunables of a pipeline run (defaults = the paper's setup)."""

    rdap: RDAPCollectorConfig = field(default_factory=RDAPCollectorConfig)
    monitor: MonitorConfig = field(default_factory=MonitorConfig)
    validator: ValidatorConfig = field(default_factory=ValidatorConfig)
    #: "analytic" (timeline sampling), "loop" (literal probe loop), or
    #: "scan" (bulk measurement engine — the default at scale when real
    #: probes rather than analytic sampling are wanted).
    monitor_strategy: str = "analytic"
    #: Scan-engine overrides when ``monitor_strategy == "scan"`` (a
    #: :class:`repro.scan.ScanConfig`; None derives one from ``monitor``).
    scan: Optional[object] = None
    #: Monitor every candidate (True) or skip monitoring (False) — the
    #: RZU cadence ablation does not need probes and saves the work.
    run_monitor: bool = True
    #: Optional PSL override (the PSL ablation injects a buggy one).
    psl: Optional[PublicSuffixList] = None


class DarkDNSPipeline:
    """One configured pipeline bound to a world.

    ``serve`` optionally attaches a feed-distribution service (any
    object with a ``pump()`` method, e.g.
    :class:`repro.serve.FeedServer` built on ``world.broker``): after
    the feed is published to the broker topic, the pipeline pumps the
    server so subscribers see the records within the same run.

    ``observers`` optionally attaches a standing
    :class:`~repro.obs.observers.ObserverSuite`: after step 5 the run's
    daily output streams (registrations, dark hosts, confirmed
    transients) are fed through it, and the resulting anomaly /
    mass-event counts join ``result.stats``.  Detection is read-only —
    it never changes what the pipeline returns.
    """

    def __init__(self, world: World,
                 config: Optional[PipelineConfig] = None,
                 serve=None, observers=None) -> None:
        self.world = world
        self.config = config if config is not None else PipelineConfig()
        self.feed = PublicFeed()
        self.serve = serve
        self.observers = observers
        #: The step-3 monitor instance of the last run (exposes engine
        #: metrics when the strategy is "scan").
        self.monitor = None

    def run(self) -> PipelineResult:
        """Execute all five steps against the bound world.

        Returns:
            The :class:`~repro.core.records.PipelineResult` holding
            candidates, RDAP outcomes, monitor reports, validations,
            and the confirmed/RDAP-failed transient sets — everything
            the §4 analyses consume.

        Each stage also publishes to its broker topic as it runs, and
        an attached ``serve`` hook is pumped once the public feed is
        on the wire.  The whole run holds the cyclic GC paused and
        freezes its results on success, like :func:`build_world`; see
        :func:`repro.heap.gc_paused`.
        """
        with gc_paused():
            return self._run()

    def _run(self) -> PipelineResult:
        world = self.world
        config = self.config
        window = world.window

        # Step 1 — CT detection.
        with span("pipeline.ct_detect") as sp:
            detector = CTDetector(
                archive=world.archive,
                known_tlds=world.registries.tlds(),
                psl=config.psl,
                broker=world.broker)
            candidates = detector.run(world.certstream,
                                      window.start, window.end)
            sp.annotate(sim_sec=window.end - window.start,
                        candidates=len(candidates))

        # Public feed (contribution 2).
        records = [self.feed.publish(c) for c in candidates.values()]
        world.broker.produce_many(
            TOPIC_FEED, ((r.domain, r, r.seen_at) for r in records))
        self.feed.finalize()
        if self.serve is not None:
            self.serve.pump()

        # Step 2 — RDAP collection.
        with span("pipeline.rdap_collect") as sp:
            collector = RDAPCollector(world.registries, config.rdap,
                                      broker=world.broker)
            rdap_results = collector.collect(candidates.values())
            sp.annotate(queries=len(rdap_results))

        # Step 3 — reactive monitoring.
        monitors = {}
        with span("pipeline.monitor",
                  strategy=config.monitor_strategy) as sp:
            if config.run_monitor:
                monitor = make_monitor(world.registries, config.monitor,
                                       strategy=config.monitor_strategy,
                                       scan=config.scan)
                self.monitor = monitor
                if hasattr(monitor, "observe_all"):
                    # Bulk strategies (the scan engine) interleave every
                    # domain's probe grid through one shared queue.
                    monitors = monitor.observe_all(
                        {d: c.ct_seen_at for d, c in candidates.items()})
                else:
                    for domain, candidate in candidates.items():
                        monitors[domain] = monitor.observe(
                            domain, candidate.ct_seen_at)
                world.broker.produce_many(
                    TOPIC_OBSERVATIONS,
                    ((domain, report, candidates[domain].ct_seen_at)
                     for domain, report in monitors.items()))
            sp.annotate(monitored=len(monitors))

        # Step 4 — validation.
        with span("pipeline.validate"):
            validator = Validator(config.validator)
            verdicts = validator.validate_all(candidates, rdap_results)

        # Step 5 — transient identification.
        with span("pipeline.transient_classify"):
            classifier = TransientClassifier(world.registries, world.archive)
            breakdown = classifier.classify(candidates, verdicts)

        result = PipelineResult(
            window_start=window.start, window_end=window.end,
            candidates=candidates, rdap=rdap_results, monitors=monitors,
            verdicts=verdicts,
            transient_candidates=breakdown.candidates,
            confirmed_transients=breakdown.confirmed,
            rdap_failed_transients=breakdown.rdap_failed,
            misclassified_transients=breakdown.misclassified)
        result.stats = {
            "certstream_events": detector.stats.events,
            "names_seen": detector.stats.names_seen,
            "psl_failures": detector.stats.psl_failures,
            "filtered_in_zone": detector.stats.filtered_in_zone,
            "duplicates": detector.stats.duplicates,
            "candidates": detector.stats.candidates,
            "rdap_queries": len(rdap_results),
            "rdap_failures": sum(1 for r in rdap_results.values() if not r.ok),
            "monitored": len(monitors),
            "transient_candidates": len(breakdown.candidates),
            "confirmed_transients": len(breakdown.confirmed),
            "rdap_failed_transients": len(breakdown.rdap_failed),
            "misclassified_transients": len(breakdown.misclassified),
        }
        if self.observers is not None:
            anomalies = observe_pipeline_result(self.observers, result)
            result.stats["anomalies"] = len(anomalies)
            result.stats["mass_events"] = len(self.observers.mass_events)
        return result


def run_pipeline(world: World,
                 config: Optional[PipelineConfig] = None) -> PipelineResult:
    """Convenience: build, run, and return the result."""
    return DarkDNSPipeline(world, config).run()
