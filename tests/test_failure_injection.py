"""Failure injection: the pipeline under degraded observation channels.

The paper's methodology section enumerates its own failure modes; these
tests verify the reproduction degrades the same way instead of merely
working on the happy path.
"""

import pytest

from repro.core.ctdetect import CTDetector
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.rdap_collect import RDAPCollector
from repro.ct.certstream import CertstreamFeed
from repro.dnscore.psl import PublicSuffixList
from repro.registry.rdap import RDAPClient, RDAPFailure, RDAPServer
from repro.registry.registry import RegistryGroup
from repro.simtime.clock import DAY, HOUR

from doubles import BuggyPublicSuffixList


class TestCertstreamLoss:
    """Certstream is best-effort; dropped messages cost detections."""

    def test_drop_rate_reduces_candidates_proportionally(self, tiny_world):
        lossless = CTDetector(tiny_world.archive, tiny_world.registries.tlds())
        full = len(lossless.run(tiny_world.certstream))

        lossy_feed = CertstreamFeed(tiny_world.logs, drop_prob=0.5)
        lossy = CTDetector(tiny_world.archive, tiny_world.registries.tlds())
        degraded = len(lossy.run(lossy_feed))
        assert 0.35 < degraded / full < 0.65

    def test_total_loss_detects_nothing(self, tiny_world):
        dead_feed = CertstreamFeed(tiny_world.logs, drop_prob=1.0)
        detector = CTDetector(tiny_world.archive, tiny_world.registries.tlds())
        assert detector.run(dead_feed) == {}


class TestRDAPOutage:
    """§4.2: the pipeline must classify, not crash, when RDAP dies."""

    def _broken_client(self, world):
        client = RDAPClient(world.registries)
        for tld in world.registries.tlds():
            registry = world.registries.get(tld)
            client._servers[tld] = RDAPServer(registry, flaky_prob=1.0)
        return client

    def test_total_outage_fails_all_transients(self, tiny_world):
        from repro.core.ctdetect import CTDetector
        from repro.core.transient import TransientClassifier
        from repro.core.validate import Validator

        detector = CTDetector(tiny_world.archive, tiny_world.registries.tlds())
        candidates = detector.run(tiny_world.certstream)
        collector = RDAPCollector(tiny_world.registries,
                                  client=self._broken_client(tiny_world))
        rdap = collector.collect(candidates.values())
        assert all(not r.ok for r in rdap.values())
        assert all(r.failure is RDAPFailure.SERVER_ERROR
                   for r in rdap.values())

        verdicts = Validator().validate_all(candidates, rdap)
        breakdown = TransientClassifier(
            tiny_world.registries, tiny_world.archive).classify(
            candidates, verdicts)
        # With no RDAP, nothing can be confirmed: everything transient
        # lands in the failed bucket — graceful degradation.
        assert breakdown.confirmed == set()
        assert breakdown.rdap_failed == breakdown.candidates


class TestPSLDegradation:
    """§4.1 attributes part of Fig 1's tail to PSL misextraction."""

    def test_buggy_psl_changes_extraction_under_multilabel_suffixes(self):
        good, buggy = PublicSuffixList(), BuggyPublicSuffixList()
        assert good.registrable_domain("shop.example.co.uk") == "example.co.uk"
        assert buggy.registrable_domain("shop.example.co.uk") == "co.uk"

    def test_pipeline_accepts_custom_psl(self, tiny_world):
        result = run_pipeline(tiny_world,
                              PipelineConfig(psl=BuggyPublicSuffixList(),
                                             run_monitor=False))
        # Single-label gTLD world: candidate count must be unchanged.
        baseline = run_pipeline(tiny_world, PipelineConfig(run_monitor=False))
        assert set(result.candidates) == set(baseline.candidates)


class TestLatePublication:
    """Late zone files widen the step-1 candidate stream."""

    def test_late_files_create_stale_filter(self):
        from repro.czds.snapshot import SnapshotSchedule
        from repro.registry.policy import gtld
        from repro.simtime.clock import MINUTE, Window, utc

        window = Window(utc(2023, 11, 1), utc(2023, 11, 20))
        punctual = SnapshotSchedule(
            gtld("zz", MINUTE, late_publication_prob=0.0,
                 snapshot_offset=0), window)
        tardy = SnapshotSchedule(
            gtld("zz", MINUTE, late_publication_prob=1.0,
                 snapshot_offset=0), window)
        ts = utc(2023, 11, 10)
        fresh = punctual.latest_published(ts)
        stale = tardy.latest_published(ts)
        assert fresh is not None
        # With every file days late, the freshest available capture is
        # strictly older.
        assert stale is None or stale.capture_ts < fresh.capture_ts


class TestMonitorBlindSpots:
    def test_subprobe_lifetime_never_observed(self, small_world,
                                              small_result):
        """Domains whose delegation lived between probes have
        last_ns_ok=None yet are still transient candidates — the
        monitor degrades exactly like the paper's (footnote on lifetime
        estimation)."""
        unseen = [
            domain for domain in small_result.confirmed_transients
            if (report := small_result.monitors.get(domain)) is not None
            and not report.ever_resolved
        ]
        for domain in unseen:
            lifecycle = small_world.registries.find_lifecycle(domain)
            assert lifecycle is not None
            # Either never published, or published too briefly for the
            # 10-minute grid.
            if lifecycle.zone_added_at is not None:
                zone_life = (lifecycle.zone_removed_at
                             - lifecycle.zone_added_at)
                assert zone_life < 2 * 600
