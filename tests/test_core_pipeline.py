"""Tests for the pipeline steps and the end-to-end run."""

import copy
import dataclasses
import gc
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ctdetect import CTDetector
from repro.core.feed import FeedRecord, PublicFeed
from repro.core.monitor import MonitorConfig
from repro.core.pipeline import DarkDNSPipeline, PipelineConfig, run_pipeline
from repro.core.rdap_collect import RDAPCollector, RDAPCollectorConfig
from repro.core.records import Candidate, MonitorReport
from repro.core.transient import TransientClassifier
from repro.core.validate import Validator, ValidatorConfig
from repro.registry.rdap import RDAPFailure, RDAPResult
from repro.simtime.clock import DAY, HOUR, MINUTE, to_datetime

from doubles import BuggyPublicSuffixList


def make_candidate(domain="x.com", seen=10_000):
    return Candidate(domain=domain, tld=domain.rsplit(".", 1)[1],
                     ct_seen_at=seen, cert_serial=1, issuer="CA",
                     log_id="log", reused_validation=False)


def _seed_free_repr(record):
    """``repr(record)``, with a MonitorReport's NS sets listed sorted.

    A frozenset lists its members in hash order, and one rebuilt by
    pickle or copy may list them in another order under some hash
    seeds, so the sets are sorted before the reprs are compared.
    """
    if isinstance(record, MonitorReport):
        record = dataclasses.replace(record, ns_sets=tuple(
            tuple(sorted(ns)) for ns in record.ns_sets))
    return repr(record)


class TestSlottedRecords:
    """The per-candidate records are kept for the whole run, so none
    carries a ``__dict__``; they must still pickle, copy and refuse
    mutation like the frozen dataclasses they are."""

    def test_records_round_trip(self, tiny_result):
        domain = next(d for d in tiny_result.monitors
                      if tiny_result.rdap[d].ok)
        records = (tiny_result.candidates[domain],
                   tiny_result.monitors[domain],
                   tiny_result.verdicts[domain],
                   tiny_result.rdap[domain],
                   RDAPResult(domain, 5, failure=RDAPFailure.NOT_FOUND),
                   FeedRecord(domain, "com", 5),
                   tiny_result.rdap[domain].record)
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__
            for clone in (pickle.loads(pickle.dumps(record)),
                          copy.copy(record), copy.deepcopy(record)):
                assert clone == record and type(clone) is type(record)
                assert hash(clone) == hash(record)
                assert _seed_free_repr(clone) == _seed_free_repr(record)
            with pytest.raises(AttributeError):
                record.domain = "other.com"
        tld = tiny_result.candidates[domain].tld
        assert records[-1].handle == f"{domain.upper()}-{tld.upper()}"


class TestCTDetector:
    def test_filters_domains_in_published_snapshot(self, tiny_world):
        detector = CTDetector(tiny_world.archive,
                              tiny_world.registries.tlds())
        candidates = detector.run(tiny_world.certstream,
                                  tiny_world.window.start,
                                  tiny_world.window.end)
        assert detector.stats.filtered_in_zone > 0
        assert len(candidates) == detector.stats.candidates
        # No candidate may be present in the latest published snapshot
        # at its observation time.
        for domain, candidate in list(candidates.items())[:100]:
            assert not tiny_world.archive.in_latest_published(
                domain, candidate.ct_seen_at)

    def test_deduplicates_by_domain(self, tiny_world):
        detector = CTDetector(tiny_world.archive, tiny_world.registries.tlds())
        events = list(tiny_world.certstream.events())
        detector.process_event(events[0])
        before = detector.stats.candidates
        detector.process_event(events[0])
        assert detector.stats.candidates == before
        assert detector.stats.duplicates >= 1

    def test_unknown_tld_skipped(self, tiny_world):
        detector = CTDetector(tiny_world.archive, known_tlds=["net"])
        detector.run(tiny_world.certstream, tiny_world.window.start,
                     tiny_world.window.end)
        assert detector.stats.candidates == 0
        assert detector.stats.unknown_tld > 0

    def test_buggy_psl_misextracts(self, tiny_world):
        good = CTDetector(tiny_world.archive, tiny_world.registries.tlds())
        buggy = CTDetector(tiny_world.archive, tiny_world.registries.tlds(),
                           psl=BuggyPublicSuffixList())
        good_set = set(good.run(tiny_world.certstream))
        buggy_set = set(buggy.run(tiny_world.certstream))
        # Single-label gTLDs only in the tiny world: results identical,
        # proving misextraction needs multi-label suffixes.
        assert good_set == buggy_set


class TestRDAPCollector:
    def test_query_time_within_bounds(self, tiny_world):
        collector = RDAPCollector(tiny_world.registries,
                                  RDAPCollectorConfig(60, 600))
        candidate = make_candidate(seen=50_000)
        ts = collector.query_time(candidate)
        assert 50_060 <= ts <= 50_600

    def test_collect_orders_by_detection(self, tiny_world, tiny_result):
        assert set(tiny_result.rdap) == set(tiny_result.candidates)


class TestValidator:
    def test_ok_new_domain(self):
        validator = Validator()
        candidate = make_candidate(seen=10_000)
        record_result = RDAPResult(
            "x.com", 10_100,
            record=__import__("repro.registry.rdap", fromlist=["RDAPRecord"])
            .RDAPRecord("x.com", 9_000, "GoDaddy", 146, ("active",),
                        10_100))
        verdict = validator.verdict(candidate, record_result)
        assert verdict.rdap_ok
        assert verdict.detection_delay == 1_000
        assert not verdict.misclassified
        assert verdict.consistent_24h

    def test_old_domain_misclassified(self):
        from repro.registry.rdap import RDAPRecord
        validator = Validator(ValidatorConfig(newness_threshold=4 * DAY))
        candidate = make_candidate(seen=10 * DAY)
        result = RDAPResult("x.com", 10 * DAY, record=RDAPRecord(
            "x.com", 1 * DAY, "GoDaddy", 146, ("active",), 10 * DAY))
        verdict = validator.verdict(candidate, result)
        assert verdict.misclassified
        assert not verdict.consistent_24h

    def test_failed_rdap(self):
        validator = Validator()
        verdict = validator.verdict(make_candidate(),
                                    RDAPResult("x.com", 1,
                                               failure=RDAPFailure.NOT_FOUND))
        assert not verdict.rdap_ok
        assert verdict.detection_delay is None

    def test_missing_rdap(self):
        verdict = Validator().verdict(make_candidate(), None)
        assert not verdict.rdap_ok


class TestTransientClassifier:
    def test_ghost_is_transient(self, tiny_world):
        classifier = TransientClassifier(tiny_world.registries,
                                         tiny_world.archive)
        assert classifier.is_transient_candidate("never-registered.com")

    def test_longlived_not_transient(self, tiny_world, tiny_result):
        classifier = TransientClassifier(tiny_world.registries,
                                         tiny_world.archive)
        long_lived = next(
            d for d in tiny_result.candidates
            if (lc := tiny_world.registries.find_lifecycle(d)) is not None
            and lc.removed_at is None)
        assert not classifier.is_transient_candidate(long_lived)


class TestPublicFeed:
    def test_publish_and_order(self):
        feed = PublicFeed()
        feed.publish(make_candidate("b.com", seen=200))
        feed.publish(make_candidate("a.com", seen=100))
        feed.finalize()
        assert [r.domain for r in feed] == ["a.com", "b.com"]

    def test_jsonl_roundtrip(self, tmp_path):
        feed = PublicFeed()
        feed.publish(make_candidate("a.com", seen=100))
        feed.publish(make_candidate("b.xyz", seen=200))
        path = tmp_path / "feed.jsonl"
        assert feed.to_jsonl(path) == 2
        loaded = PublicFeed.from_jsonl(path)
        assert loaded.domains == {"a.com", "b.xyz"}

    def test_records_on_day(self):
        feed = PublicFeed()
        feed.publish(make_candidate("a.com", seen=100))
        feed.publish(make_candidate("b.com", seen=2 * DAY + 5))
        assert {r.domain for r in feed.records_on_day(0)} == {"a.com"}
        assert feed.domains_on_day(2 * DAY) == {"b.com"}

    def test_record_json_fields(self):
        record = FeedRecord("a.com", "com", 100)
        parsed = FeedRecord.from_json(record.to_json())
        assert parsed == record

    @settings(max_examples=300, deadline=None)
    @given(domain=st.text(max_size=12), tld=st.text(max_size=4),
           source=st.text(max_size=4),
           seen_at=st.integers(-2 * 10**9, 253_402_300_799))
    def test_record_json_is_compact_sorted_json(self, domain, tld, source,
                                                seen_at):
        """``to_json`` writes the text out by hand; it must stay the
        compact, key-sorted ``json.dumps`` of the five fields, escapes
        and non-ASCII included."""
        record = FeedRecord(domain, tld, seen_at, source)
        payload = {"domain": domain, "tld": tld, "seen_at": seen_at,
                   "seen_at_iso": to_datetime(seen_at).strftime(
                       "%Y-%m-%dT%H:%M:%SZ"),
                   "source": source}
        assert record.to_json() == json.dumps(
            payload, separators=(",", ":"), sort_keys=True)
        assert FeedRecord.from_json(record.to_json()) == record

    def test_loader_quarantines_non_finite_and_null_fields(self, tmp_path):
        """JSON admits ``Infinity``, ``1e400`` and ``null``; each such
        line is skipped like any malformed one, not raised."""
        good = FeedRecord("ok.com", "com", 9).to_json()
        path = tmp_path / "feed.jsonl"
        path.write_text("\n".join([
            good,
            '{"domain": "a.com", "tld": "com", "seen_at": Infinity}',
            '{"domain": "b.com", "tld": "com", "seen_at": 1e400}',
            '{"domain": null, "tld": "com", "seen_at": 5}',
        ]) + "\n", encoding="utf-8")
        loaded = PublicFeed.from_jsonl(path)
        assert [r.domain for r in loaded] == ["ok.com"]
        assert loaded.load_errors == 3

    @pytest.mark.parametrize("fields", [
        '"seen_at": NaN', '"seen_at": -Infinity', '"seen_at": true',
        '"seen_at": 1.5', '"seen_at": "5"', '"seen_at": [5]',
        '"seen_at": 5, "source": null', '"seen_at": 5, "source": [1]'])
    def test_from_json_rejects_malformed_fields(self, fields):
        line = '{"domain": "a.com", "tld": "com", %s}' % fields
        with pytest.raises((ValueError, TypeError)):
            FeedRecord.from_json(line)

    def test_from_json_accepts_whole_floats(self):
        record = FeedRecord.from_json(
            '{"domain": "a.com", "tld": "com", "seen_at": 7.0}')
        assert record.seen_at == 7 and type(record.seen_at) is int


class TestEndToEnd:
    def test_pipeline_invariants(self, small_world, small_result):
        result = small_result
        # Every candidate got an RDAP attempt and a verdict.
        assert set(result.rdap) == set(result.candidates)
        assert set(result.verdicts) == set(result.candidates)
        # Transient partitions are disjoint and cover the candidates.
        parts = (result.confirmed_transients, result.rdap_failed_transients,
                 result.misclassified_transients)
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                assert not a & b
        assert (result.confirmed_transients | result.rdap_failed_transients
                | result.misclassified_transients) == result.transient_candidates
        assert result.transient_candidates <= set(result.candidates)

    def test_confirmed_transients_truly_absent_from_snapshots(
            self, small_world, small_result):
        for domain in list(small_result.confirmed_transients)[:100]:
            lifecycle = small_world.registries.find_lifecycle(domain)
            assert lifecycle is not None
            assert not small_world.archive.appears_ever(lifecycle)

    def test_confirmed_transients_are_true_transients(
            self, small_world, small_result):
        # Precision 1.0 against ground truth, not just snapshot absence.
        truth = {lc.domain for lc in small_world.ground_truth.true_transients()}
        assert small_result.confirmed_transients
        assert small_result.confirmed_transients <= truth

    def test_funnel_loses_no_ct_visible_true_transient(
            self, small_world, small_result):
        # Every true transient is either found by CT and then confirmed
        # or RDAP-failed, or was never named by a certificate logged in
        # the window: the funnel's only losses are CT coverage and RDAP.
        window = small_world.window
        truth = {lc.domain for lc in small_world.ground_truth.true_transients()}
        found = truth & set(small_result.candidates)
        assert found
        assert found <= (small_result.confirmed_transients
                         | small_result.rdap_failed_transients)
        logged = set()
        for log in small_world.logs:
            for entry in log.entries():
                if entry.logged_at in window:
                    logged.update(entry.certificate.dns_names())
        unseen = truth - found
        assert unseen
        assert not unseen & logged

    def test_ghosts_fail_rdap(self, small_world, small_result):
        ghosts = [d for d in small_result.transient_candidates
                  if small_world.registries.find_lifecycle(d) is None]
        assert ghosts, "scenario must produce ghost candidates"
        for domain in ghosts:
            assert domain in small_result.rdap_failed_transients

    def test_feed_covers_candidates(self, small_world):
        pipeline = DarkDNSPipeline(small_world)
        result = pipeline.run()
        assert pipeline.feed.domains == set(result.candidates)

    def test_broker_topics_populated(self, small_world, small_result):
        from repro.bus.broker import (TOPIC_CANDIDATES, TOPIC_FEED,
                                      TOPIC_OBSERVATIONS, TOPIC_RDAP)
        broker = small_world.broker
        for topic in (TOPIC_CANDIDATES, TOPIC_RDAP, TOPIC_OBSERVATIONS,
                      TOPIC_FEED):
            assert broker.topic(topic).total_messages() > 0

    def test_funnel_monotone(self, small_result):
        stats = small_result.stats
        assert (stats["names_seen"] >= stats["candidates"]
                == stats["rdap_queries"] >= stats["monitored"]
                >= stats["transient_candidates"]
                >= stats["confirmed_transients"])
        assert stats["rdap_failures"] <= stats["rdap_queries"]

    def test_stats_consistent(self, small_result):
        stats = small_result.stats
        assert stats["candidates"] == len(small_result.candidates)
        assert stats["transient_candidates"] == len(
            small_result.transient_candidates)
        assert stats["rdap_failures"] <= stats["rdap_queries"]

    def test_detection_delays_mostly_positive(self, small_result):
        delays = list(small_result.detection_delays().values())
        positive = sum(1 for d in delays if d > 0)
        assert positive / len(delays) > 0.95

    def test_monitor_can_be_disabled(self, tiny_world):
        result = run_pipeline(tiny_world,
                              PipelineConfig(run_monitor=False))
        assert result.monitors == {}

    def test_loop_strategy_small(self, tiny_world):
        config = PipelineConfig(
            monitor_strategy="loop",
            monitor=MonitorConfig(probe_interval=30 * MINUTE,
                                  duration=2 * HOUR))
        result = run_pipeline(tiny_world, config)
        assert result.monitors


class TestGCQuiet:
    """The run holds the cyclic GC paused; the freeze after it is safe
    only while the pipeline's object graph stays acyclic."""

    def test_no_collection_during_run(self, tiny_world, gc_starts):
        gc.collect()  # reset the gen-0 count before recording
        del gc_starts[:]
        run_pipeline(tiny_world)
        assert gc_starts == [2]  # only the pause's entry collect
        assert gc.isenabled()

    @pytest.mark.parametrize("strategy", ["analytic", "scan", "loop"])
    def test_run_leaves_no_cyclic_garbage(self, tiny_world, strategy):
        config = PipelineConfig(
            monitor_strategy=strategy,
            monitor=MonitorConfig(probe_interval=30 * MINUTE,
                                  duration=2 * HOUR))
        was_enabled = gc.isenabled()
        gc.disable()  # caller-disabled: no freeze, everything collectable
        try:
            gc.collect()
            run_pipeline(tiny_world, config)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
