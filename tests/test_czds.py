"""Tests for snapshot schedules, the archive, and DZDB."""

import pytest

from repro.czds.archive import SnapshotArchive
from repro.czds.dzdb import DZDB, HistoricalRecord
from repro.czds.snapshot import SnapshotSchedule
from repro.errors import ConfigError
from repro.registry.policy import gtld
from repro.registry.registry import Registry, RegistryGroup
from repro.simtime.clock import DAY, HOUR, MINUTE, Window, utc


WINDOW = Window(utc(2023, 11, 1), utc(2023, 11, 15))


@pytest.fixture
def policy():
    return gtld("com", MINUTE, snapshot_offset=2 * HOUR,
                late_publication_prob=0.0)


@pytest.fixture
def schedule(policy):
    return SnapshotSchedule(policy, WINDOW)


class TestSnapshotSchedule:
    def test_daily_captures_with_lead_in(self, schedule):
        captures = schedule.capture_times()
        assert captures[0] < WINDOW.start          # baseline snapshot
        assert all(b - a == DAY for a, b in zip(captures, captures[1:]))
        assert captures[-1] < WINDOW.end

    def test_publication_trails_capture(self, schedule):
        for meta in schedule.metas():
            assert meta.publish_ts > meta.capture_ts
            assert meta.publication_delay >= 600

    def test_latest_published_progression(self, schedule):
        metas = schedule.metas()
        target = metas[3]
        assert schedule.latest_published(target.publish_ts - 1).capture_ts \
            < target.capture_ts
        assert schedule.latest_published(target.publish_ts).capture_ts \
            == target.capture_ts

    def test_nothing_published_before_first(self, schedule):
        assert schedule.latest_published(0) is None

    def test_late_files_never_shadow_newer(self):
        policy = gtld("top", MINUTE, late_publication_prob=0.5)
        schedule = SnapshotSchedule(policy, WINDOW)
        last_capture = -1
        for ts in range(WINDOW.start, WINDOW.end, 6 * HOUR):
            meta = schedule.latest_published(ts)
            if meta is not None:
                assert meta.capture_ts >= last_capture
                last_capture = meta.capture_ts

    def test_rapid_cadence(self, policy):
        rapid = SnapshotSchedule(policy, Window(WINDOW.start,
                                                WINDOW.start + DAY),
                                 interval=5 * MINUTE)
        captures = rapid.capture_times()
        assert len(captures) > 200

    def test_rejects_bad_interval(self, policy):
        with pytest.raises(ConfigError):
            SnapshotSchedule(policy, WINDOW, interval=0)

    def test_captures_between(self, schedule):
        day3 = WINDOW.start + 3 * DAY
        metas = schedule.captures_between(day3, day3 + DAY)
        assert len(metas) == 1

    def test_first_capture_at_or_after(self, schedule):
        meta = schedule.first_capture_at_or_after(WINDOW.start)
        assert meta.capture_ts >= WINDOW.start


def _build_group(policy):
    registry = Registry(policy)
    return registry, RegistryGroup([registry])


class TestSnapshotArchive:
    def _archive(self, policy):
        registry, group = _build_group(policy)
        archive = SnapshotArchive(group, WINDOW)
        return registry, archive

    def test_long_lived_domain_appears(self, policy):
        registry, archive = self._archive(policy)
        lc = registry.register("stable.com", WINDOW.start + HOUR, "GoDaddy",
                               ns_hosts=["ns1.h.net"])
        assert archive.appears_ever(lc)
        first = archive.first_appearance(lc)
        assert first > lc.zone_added_at

    def test_transient_domain_never_appears(self, policy):
        registry, archive = self._archive(policy)
        created = WINDOW.start + 3 * HOUR  # capture offset is 2h: just missed
        lc = registry.register("flash.com", created, "GoDaddy",
                               ns_hosts=["ns1.h.net"])
        registry.schedule_removal("flash.com", created + 2 * HOUR)
        assert not archive.appears_ever(lc)

    def test_is_zone_nrd_excludes_baseline(self, policy):
        registry, archive = self._archive(policy)
        old = registry.register("old.com", WINDOW.start - 30 * DAY, "GoDaddy",
                                ns_hosts=["ns1.h.net"])
        new = registry.register("new.com", WINDOW.start + HOUR, "GoDaddy",
                                ns_hosts=["ns1.h.net"])
        assert not archive.is_zone_nrd(old)
        assert archive.is_zone_nrd(new)

    def test_in_latest_published_tracks_publication(self, policy):
        registry, archive = self._archive(policy)
        lc = registry.register("pub.com", WINDOW.start + HOUR, "GoDaddy",
                               ns_hosts=["ns1.h.net"])
        schedule = archive.schedule("com")
        first_meta = next(m for m in schedule.metas()
                          if m.capture_ts >= lc.zone_added_at)
        assert not archive.in_latest_published("pub.com",
                                               first_meta.publish_ts - 1)
        assert archive.in_latest_published("pub.com", first_meta.publish_ts)

    def test_uncovered_tld_never_filters(self, policy):
        registry, group = _build_group(policy)
        archive = SnapshotArchive(group, WINDOW, covered_tlds=[])
        registry.register("x.com", WINDOW.start + HOUR, "GoDaddy",
                          ns_hosts=["ns1.h.net"])
        assert not archive.in_latest_published("x.com", WINDOW.end - 1)
        assert archive.covered_tlds == []

    def test_schedule_for_uncovered_raises(self, policy):
        _, group = _build_group(policy)
        archive = SnapshotArchive(group, WINDOW, covered_tlds=[])
        with pytest.raises(ConfigError):
            archive.schedule("com")

    def test_materialized_matches_analytic(self, policy):
        """The materialised snapshot files and the analytic membership
        oracle must agree exactly."""
        registry, archive = self._archive(policy)
        lc1 = registry.register("a.com", WINDOW.start + HOUR, "GoDaddy",
                                ns_hosts=["ns1.h.net"])
        lc2 = registry.register("b.com", WINDOW.start + 2 * DAY, "GoDaddy",
                                ns_hosts=["ns1.h.net"])
        registry.schedule_removal("a.com", WINDOW.start + 5 * DAY)
        versions = list(archive.materialize("com"))
        for meta, version in zip(archive.schedule("com").metas(), versions):
            for lc in (lc1, lc2):
                assert (lc.domain in version) == lc.in_zone_at(meta.capture_ts)

    def test_diff_sequence_extraction(self, policy):
        registry, archive = self._archive(policy)
        registry.register("base.com", WINDOW.start - 10 * DAY, "GoDaddy",
                          ns_hosts=["ns1.h.net"])
        registry.register("nrd.com", WINDOW.start + DAY, "GoDaddy",
                          ns_hosts=["ns1.h.net"])
        sequence = archive.diff_sequence("com")
        assert set(sequence.newly_registered()) == {"nrd.com"}


class TestZoneNRDReference:
    """Table 1's Zone NRD column counts ``archive.is_zone_nrd``, an
    analytic oracle over capture times; the materialised snapshot
    diffs (:class:`~repro.dnscore.zonediff.DiffSequence`) are its
    reference and must flag exactly the same domains."""

    def test_diff_sequence_matches_is_zone_nrd_on_every_tld(self,
                                                            small_world):
        archive = small_world.archive
        assert "nl" in archive.covered_tlds
        mismatched = {}
        for tld in archive.covered_tlds:
            registry = small_world.registries.get(tld)
            diffed = set(archive.diff_sequence(tld).newly_registered())
            analytic = {lc.domain for lc in registry.lifecycles()
                        if archive.is_zone_nrd(lc)}
            assert analytic, tld
            if diffed != analytic:
                mismatched[tld] = sorted(diffed ^ analytic)[:5]
        assert not mismatched


class TestDZDB:
    def test_observe_and_lookup(self):
        db = DZDB()
        db.observe("old.com", 1000)
        db.observe("old.com", 5000)
        record = db.lookup("old.com")
        assert record.first_seen == 1000 and record.last_seen == 5000
        assert "old.com" in db and len(db) == 1

    def test_registered_before(self):
        db = DZDB()
        db.add_interval("past.com", 1000, 2000)
        assert db.registered_before("past.com", 5000)
        assert not db.registered_before("past.com", 500)
        assert not db.registered_before("never.com", 5000)

    def test_coverage_of(self):
        db = DZDB()
        db.add_interval("a.com", 0, 10)
        assert db.coverage_of(["a.com", "b.com"], 100) == 0.5
        assert db.coverage_of([], 100) == 0.0

    def test_interval_widening(self):
        db = DZDB()
        db.add_interval("x.com", 2000, 3000)
        db.observe("x.com", 1000)
        assert db.lookup("x.com").first_seen == 1000

    def test_rejects_inverted_interval(self):
        with pytest.raises(ConfigError):
            HistoricalRecord("x.com", 100, 50)

    def test_span_days(self):
        assert HistoricalRecord("x.com", 0, 3 * DAY).span_days == 3
