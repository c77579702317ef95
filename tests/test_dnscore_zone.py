"""Tests for zones, snapshots, diffs, and the DiffSequence NRD logic."""

import pytest

from repro.dnscore.zone import (
    Delegation,
    Zone,
    ZoneVersion,
    domains_added,
    domains_removed,
    nameserver_changes,
)
from repro.dnscore.zonediff import DiffSequence, ZoneDelta
from repro.errors import ZoneError


@pytest.fixture
def zone():
    z = Zone("com")
    z.add_delegation("alpha.com", ["ns1.h.net", "ns2.h.net"])
    z.commit()
    return z


class TestZone:
    def test_rejects_non_tld_apex(self):
        with pytest.raises(ZoneError):
            Zone("co.uk")

    def test_add_and_contains(self, zone):
        assert "alpha.com" in zone
        assert "ALPHA.COM" in zone
        assert "beta.com" not in zone

    def test_rejects_duplicate(self, zone):
        with pytest.raises(ZoneError):
            zone.add_delegation("alpha.com", ["ns9.h.net"])

    def test_rejects_foreign_domain(self, zone):
        with pytest.raises(ZoneError):
            zone.add_delegation("alpha.net", ["ns1.h.net"])

    def test_rejects_subdomain_delegation(self, zone):
        with pytest.raises(ZoneError):
            zone.add_delegation("deep.alpha.com", ["ns1.h.net"])

    def test_remove(self, zone):
        zone.remove_delegation("alpha.com")
        assert "alpha.com" not in zone

    def test_remove_unknown(self, zone):
        with pytest.raises(ZoneError):
            zone.remove_delegation("ghost.com")

    def test_replace_nameservers(self, zone):
        zone.replace_nameservers("alpha.com", ["ns1.other.net"])
        assert zone.get("alpha.com").nameservers == frozenset({"ns1.other.net"})

    def test_commit_bumps_serial_once_per_batch(self, zone):
        serial = zone.serial
        zone.add_delegation("b.com", ["ns1.h.net"])
        zone.add_delegation("c.com", ["ns1.h.net"])
        assert zone.commit() == serial + 1

    def test_commit_without_changes_keeps_serial(self, zone):
        serial = zone.serial
        assert zone.commit() == serial

    def test_mutation_counter(self, zone):
        assert zone.mutations == 1
        zone.replace_nameservers("alpha.com", ["ns3.h.net"])
        assert zone.mutations == 2

    def test_empty_delegation_rejected(self):
        with pytest.raises(ZoneError):
            Delegation("a.com", frozenset())

    def test_apex_records(self, zone):
        records = zone.apex_records()
        assert records[0].rtype.value == "SOA"
        assert len(records) == 3


class TestSnapshots:
    def test_snapshot_is_immutable_copy(self, zone):
        snap = zone.snapshot(taken_at=1000)
        zone.add_delegation("later.com", ["ns1.h.net"])
        assert "later.com" not in snap
        assert snap.taken_at == 1000

    def test_zonefile_roundtrip(self, zone):
        zone.add_delegation("beta.com", ["ns1.x.org"])
        zone.commit()
        snap = zone.snapshot(5)
        parsed = ZoneVersion.from_zonefile("com", snap.to_zonefile(), taken_at=5)
        assert parsed.domains == snap.domains
        assert parsed.serial == snap.serial
        assert parsed.nameservers_of("beta.com") == frozenset({"ns1.x.org"})

    def test_diff_helpers(self, zone):
        before = zone.snapshot(0)
        zone.add_delegation("new.com", ["ns1.h.net"])
        zone.remove_delegation("alpha.com")
        after = zone.snapshot(1)
        assert domains_added(before, after) == {"new.com"}
        assert domains_removed(before, after) == {"alpha.com"}

    def test_nameserver_changes(self, zone):
        before = zone.snapshot(0)
        zone.replace_nameservers("alpha.com", ["ns1.new.net"])
        after = zone.snapshot(1)
        changes = nameserver_changes(before, after)
        assert set(changes) == {"alpha.com"}
        old, new = changes["alpha.com"]
        assert "ns1.h.net" in old and "ns1.new.net" in new


class TestZoneDelta:
    def test_between(self, zone):
        before = zone.snapshot(0)
        zone.add_delegation("n.com", ["ns1.h.net"])
        zone.commit()
        after = zone.snapshot(10)
        delta = ZoneDelta.between(before, after)
        assert delta.added == frozenset({"n.com"})
        assert delta.removed == frozenset()
        assert delta.churn == 1
        assert not delta.is_empty

    def test_between_rejects_different_zones(self, zone):
        other = Zone("net").snapshot(0)
        with pytest.raises(ZoneError):
            ZoneDelta.between(zone.snapshot(0), other)


class TestDiffSequence:
    def _snapshots(self):
        zone = Zone("com")
        zone.add_delegation("old.com", ["ns1.h.net"])
        s0 = zone.snapshot(0)
        zone.add_delegation("day1.com", ["ns1.h.net"])
        s1 = zone.snapshot(100)
        zone.remove_delegation("day1.com")
        zone.add_delegation("day2.com", ["ns1.h.net"])
        s2 = zone.snapshot(200)
        return s0, s1, s2

    def test_first_feed_returns_none(self):
        s0, *_ = self._snapshots()
        assert DiffSequence("com").feed(s0) is None

    def test_baseline_not_counted_as_nrd(self):
        s0, s1, s2 = self._snapshots()
        seq = DiffSequence("com")
        for snap in (s0, s1, s2):
            seq.feed(snap)
        nrds = seq.newly_registered()
        assert set(nrds) == {"day1.com", "day2.com"}
        assert nrds["day1.com"] == 100

    def test_transient_between_snapshots_invisible(self):
        """A domain added and removed between captures never appears —
        the paper's blind spot in miniature."""
        zone = Zone("com")
        s0 = zone.snapshot(0)
        zone.add_delegation("flash.com", ["ns1.h.net"])
        zone.remove_delegation("flash.com")
        s1 = zone.snapshot(100)
        seq = DiffSequence("com")
        seq.feed(s0)
        seq.feed(s1)
        assert "flash.com" not in seq.ever_seen

    def test_rejects_out_of_order(self):
        s0, s1, _ = self._snapshots()
        seq = DiffSequence("com")
        seq.feed(s1)
        with pytest.raises(ZoneError):
            seq.feed(s0)

    def test_rejects_wrong_zone(self):
        seq = DiffSequence("net")
        with pytest.raises(ZoneError):
            seq.feed(Zone("com").snapshot(0))

    def test_appeared_within(self):
        s0, s1, s2 = self._snapshots()
        seq = DiffSequence("com")
        for snap in (s0, s1, s2):
            seq.feed(snap)
        assert seq.appeared_within("day1.com", 50, 150)
        assert not seq.appeared_within("day2.com", 0, 150)
