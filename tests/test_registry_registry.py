"""Tests for the Registry: provisioning cadence, holds, ground truth."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RegistrationError, SimulationError, UnknownDomainError
from repro.registry.lifecycle import RemovalReason
from repro.registry.policy import gtld, policy_for
from repro.registry.registry import Registry, RegistryGroup, lifecycle_rows
from repro.simtime.clock import DAY, HOUR, MINUTE
from repro.simtime.timeline import EMPTY_TIMELINE


@pytest.fixture
def registry():
    return Registry(gtld("com", MINUTE))


def register(registry, domain="example.com", created=10_000, **kwargs):
    defaults = dict(ns_hosts=["ns1.h.net", "ns2.h.net"],
                    a_addrs=["192.0.2.1"], registrar="GoDaddy")
    defaults.update(kwargs)
    return registry.register(domain, created, defaults.pop("registrar"),
                             **defaults)


class TestRegister:
    def test_zone_added_at_next_tick(self, registry):
        lc = register(registry, created=10_000)
        assert lc.zone_added_at == registry.policy.next_zone_tick(10_000)

    def test_duplicate_rejected(self, registry):
        register(registry)
        with pytest.raises(RegistrationError):
            register(registry)

    def test_foreign_tld_rejected(self, registry):
        with pytest.raises(RegistrationError):
            register(registry, domain="example.net")

    def test_held_never_published(self, registry):
        lc = register(registry, held=True)
        assert lc.zone_added_at is None
        assert not lc.in_zone_at(10 ** 9)

    def test_delegation_visible_after_tick(self, registry):
        lc = register(registry, created=10_000)
        assert registry.delegation_at("example.com", lc.zone_added_at - 1) is None
        assert registry.delegation_at("example.com", lc.zone_added_at) == frozenset(
            {"ns1.h.net", "ns2.h.net"})

    def test_get_and_find(self, registry):
        register(registry)
        assert registry.get("EXAMPLE.com").domain == "example.com"
        assert registry.find("missing.com") is None
        with pytest.raises(UnknownDomainError):
            registry.get("missing.com")

    def test_len_and_contains(self, registry):
        register(registry)
        assert len(registry) == 1
        assert "example.com" in registry


class TestRemoval:
    def test_zone_drop_at_next_tick(self, registry):
        lc = register(registry, created=10_000)
        removed_at = lc.zone_added_at + 3 * HOUR + 7
        registry.schedule_removal("example.com", removed_at,
                                  RemovalReason.ABUSE)
        assert lc.removed_at == removed_at
        assert lc.zone_removed_at == registry.policy.next_zone_tick(removed_at)
        assert lc.removal_reason is RemovalReason.ABUSE

    def test_removal_before_first_tick_never_publishes(self):
        """Registered and removed inside one provisioning interval —
        the domain never reaches DNS at all."""
        registry = Registry(gtld("slow", 30 * MINUTE, snapshot_offset=0))
        lc = register(registry, domain="flash.slow",
                      created=registry.policy.next_zone_tick(0) + 10)
        registry.schedule_removal("flash.slow", lc.created_at + 60)
        assert lc.zone_added_at is None
        assert registry.delegation_at("flash.slow", lc.created_at + 10**6) is None

    def test_removal_before_creation_rejected(self, registry):
        lc = register(registry, created=10_000)
        with pytest.raises(RegistrationError):
            registry.schedule_removal("example.com", 9_999)


class TestHold:
    def test_place_hold_keeps_registration(self, registry):
        lc = register(registry, created=10_000)
        hold_at = lc.zone_added_at + DAY
        registry.place_hold("example.com", hold_at)
        assert lc.held
        assert lc.removed_at is None            # RDAP object survives
        assert not lc.in_zone_at(hold_at + HOUR + MINUTE)

    def test_hold_before_first_tick(self, registry):
        lc = register(registry, created=10_000)
        registry.place_hold("example.com", 10_001)
        assert lc.zone_added_at is None or not lc.in_zone_at(10 ** 9)


class TestNSChange:
    def test_change_applies_at_tick(self, registry):
        lc = register(registry, created=10_000)
        change_at = lc.zone_added_at + HOUR
        registry.change_nameservers("example.com", change_at,
                                    ["ns1.new.net"], dns_provider="New")
        effective = registry.policy.next_zone_tick(change_at)
        assert lc.nameservers_at(effective - 1) == frozenset(
            {"ns1.h.net", "ns2.h.net"})
        assert lc.nameservers_at(effective) == frozenset({"ns1.new.net"})
        assert lc.dns_provider == "New"

    def test_change_on_held_domain_rejected(self, registry):
        register(registry, held=True)
        with pytest.raises(RegistrationError):
            registry.change_nameservers("example.com", 20_000, ["ns1.x.net"])


class TestSerial:
    def test_serial_counts_dirty_ticks(self, registry):
        t0 = 10_000
        register(registry, domain="a.com", created=t0)
        register(registry, domain="b.com", created=t0 + 5)  # same tick
        register(registry, domain="c.com", created=t0 + 10 * MINUTE)
        last_tick = registry.get("c.com").zone_added_at
        assert registry.serial_at(t0 - 1) == 0
        assert registry.serial_at(last_tick) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(
        st.tuples(st.just("mark"), st.integers(0, 40)),
        st.tuples(st.just("ask"), st.integers(-2, 45))), max_size=60))
    def test_serial_matches_brute_force(self, ops):
        """Any interleaving of mutations (in or out of tick order,
        repeated or not) and serial queries counts the distinct dirty
        ticks at or before the asked one."""
        registry = Registry(gtld("com", MINUTE))
        policy = registry.policy
        tick = policy.tick_phase()  # tick_index(tick) == 1
        marked = set()
        for op, index in ops:
            if op == "mark":
                registry._mark_dirty(tick + (index - 1) * MINUTE)
                marked.add(index)
            else:
                ts = tick + (index - 1) * MINUTE
                asked = policy.tick_index(ts)
                assert registry.serial_at(ts) == sum(
                    1 for m in marked if m <= asked)
        assert registry.dirty_tick_indices() == frozenset(marked)

    def test_serial_monotone(self, registry):
        for i in range(5):
            register(registry, domain=f"d{i}.com", created=10_000 + i * 600)
        serials = [registry.serial_at(ts) for ts in range(9_000, 14_000, 100)]
        assert serials == sorted(serials)

    def test_authority_view(self, registry):
        lc = register(registry, created=10_000)
        auth = registry.authority()
        from repro.dnscore.message import Query
        from repro.dnscore.records import RRType
        response = auth.lookup(Query("example.com", RRType.NS),
                               lc.zone_added_at)
        assert response.exists


class TestSharedEmptyTimeline:
    """Absent histories share one immutable empty timeline; a change
    to a lifecycle holding it gives that lifecycle its own."""

    def test_absent_histories_share_the_empty(self, registry):
        one = register(registry, domain="one.com")
        two = register(registry, domain="two.com", a_addrs=[])
        held = register(registry, domain="held.com", held=True)
        assert one.aaaa_timeline is two.aaaa_timeline is EMPTY_TIMELINE
        assert two.a_timeline is EMPTY_TIMELINE
        assert held.ns_timeline is held.a_timeline is EMPTY_TIMELINE
        assert one.a_timeline is not EMPTY_TIMELINE

    def test_changes_never_reach_another_lifecycle(self, registry):
        one = register(registry, domain="one.com", a_addrs=[])
        two = register(registry, domain="two.com", a_addrs=[])
        registry.change_nameservers("one.com", 20_000, ["ns9.x.net"],
                                    a_addrs=["192.0.2.9"])
        assert one.a_timeline is not EMPTY_TIMELINE
        assert one.addresses_at(30_000) == ("192.0.2.9",)
        assert two.a_timeline is EMPTY_TIMELINE
        assert two.addresses_at(30_000) == ()
        assert not EMPTY_TIMELINE and len(EMPTY_TIMELINE) == 0

    def test_early_removal_resets_to_the_empty(self, registry):
        lc = register(registry, domain="gone.com", created=10_000)
        registry.schedule_removal("gone.com", 10_001)
        assert lc.zone_added_at is None
        assert (lc.ns_timeline is lc.a_timeline is lc.aaaa_timeline
                is EMPTY_TIMELINE)
        assert not EMPTY_TIMELINE

    def test_the_empty_refuses_in_place_changes(self):
        with pytest.raises(SimulationError):
            EMPTY_TIMELINE.set(1, ("192.0.2.1",))
        assert not EMPTY_TIMELINE
        assert copy.deepcopy(EMPTY_TIMELINE) is EMPTY_TIMELINE
        assert pickle.loads(pickle.dumps(EMPTY_TIMELINE)) is EMPTY_TIMELINE

    def test_bulk_load_keeps_the_same_shape(self, registry):
        register(registry, domain="one.com")
        register(registry, domain="two.com", a_addrs=[])
        register(registry, domain="held.com", held=True)
        rebuilt = Registry(registry.policy)
        rebuilt.register_many(lifecycle_rows(registry),
                              registry.dirty_tick_indices())
        for lc in registry.lifecycles():
            twin = rebuilt.get(lc.domain)
            for field in ("ns_timeline", "a_timeline", "aaaa_timeline"):
                assert ((getattr(lc, field) is EMPTY_TIMELINE)
                        == (getattr(twin, field) is EMPTY_TIMELINE)), field


class TestGroundTruth:
    def test_registrations_in(self, registry):
        register(registry, domain="in.com", created=10_000)
        register(registry, domain="out.com", created=100_000)
        found = registry.registrations_in(0, 50_000)
        assert [lc.domain for lc in found] == ["in.com"]

    def test_deleted_under(self, registry):
        lc = register(registry, domain="fast.com", created=10_000)
        registry.schedule_removal("fast.com", 10_000 + 3 * HOUR)
        register(registry, domain="slow.com", created=10_000)
        registry.schedule_removal("slow.com", 10_000 + 3 * DAY)
        under = registry.deleted_under(DAY, 0, 50_000)
        assert [lc.domain for lc in under] == ["fast.com"]

    def test_never_published(self, registry):
        register(registry, domain="held.com", created=10_000, held=True)
        register(registry, domain="live.com", created=10_000)
        assert [lc.domain for lc in registry.never_published(0, 50_000)] == [
            "held.com"]


class TestZoneVersion:
    def test_zone_version_contents(self, registry):
        lc = register(registry, created=10_000)
        version = registry.zone_version_at(lc.zone_added_at)
        assert "example.com" in version
        assert version.serial == registry.serial_at(lc.zone_added_at)

    def test_delegated_domains_at(self, registry):
        lc = register(registry, created=10_000)
        registry.schedule_removal("example.com", lc.zone_added_at + HOUR)
        removed_tick = registry.get("example.com").zone_removed_at
        assert registry.delegated_domains_at(lc.zone_added_at) == {"example.com"}
        assert registry.delegated_domains_at(removed_tick) == set()


class TestRegistryGroup:
    def test_routing(self):
        group = RegistryGroup([Registry(policy_for("com")),
                               Registry(policy_for("net"))])
        register(group.get("com"), domain="a.com")
        assert group.for_domain("x.a.com").tld == "com"
        assert group.find_lifecycle("a.com") is not None
        assert group.find_lifecycle("a.net") is None
        assert group.find_lifecycle("a.unknowntld") is None

    def test_tlds_sorted(self):
        group = RegistryGroup([Registry(policy_for("net")),
                               Registry(policy_for("com"))])
        assert group.tlds() == ["com", "net"]

    def test_total_registrations(self):
        group = RegistryGroup([Registry(policy_for("com"))])
        register(group.get("com"), domain="a.com")
        register(group.get("com"), domain="b.com")
        assert group.total_registrations() == 2

    def test_unknown_tld_raises(self):
        with pytest.raises(UnknownDomainError):
            RegistryGroup([]).get("com")
