"""Tests for messages, the TTL cache, authorities, and the resolver."""

import pytest

from repro.dnscore.authserver import HostingAuthority, TLDAuthority
from repro.dnscore.cache import ResolverCache
from repro.dnscore.message import Query, RCode, noerror, nxdomain, servfail, timeout
from repro.dnscore.records import RRType, ResourceRecord
from repro.dnscore.resolver import CachingResolver, ResolverPool

from doubles import StaticAuthority


class TestMessages:
    def test_query_normalises(self):
        assert Query("ExAmPle.Com", RRType.A).qname == "example.com"

    def test_exists_semantics(self):
        query = Query("a.com", RRType.AAAA)
        assert noerror(query, ()).exists            # NODATA still exists
        assert not nxdomain(query).exists
        assert not servfail(query).exists
        assert not timeout(query).exists

    def test_is_positive_needs_records(self):
        query = Query("a.com", RRType.A)
        assert not noerror(query, ()).is_positive
        record = ResourceRecord("a.com", RRType.A, "192.0.2.1")
        assert noerror(query, (record,)).is_positive

    def test_cached_copy_flags(self):
        query = Query("a.com", RRType.A)
        record = ResourceRecord("a.com", RRType.A, "192.0.2.1")
        cached = noerror(query, (record,)).cached_copy(served_at=5)
        assert cached.from_cache and not cached.authoritative
        assert cached.served_at == 5


class TestResolverCache:
    def _response(self, ttl=300):
        query = Query("a.com", RRType.A)
        return noerror(query, (ResourceRecord("a.com", RRType.A,
                                              "192.0.2.1", ttl),))

    def test_hit_within_ttl(self):
        cache = ResolverCache(max_ttl=60)
        cache.put(self._response(), now=0)
        hit = cache.get(Query("a.com", RRType.A), now=59)
        assert hit is not None and hit.from_cache

    def test_expires_at_capped_ttl(self):
        """Unbound's cache-max-ttl=60 (paper §3): a 300s record still
        expires after 60s."""
        cache = ResolverCache(max_ttl=60)
        cache.put(self._response(ttl=300), now=0)
        assert cache.get(Query("a.com", RRType.A), now=60) is None

    def test_respects_shorter_record_ttl(self):
        cache = ResolverCache(max_ttl=60)
        cache.put(self._response(ttl=10), now=0)
        assert cache.get(Query("a.com", RRType.A), now=11) is None

    def test_negative_caching(self):
        cache = ResolverCache(max_ttl=60)
        cache.put(nxdomain(Query("gone.com", RRType.A)), now=0)
        hit = cache.get(Query("gone.com", RRType.A), now=30)
        assert hit is not None and hit.rcode is RCode.NXDOMAIN

    def test_zero_ttl_not_cached(self):
        cache = ResolverCache(max_ttl=0)
        cache.put(self._response(), now=0)
        assert cache.get(Query("a.com", RRType.A), now=0) is None

    def test_lru_eviction(self):
        cache = ResolverCache(max_ttl=60, max_entries=2)
        for name in ("a.com", "b.com", "c.com"):
            query = Query(name, RRType.A)
            cache.put(noerror(query, (ResourceRecord(name, RRType.A,
                                                     "192.0.2.1"),)), now=0)
        assert len(cache) == 2
        assert cache.get(Query("a.com", RRType.A), now=1) is None
        assert cache.stats.evictions == 1

    def test_stats(self):
        cache = ResolverCache(max_ttl=60)
        cache.get(Query("a.com", RRType.A), now=0)
        cache.put(self._response(), now=0)
        cache.get(Query("a.com", RRType.A), now=1)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert 0 < cache.stats.hit_rate < 1

    def test_expire_sweep(self):
        cache = ResolverCache(max_ttl=60)
        cache.put(self._response(), now=0)
        assert cache.expire(now=100) == 1
        assert len(cache) == 0


def _delegation_oracle(domain, ts):
    if domain == "alive.com" or (domain == "flaky.com" and ts < 100):
        return ["ns1.h.net", "ns2.h.net"]
    return None


class TestTLDAuthority:
    def test_answers_ns_for_delegated(self):
        auth = TLDAuthority("com", _delegation_oracle)
        response = auth.lookup(Query("alive.com", RRType.NS), ts=0)
        assert response.exists
        assert response.rdatas() == frozenset({"ns1.h.net", "ns2.h.net"})

    def test_nxdomain_after_removal(self):
        auth = TLDAuthority("com", _delegation_oracle)
        assert auth.lookup(Query("flaky.com", RRType.NS), 99).exists
        assert auth.lookup(Query("flaky.com", RRType.NS), 100).rcode is RCode.NXDOMAIN

    def test_refuses_foreign_zone(self):
        auth = TLDAuthority("com", _delegation_oracle)
        assert auth.lookup(Query("x.net", RRType.NS), 0).rcode is RCode.REFUSED

    def test_subdomain_resolves_registrable(self):
        auth = TLDAuthority("com", _delegation_oracle)
        response = auth.lookup(Query("www.alive.com", RRType.NS), 0)
        assert response.exists

    def test_soa_serial(self):
        auth = TLDAuthority("com", _delegation_oracle,
                            serial_oracle=lambda ts: 42)
        response = auth.lookup(Query("com", RRType.SOA), 0)
        assert "42" in response.records[0].rdata

    def test_counts_queries(self):
        auth = TLDAuthority("com", _delegation_oracle)
        auth.lookup(Query("alive.com", RRType.NS), 0)
        assert auth.queries_served == 1


class TestHostingAuthority:
    def test_answers_records(self):
        auth = HostingAuthority(
            record_oracle=lambda d, qt, ts: ("192.0.2.7",))
        response = auth.lookup(Query("a.com", RRType.A), 0)
        assert response.rdatas() == frozenset({"192.0.2.7"})

    def test_lame_times_out(self):
        auth = HostingAuthority(
            record_oracle=lambda d, qt, ts: ("192.0.2.7",),
            lameness_oracle=lambda d, ts: True)
        assert auth.lookup(Query("a.com", RRType.A), 0).rcode is RCode.TIMEOUT

    def test_unhosted_servfails(self):
        auth = HostingAuthority(record_oracle=lambda d, qt, ts: None)
        assert auth.lookup(Query("a.com", RRType.A), 0).rcode is RCode.SERVFAIL


class TestCachingResolver:
    def _resolver(self):
        resolver = CachingResolver(max_cache_ttl=60)
        resolver.register_tld_authority("com", TLDAuthority("com", _delegation_oracle))
        resolver.set_hosting_authority(HostingAuthority(
            record_oracle=lambda d, qt, ts: ("192.0.2.9",) if d == "alive.com" else None))
        return resolver

    def test_a_resolution_through_delegation(self):
        resolver = self._resolver()
        response = resolver.resolve_at(Query("alive.com", RRType.A), 0)
        assert response.rdatas() == frozenset({"192.0.2.9"})

    def test_a_for_removed_domain_is_nxdomain(self):
        resolver = self._resolver()
        response = resolver.resolve_at(Query("gone.com", RRType.A), 0)
        assert response.rcode is RCode.NXDOMAIN

    def test_cache_round_trip(self):
        resolver = self._resolver()
        resolver.resolve_at(Query("alive.com", RRType.A), 0)
        response = resolver.resolve_at(Query("alive.com", RRType.A), 30)
        assert response.from_cache
        assert resolver.stats.cache_hits == 1

    def test_cache_expiry_after_cap(self):
        resolver = self._resolver()
        resolver.resolve_at(Query("alive.com", RRType.A), 0)
        response = resolver.resolve_at(Query("alive.com", RRType.A), 600)
        assert not response.from_cache

    def test_unroutable_servfails(self):
        resolver = self._resolver()
        assert resolver.resolve_at(Query("x.net", RRType.A), 0).rcode is RCode.SERVFAIL

    def test_direct_authority_bypasses_cache(self):
        """The paper's NS liveness path: straight to the TLD authority."""
        resolver = self._resolver()
        first = resolver.query_authority_direct(Query("flaky.com", RRType.NS), 0)
        assert first.exists
        second = resolver.query_authority_direct(Query("flaky.com", RRType.NS), 150)
        assert second.rcode is RCode.NXDOMAIN  # a cache would have lied

    def test_lame_delegation_not_mistaken_for_deletion(self):
        """A/AAAA fail for a lame domain, but NS-direct still proves the
        delegation exists — §3 step 3's motivation."""
        resolver = CachingResolver()
        resolver.register_tld_authority(
            "com", TLDAuthority("com", lambda d, ts: ["ns1.h.net"]))
        resolver.set_hosting_authority(HostingAuthority(
            record_oracle=lambda d, qt, ts: ("192.0.2.1",),
            lameness_oracle=lambda d, ts: True))
        a_response = resolver.resolve_at(Query("lame.com", RRType.A), 0)
        ns_response = resolver.query_authority_direct(Query("lame.com", RRType.NS), 0)
        assert not a_response.is_positive
        assert ns_response.exists


class TestResolverPool:
    def test_sixteen_workers(self):
        assert len(ResolverPool()) == 16

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ResolverPool(size=0)

    def test_domain_pinning_is_stable(self):
        pool = ResolverPool(size=4)
        first = pool.resolver_for("example.com")
        assert all(pool.resolver_for("example.com") is first for _ in range(5))

    def test_static_authority(self):
        auth = StaticAuthority()
        auth.add("a.com", RRType.A, ["192.0.2.3"])
        assert auth.lookup(Query("a.com", RRType.A), 0).is_positive
        assert auth.lookup(Query("b.com", RRType.A), 0).rcode is RCode.NXDOMAIN
