"""Tests for RDAP servers and the never-retry client."""

import pytest

from repro.errors import RDAPNotFound, RDAPRateLimited, RDAPServerError
from repro.registry.policy import gtld
from repro.registry.rdap import (
    RDAPClient,
    RDAPFailure,
    RDAPServer,
    TokenBucket,
)
from repro.registry.registry import Registry, RegistryGroup
from repro.simtime.clock import DAY, HOUR, MINUTE


@pytest.fixture
def registry():
    reg = Registry(gtld("com", MINUTE, rdap_server_error_prob=0.0))
    reg.register("alive.com", 10_000, "GoDaddy",
                 ns_hosts=["ns1.h.net"], rdap_sync_lag=180)
    lc = reg.register("dead.com", 10_000, "NameCheap",
                      ns_hosts=["ns1.h.net"], rdap_sync_lag=180)
    reg.schedule_removal("dead.com", 10_000 + 2 * HOUR)
    reg.register("held.com", 5_000, "Tucows", ns_hosts=["ns1.h.net"],
                 held=True, rdap_sync_lag=180)
    return reg


@pytest.fixture
def server(registry):
    return RDAPServer(registry, flaky_prob=0.0)


class TestRDAPServer:
    def test_success_fields(self, server):
        record = server.query("alive.com", 20_000)
        assert record.created_at == 10_000
        assert record.registrar == "GoDaddy"
        assert record.registrar_iana_id == 146
        assert record.statuses == ("active",)
        assert record.created_iso.startswith("1970-01-01T02:46:40")

    def test_unknown_domain_404(self, server):
        with pytest.raises(RDAPNotFound):
            server.query("ghost.com", 20_000)

    def test_too_early_404(self, server):
        """Cause (ii): RDAP not yet in sync just after registration."""
        with pytest.raises(RDAPNotFound):
            server.query("alive.com", 10_000 + 60)
        assert server.query("alive.com", 10_000 + 180) is not None

    def test_too_late_404(self, server):
        """Cause (i): the object is gone once the registrar deletes."""
        assert server.query("dead.com", 10_000 + HOUR) is not None
        with pytest.raises(RDAPNotFound):
            server.query("dead.com", 10_000 + 3 * HOUR)

    def test_held_domain_reports_server_hold(self, server):
        record = server.query("held.com", 20_000)
        assert record.statuses == ("serverHold",)

    def test_handle_is_domain_dash_tld(self, server):
        # Derived on read from the domain, in the registry's text form.
        assert server.query("alive.com", 20_000).handle == "ALIVE.COM-COM"
        assert server.query("held.com", 20_000).handle == "HELD.COM-COM"

    def test_flaky_failures_deterministic(self, registry):
        flaky = RDAPServer(registry, flaky_prob=1.0)
        with pytest.raises(RDAPServerError):
            flaky.query("alive.com", 20_000)

    def test_failure_counter(self, server):
        with pytest.raises(RDAPNotFound):
            server.query("ghost.com", 20_000)
        assert server.failures == 1
        assert server.queries == 1

    def test_rate_limit(self, registry):
        limited = Registry(gtld("net", MINUTE, rdap_rate_limit_per_hour=3600,
                                rdap_server_error_prob=0.0))
        limited.register("x.net", 0, "GoDaddy", ns_hosts=["ns1.h.net"],
                         rdap_sync_lag=0)
        server = RDAPServer(limited, flaky_prob=0.0)
        # Burst capacity is rate/60 = 60 tokens; the 61st instant query
        # must be limited.
        for _ in range(60):
            server.query("x.net", 10_000)
        with pytest.raises(RDAPRateLimited):
            server.query("x.net", 10_000)


class TestTokenBucket:
    def test_burst_then_block(self):
        bucket = TokenBucket(3600, burst=2)
        assert bucket.try_acquire(0)
        assert bucket.try_acquire(0)
        assert not bucket.try_acquire(0)

    def test_refill(self):
        bucket = TokenBucket(3600, burst=1)  # 1 token/second
        assert bucket.try_acquire(0)
        assert not bucket.try_acquire(0)
        assert bucket.try_acquire(2)


class TestRDAPClient:
    def _client(self, registry):
        return RDAPClient(RegistryGroup([registry]))

    def test_fetch_success(self, registry):
        client = self._client(registry)
        result = client.fetch("alive.com", 20_000)
        assert result.ok and result.record.registrar == "GoDaddy"

    def test_fetch_not_found(self, registry):
        client = self._client(registry)
        result = client.fetch("ghost.com", 20_000)
        assert not result.ok and result.failure is RDAPFailure.NOT_FOUND

    def test_no_server_for_unknown_tld(self, registry):
        client = self._client(registry)
        result = client.fetch("a.unknowneverywhere", 20_000)
        assert result.failure is RDAPFailure.NO_SERVER

    def test_ip_cycling(self, registry):
        client = self._client(registry)
        ips = [client._next_ip() for _ in range(8)]
        assert ips[:4] == list(RDAPClient.DEFAULT_IPS)
        assert ips[4:] == list(RDAPClient.DEFAULT_IPS)

    def test_failure_rate_tracking(self, registry):
        client = self._client(registry)
        client.fetch("alive.com", 20_000)
        client.fetch("ghost.com", 20_000)
        assert client.failure_rate == 0.5

    def test_results_accumulate(self, registry):
        client = self._client(registry)
        client.fetch("alive.com", 20_000)
        client.fetch("alive.com", 21_000)
        assert len(client.results) == 2

    def test_requires_worker_ip(self, registry):
        from repro.errors import RDAPError
        with pytest.raises(RDAPError):
            RDAPClient(RegistryGroup([registry]), worker_ips=())
