"""Tests for addresses, ASN lookup, and the provider landscape."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.netsim.addr import (
    AddressPool,
    Prefix,
    format_ipv4,
    format_ipv6,
    parse_ipv4,
    parse_ipv6,
)
from repro.netsim.asdb import ASDatabase, build_from_providers
from repro.netsim.hosting import (
    ALL_PROVIDERS,
    AMAZON,
    CLOUDFLARE,
    HOSTINGER,
    LEGIT_DNS_MIX,
    TRANSIENT_DNS_MIX,
    TRANSIENT_WEB_MIX,
    default_asdb,
    provider_for_ns_sld,
)
from repro.simtime.rng import RngStream


class TestIPv4:
    def test_roundtrip(self):
        assert format_ipv4(parse_ipv4("192.0.2.33")) == "192.0.2.33"

    @pytest.mark.parametrize("bad", ["1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_ipv4(bad)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100)
    def test_roundtrip_property(self, value):
        assert parse_ipv4(format_ipv4(value)) == value


class TestIPv6:
    def test_roundtrip_full(self):
        text = "2001:db8:0:0:0:0:0:1"
        assert format_ipv6(parse_ipv6(text)) == "2001:db8:0:0:0:0:0:1"

    def test_compressed(self):
        assert parse_ipv6("2001:db8::1") == parse_ipv6("2001:db8:0:0:0:0:0:1")

    def test_rejects_double_compression_overflow(self):
        with pytest.raises(ConfigError):
            parse_ipv6("1:2:3:4:5:6:7:8:9")

    def test_rejects_bad_group(self):
        with pytest.raises(ConfigError):
            parse_ipv6("2001:zzzz::1")


class TestPrefix:
    def test_parse(self):
        prefix = Prefix.parse("198.18.0.0/24")
        assert prefix.length == 24 and prefix.family == 4
        assert prefix.size == 256

    def test_contains(self):
        prefix = Prefix.parse("198.18.5.0/24")
        assert prefix.contains_text("198.18.5.200")
        assert not prefix.contains_text("198.18.6.1")
        assert not prefix.contains_text("2001:db8::1")

    def test_rejects_host_bits(self):
        with pytest.raises(ConfigError):
            Prefix.parse("198.18.5.1/24")

    def test_rejects_missing_length(self):
        with pytest.raises(ConfigError):
            Prefix.parse("198.18.5.0")

    def test_address_at(self):
        prefix = Prefix.parse("198.18.5.0/24")
        assert prefix.format(prefix.address_at(7)) == "198.18.5.7"
        with pytest.raises(ConfigError):
            prefix.address_at(256)

    def test_str(self):
        assert str(Prefix.parse("198.18.0.0/15")) == "198.18.0.0/15"


class TestAddressPool:
    def test_deterministic_assignment(self):
        pool = AddressPool.parse(["198.18.0.0/24", "198.18.1.0/24"])
        addr = pool.address_for("example.com")
        assert addr == pool.address_for("example.com")
        assert addr in pool

    def test_rejects_mixed_families(self):
        with pytest.raises(ConfigError):
            AddressPool.parse(["198.18.0.0/24", "2001:db8::/64"])

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            AddressPool([])

    def test_spreads_across_prefixes(self):
        pool = AddressPool.parse(["198.18.0.0/24", "198.18.1.0/24"])
        seen = {pool.address_for(f"d{i}.com").rsplit(".", 2)[1]
                for i in range(200)}
        assert seen == {"0", "1"}


class TestASDatabase:
    def test_longest_prefix_wins(self):
        db = ASDatabase()
        db.announce(64500, "Big", "198.18.0.0/15")
        db.announce(64501, "Small", "198.18.5.0/24")
        assert db.asn_of("198.18.5.7") == 64501
        assert db.asn_of("198.18.6.7") == 64500

    def test_miss_returns_none(self):
        assert ASDatabase().lookup("203.0.113.1") is None

    def test_rejects_bad_asn(self):
        db = ASDatabase()
        with pytest.raises(ConfigError):
            db.announce(0, "X", "198.18.0.0/24")

    def test_build_from_providers(self):
        db = build_from_providers([CLOUDFLARE, HOSTINGER])
        addr = CLOUDFLARE.address_for("example.com")
        assert db.asn_of(addr) == CLOUDFLARE.asn


class TestProviders:
    def test_paper_asns(self):
        assert CLOUDFLARE.asn == 13335
        assert HOSTINGER.asn == 47583
        assert AMAZON.asn == 16509

    def test_paper_ns_slds(self):
        assert CLOUDFLARE.ns_sld == "cloudflare.com"
        assert HOSTINGER.ns_sld == "dns-parking.com"
        assert provider_for_ns_sld("nsone.net").name == "NS1"
        assert provider_for_ns_sld("unknown.example") is None

    def test_cloudflare_named_ns_style(self):
        hosts = CLOUDFLARE.nameservers_for("example.com")
        assert len(hosts) == 2
        assert all(h.endswith(".ns.cloudflare.com") for h in hosts)
        assert hosts[0] != hosts[1]

    def test_classic_numbered_ns_style(self):
        hosts = HOSTINGER.nameservers_for("example.com")
        assert all(h.endswith(".dns-parking.com") for h in hosts)
        assert hosts[0].startswith("ns")

    def test_nameservers_deterministic(self):
        assert (CLOUDFLARE.nameservers_for("a.com")
                == CLOUDFLARE.nameservers_for("a.com"))

    def test_address_within_own_prefixes(self):
        for provider in ALL_PROVIDERS:
            addr = provider.address_for("probe.example")
            assert default_asdb().asn_of(addr) == provider.asn

    def test_ipv6_derivation(self):
        addr = CLOUDFLARE.ipv6_for("example.com")
        assert addr.startswith("2001:db8:")


class TestProviderMix:
    def test_pick_respects_weights(self):
        rng = RngStream(3, "mix")
        picks = [TRANSIENT_DNS_MIX.pick(rng).name for _ in range(4000)]
        cloudflare_share = picks.count("Cloudflare") / len(picks)
        assert 0.44 < cloudflare_share < 0.55  # Table 4: 49.5 %

    def test_transient_web_mix_matches_table5(self):
        rng = RngStream(3, "mix5")
        picks = [TRANSIENT_WEB_MIX.pick(rng).name for _ in range(4000)]
        assert 0.31 < picks.count("Cloudflare") / len(picks) < 0.42

    def test_legit_mix_less_cloudflare_heavy(self):
        rng = RngStream(3, "mixl")
        picks = [LEGIT_DNS_MIX.pick(rng).name for _ in range(4000)]
        assert picks.count("Cloudflare") / len(picks) < 0.35


class TestAddressPoolFastPath:
    """The cumulative-size bisect must match the original linear walk."""

    @staticmethod
    def _linear_reference(pool, key, salt=""):
        from repro.simtime.rng import stable_hash01
        offset = int(stable_hash01(key, salt or "addrpool") * pool._total)
        for prefix in pool.prefixes:
            if offset < prefix.size:
                return prefix.format(prefix.address_at(offset))
            offset -= prefix.size
        last = pool.prefixes[-1]
        return last.format(last.address_at(last.size - 1))

    def test_bisect_matches_linear_walk_v4(self):
        pool = AddressPool.parse([
            "198.18.0.0/24", "198.18.5.0/26", "203.0.113.0/28",
            "192.0.2.0/25",
        ])
        for i in range(500):
            key = f"domain{i}.example"
            assert pool.address_for(key) == self._linear_reference(pool, key)
            assert (pool.address_for(key, salt="s2")
                    == self._linear_reference(pool, key, salt="s2"))

    def test_bisect_matches_linear_walk_v6(self):
        pool = AddressPool.parse(["2001:db8::/64", "2001:db8:1::/80"])
        for i in range(200):
            key = f"v6domain{i}.example"
            assert pool.address_for(key) == self._linear_reference(pool, key)

    def test_single_prefix_pool(self):
        pool = AddressPool.parse(["198.18.0.0/30"])
        seen = {pool.address_for(f"k{i}") for i in range(64)}
        assert seen <= {"198.18.0.0", "198.18.0.1", "198.18.0.2",
                        "198.18.0.3"}

    def test_provider_pools_are_memoized(self):
        from repro.netsim.hosting import CLOUDFLARE
        assert CLOUDFLARE.web_pool() is CLOUDFLARE.web_pool()

    def test_provider_addresses_stay_in_pool(self):
        from repro.netsim.hosting import ALL_PROVIDERS
        for provider in ALL_PROVIDERS:
            address = provider.address_for("stable-domain.com")
            assert address in provider.web_pool()
