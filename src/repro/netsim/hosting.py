"""Hosting and DNS-provider landscape.

Tables 4 and 5 of the paper attribute transient domains to DNS hosting
providers (by nameserver SLD) and web hosting providers (by A-record
origin ASN).  This module models that landscape: each
:class:`Provider` owns nameserver hostnames under a characteristic SLD
and announces address space under its ASN.  Domain-to-provider
assignment happens in the workload models; everything here is the
static infrastructure those choices draw from.

ASNs and nameserver SLDs are the real-world ones reported in the paper
(e.g. Cloudflare AS13335 / ``cloudflare.com``, Hostinger parking
``dns-parking.com`` / AS47583), so the reproduced tables read exactly
like the originals.  Address prefixes are documentation/example ranges,
deterministically carved per provider.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.netsim.addr import AddressPool
from repro.netsim.asdb import ASDatabase, build_from_providers
from repro.simtime.rng import WeightedSampler, stable_bucket, stable_hash01


@lru_cache(maxsize=None)
def _pool_for(prefixes: Tuple[str, ...]) -> AddressPool:
    """One parsed :class:`AddressPool` per distinct prefix tuple.

    Providers are immutable and few; parsing their pools once (instead
    of on every ``address_for`` call) removes the dominant cost of
    executing a registration plan.
    """
    return AddressPool.parse(list(prefixes))


@dataclass(frozen=True)
class Provider:
    """One infrastructure provider (DNS hosting and/or web hosting)."""

    name: str
    asn: int
    ns_sld: str
    web_prefixes: Tuple[str, ...]
    ns_host_count: int = 4
    is_parking: bool = False
    ns_style: str = "numbered"  # "numbered" → ns1.x; "named" → word.ns.x

    _NAMED_POOL = ("ada", "bob", "coco", "dana", "ella", "finn", "gina", "hugo")

    def nameservers_for(self, domain: str) -> Tuple[str, ...]:
        """The two NS hostnames this provider assigns to ``domain``.

        Cloudflare-style providers hand out per-customer name pairs from
        a pool; classic providers hand out ns1/ns2.
        """
        if self.ns_style == "named":
            first = stable_bucket(domain, len(self._NAMED_POOL), salt=self.name)
            second = (first + 1 + stable_bucket(domain, len(self._NAMED_POOL) - 1,
                                                salt=self.name + "2")) % len(self._NAMED_POOL)
            return (f"{self._NAMED_POOL[first]}.ns.{self.ns_sld}",
                    f"{self._NAMED_POOL[second]}.ns.{self.ns_sld}")
        base = stable_bucket(domain, max(1, self.ns_host_count - 1), salt=self.name)
        return (f"ns{base + 1}.{self.ns_sld}", f"ns{base + 2}.{self.ns_sld}")

    def web_pool(self) -> AddressPool:
        return _pool_for(self.web_prefixes)

    def address_for(self, domain: str) -> str:
        """Deterministic A-record address for a hosted domain."""
        return self.web_pool().address_for(domain, salt=self.name)

    def ipv6_for(self, domain: str) -> str:
        """Deterministic AAAA address derived from the provider ASN."""
        suffix = int(stable_hash01(domain, self.name + "v6") * 2 ** 32)
        return f"2001:db8:{self.asn & 0xffff:x}:{(self.asn >> 16) & 0xffff:x}::{suffix & 0xffff:x}"


def _slice24(base_octet2: int, count: int) -> Tuple[str, ...]:
    """Carve ``count`` /24s out of 198.18.0.0/15 (benchmark range)."""
    return tuple(f"198.18.{base_octet2 + i}.0/24" for i in range(count))


#: The named providers of Tables 3-5, with paper-reported ASNs and NS SLDs.
CLOUDFLARE = Provider(
    name="Cloudflare", asn=13335, ns_sld="cloudflare.com",
    web_prefixes=_slice24(0, 8), ns_style="named")
HOSTINGER = Provider(
    name="Hostinger", asn=47583, ns_sld="dns-parking.com",
    web_prefixes=_slice24(8, 4), is_parking=True)
NS1 = Provider(
    name="NS1", asn=62597, ns_sld="nsone.net",
    web_prefixes=_slice24(12, 1))
SQUARESPACE = Provider(
    name="Squarespace", asn=53831, ns_sld="squarespacedns.com",
    web_prefixes=_slice24(13, 2))
GODADDY = Provider(
    name="GoDaddy", asn=26496, ns_sld="domaincontrol.com",
    web_prefixes=_slice24(15, 3))
AMAZON = Provider(
    name="Amazon", asn=16509, ns_sld="awsdns.com",
    web_prefixes=_slice24(18, 6))
NAMECHEAP = Provider(
    name="Namecheap", asn=22612, ns_sld="registrar-servers.com",
    web_prefixes=_slice24(24, 2), is_parking=True)
IONOS = Provider(
    name="IONOS", asn=8560, ns_sld="ui-dns.com",
    web_prefixes=_slice24(26, 2))
GOOGLE = Provider(
    name="Google", asn=15169, ns_sld="googledomains.com",
    web_prefixes=_slice24(28, 2))
OVH = Provider(
    name="OVH", asn=16276, ns_sld="ovh.net",
    web_prefixes=_slice24(30, 2))
HETZNER = Provider(
    name="Hetzner", asn=24940, ns_sld="your-server.de",
    web_prefixes=_slice24(32, 2))
DIGITALOCEAN = Provider(
    name="DigitalOcean", asn=14061, ns_sld="digitalocean.com",
    web_prefixes=_slice24(34, 2))
WIX = Provider(
    name="Wix", asn=58182, ns_sld="wixdns.net",
    web_prefixes=_slice24(36, 1))
ALIBABA = Provider(
    name="Alibaba", asn=45102, ns_sld="hichina.com",
    web_prefixes=_slice24(37, 2))
NETWORK_SOLUTIONS = Provider(
    name="Network Solutions", asn=19871, ns_sld="worldnic.com",
    web_prefixes=_slice24(39, 1))

ALL_PROVIDERS: Tuple[Provider, ...] = (
    CLOUDFLARE, HOSTINGER, NS1, SQUARESPACE, GODADDY, AMAZON, NAMECHEAP,
    IONOS, GOOGLE, OVH, HETZNER, DIGITALOCEAN, WIX, ALIBABA,
    NETWORK_SOLUTIONS,
)

_BY_NS_SLD: Dict[str, Provider] = {p.ns_sld: p for p in ALL_PROVIDERS}


def provider_for_ns_sld(ns_sld: str) -> Optional[Provider]:
    """Reverse lookup used when rebuilding Table 4 from observations."""
    return _BY_NS_SLD.get(ns_sld)


def default_asdb() -> ASDatabase:
    """ASN database announcing every provider's web prefixes."""
    return build_from_providers(ALL_PROVIDERS)


@dataclass(frozen=True)
class ProviderMix:
    """A weighted distribution over providers.

    Actor profiles (legitimate registrants, bulk-malicious campaigns)
    each carry two mixes: one for DNS hosting, one for web hosting.
    """

    weights: Tuple[Tuple[Provider, float], ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ConfigError("empty provider mix")
        total = sum(w for _, w in self.weights)
        if total <= 0:
            raise ConfigError("provider mix weights must sum to > 0")
        # Not a dataclass field: the sampler is a derived cache, so it
        # stays out of __eq__/__hash__ and survives the frozen contract.
        object.__setattr__(self, "_sampler", WeightedSampler.from_pairs(self.weights))

    @classmethod
    def of(cls, *pairs: Tuple[Provider, float]) -> "ProviderMix":
        return cls(weights=tuple(pairs))

    def pick(self, rng) -> Provider:
        return self._sampler.pick(rng)

    def providers(self) -> List[Provider]:
        return [p for p, _ in self.weights]


#: DNS-hosting mix of *transient* (mostly malicious) domains — Table 4:
#: Cloudflare 49.5 %, Hostinger 8.7 %, NS1 6.9 %, Squarespace 6.9 %,
#: GoDaddy 5.5 %, long tail 22.5 %.
TRANSIENT_DNS_MIX = ProviderMix.of(
    (CLOUDFLARE, 0.495), (HOSTINGER, 0.087), (NS1, 0.069),
    (SQUARESPACE, 0.069), (GODADDY, 0.055),
    (NAMECHEAP, 0.055), (IONOS, 0.045), (GOOGLE, 0.04),
    (AMAZON, 0.035), (OVH, 0.020), (WIX, 0.015), (ALIBABA, 0.015),
)

#: Web-hosting mix of transient domains — Table 5: Cloudflare 36.2 %,
#: Hostinger 14.0 %, Amazon 7.6 %, Squarespace 5.3 %, Namecheap 3.9 %.
TRANSIENT_WEB_MIX = ProviderMix.of(
    (CLOUDFLARE, 0.362), (HOSTINGER, 0.140), (AMAZON, 0.076),
    (SQUARESPACE, 0.053), (NAMECHEAP, 0.039),
    (GODADDY, 0.07), (IONOS, 0.05), (GOOGLE, 0.05), (OVH, 0.04),
    (HETZNER, 0.04), (DIGITALOCEAN, 0.04), (WIX, 0.02), (ALIBABA, 0.02),
)

#: Mixes for ordinary (non-transient) registrations: less Cloudflare-
#: centric, more registrar-default parking.
LEGIT_DNS_MIX = ProviderMix.of(
    (CLOUDFLARE, 0.25), (GODADDY, 0.18), (NAMECHEAP, 0.12),
    (HOSTINGER, 0.08), (SQUARESPACE, 0.07), (IONOS, 0.06),
    (GOOGLE, 0.06), (AMAZON, 0.05), (OVH, 0.04), (WIX, 0.04),
    (NS1, 0.02), (HETZNER, 0.02), (NETWORK_SOLUTIONS, 0.01),
)

LEGIT_WEB_MIX = ProviderMix.of(
    (CLOUDFLARE, 0.22), (AMAZON, 0.15), (GODADDY, 0.12),
    (HOSTINGER, 0.09), (SQUARESPACE, 0.08), (GOOGLE, 0.07),
    (IONOS, 0.06), (OVH, 0.05), (HETZNER, 0.05), (DIGITALOCEAN, 0.05),
    (NAMECHEAP, 0.03), (WIX, 0.02), (ALIBABA, 0.01),
)
