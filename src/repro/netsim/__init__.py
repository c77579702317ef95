"""Network infrastructure substrate: addresses, ASNs, providers."""

from repro.netsim.addr import (
    AddressPool,
    Prefix,
    format_ipv4,
    format_ipv6,
    parse_ipv4,
    parse_ipv6,
)
from repro.netsim.asdb import ASDatabase, ASEntry, build_from_providers
from repro.netsim.hosting import (
    ALL_PROVIDERS,
    CLOUDFLARE,
    GODADDY,
    HOSTINGER,
    LEGIT_DNS_MIX,
    LEGIT_WEB_MIX,
    Provider,
    ProviderMix,
    TRANSIENT_DNS_MIX,
    TRANSIENT_WEB_MIX,
    default_asdb,
    provider_for_ns_sld,
)

__all__ = [
    "AddressPool", "Prefix",
    "parse_ipv4", "format_ipv4", "parse_ipv6", "format_ipv6",
    "ASDatabase", "ASEntry", "build_from_providers",
    "Provider", "ProviderMix", "ALL_PROVIDERS",
    "CLOUDFLARE", "HOSTINGER", "GODADDY",
    "TRANSIENT_DNS_MIX", "TRANSIENT_WEB_MIX",
    "LEGIT_DNS_MIX", "LEGIT_WEB_MIX",
    "default_asdb", "provider_for_ns_sld",
]
