"""DNS core substrate: names, records, zones, PSL, servers, resolvers."""

from repro.dnscore.interned import (
    Name,
    NameTable,
    configure_interner,
    intern_name,
)
from repro.dnscore.name import (
    ancestors,
    is_subdomain,
    is_valid,
    join,
    label_count,
    labels,
    normalize,
    parent,
    registrable_guess,
    strip_wildcard,
    tld_of,
)
from repro.dnscore.records import (
    MONITOR_QTYPES,
    RRSet,
    RRType,
    ResourceRecord,
    SOA,
    a_rrset,
    aaaa_rrset,
    ns_rrset,
    serial_add,
    serial_gt,
    soa_for_tld,
)
from repro.dnscore.zone import (
    Delegation,
    Zone,
    ZoneVersion,
    domains_added,
    domains_removed,
    nameserver_changes,
)
from repro.dnscore.zonediff import DiffSequence, ZoneDelta
from repro.dnscore.psl import (
    BUILTIN_RULES,
    PublicSuffixList,
    default_psl,
    registrable_domain,
)
from repro.dnscore.message import Query, RCode, Response, noerror, nxdomain, servfail, timeout
from repro.dnscore.cache import CacheStats, ResolverCache
from repro.dnscore.authserver import (
    AuthorityBackend,
    HostingAuthority,
    TLDAuthority,
)
from repro.dnscore.resolver import CachingResolver, ResolverPool, ResolverStats
from repro.errors import DomainNameError

__all__ = [
    "Name", "NameTable", "intern_name", "configure_interner",
    "normalize", "is_valid", "labels", "label_count", "parent", "tld_of",
    "is_subdomain", "strip_wildcard", "ancestors", "join", "registrable_guess",
    "RRType", "ResourceRecord", "RRSet", "SOA", "MONITOR_QTYPES",
    "a_rrset", "aaaa_rrset", "ns_rrset", "serial_add", "serial_gt", "soa_for_tld",
    "Zone", "ZoneVersion", "Delegation",
    "domains_added", "domains_removed", "nameserver_changes",
    "DiffSequence", "ZoneDelta",
    "PublicSuffixList", "BUILTIN_RULES",
    "default_psl", "registrable_domain",
    "Query", "Response", "RCode", "noerror", "nxdomain", "servfail", "timeout",
    "ResolverCache", "CacheStats",
    "AuthorityBackend", "TLDAuthority", "HostingAuthority",
    "CachingResolver", "ResolverPool", "ResolverStats",
    "DomainNameError",
]
