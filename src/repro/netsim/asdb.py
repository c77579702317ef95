"""ASN database: longest-prefix-match attribution of addresses to ASNs.

Table 5 of the paper attributes the web hosting of transient domains to
ASNs by looking up the A records' origin AS.  This module provides that
lookup: a radix-style longest-prefix-match table from prefixes to
(ASN, organisation) built from the hosting-provider models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigError
from repro.netsim.addr import Prefix, parse_ipv4, parse_ipv6


@dataclass(frozen=True)
class ASEntry:
    """One origin-AS announcement."""

    asn: int
    org: str
    prefix: Prefix

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ConfigError(f"bad ASN: {self.asn}")


class ASDatabase:
    """Longest-prefix-match lookup from IP text to origin AS.

    Implemented as per-family dicts keyed by (prefix length, network),
    probed from the longest registered length downwards — O(#lengths)
    per lookup, no third-party radix needed at simulation scale.
    """

    def __init__(self) -> None:
        self._tables: Dict[int, Dict[int, Dict[int, ASEntry]]] = {4: {}, 6: {}}
        self._lengths: Dict[int, List[int]] = {4: [], 6: []}
        self.entries: List[ASEntry] = []

    def announce(self, asn: int, org: str, prefix_text: str) -> ASEntry:
        """Register an announcement; overlapping prefixes are fine
        (longest match wins, as in BGP best-path attribution)."""
        prefix = Prefix.parse(prefix_text)
        entry = ASEntry(asn=asn, org=org, prefix=prefix)
        table = self._tables[prefix.family].setdefault(prefix.length, {})
        host_bits = prefix.bits - prefix.length
        table[prefix.network >> host_bits] = entry
        lengths = self._lengths[prefix.family]
        if prefix.length not in lengths:
            lengths.append(prefix.length)
            lengths.sort(reverse=True)
        self.entries.append(entry)
        return entry

    def lookup(self, address_text: str) -> Optional[ASEntry]:
        family = 6 if ":" in address_text else 4
        addr = parse_ipv6(address_text) if family == 6 else parse_ipv4(address_text)
        bits = 128 if family == 6 else 32
        for length in self._lengths[family]:
            key = addr >> (bits - length)
            entry = self._tables[family].get(length, {}).get(key)
            if entry is not None:
                return entry
        return None

    def asn_of(self, address_text: str) -> Optional[int]:
        entry = self.lookup(address_text)
        return entry.asn if entry else None

    def __len__(self) -> int:
        return len(self.entries)


def build_from_providers(providers: Iterable) -> ASDatabase:
    """Build an :class:`ASDatabase` from hosting provider models.

    Each provider exposes ``asn``, ``name`` and ``web_prefixes``
    (see :mod:`repro.netsim.hosting`).
    """
    db = ASDatabase()
    for provider in providers:
        for prefix_text in provider.web_prefixes:
            db.announce(provider.asn, provider.name, prefix_text)
    return db
