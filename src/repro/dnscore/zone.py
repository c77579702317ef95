"""TLD zones: delegations, SOA serial maintenance, and snapshots.

A :class:`Zone` models what a registry's provisioning system maintains
for one TLD: the set of *delegated* registrable domains, each with an NS
RRset (and optional glue-ish A/AAAA for completeness).  Each mutation
bumps the SOA serial, exactly the signal the paper probes to validate
per-TLD zone update cadence (§4.1).

A :class:`ZoneVersion` is an immutable snapshot — what a CZDS download
of that zone at an instant would contain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.dnscore import name as dnsname
from repro.dnscore.records import (
    RRSet,
    RRType,
    ResourceRecord,
    SOA,
    ns_rrset,
    soa_for_tld,
)
from repro.errors import ZoneError


@dataclass(frozen=True)
class Delegation:
    """One delegated domain inside a TLD zone."""

    domain: str
    nameservers: FrozenSet[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "domain", dnsname.normalize(self.domain))
        object.__setattr__(
            self, "nameservers",
            frozenset(dnsname.normalize(ns) for ns in self.nameservers))
        if not self.nameservers:
            raise ZoneError(f"delegation for {self.domain} has no nameservers")

    def to_rrset(self, ttl: int = 3600) -> RRSet:
        return ns_rrset(self.domain, self.nameservers, ttl)


@dataclass(frozen=True)
class ZoneVersion:
    """Immutable snapshot of a zone at a point in time."""

    tld: str
    serial: int
    taken_at: int
    delegations: Dict[str, Delegation]

    @property
    def domains(self) -> Set[str]:
        return set(self.delegations)

    def __contains__(self, domain: str) -> bool:
        return dnsname.normalize(domain) in self.delegations

    def __len__(self) -> int:
        return len(self.delegations)

    def nameservers_of(self, domain: str) -> Optional[FrozenSet[str]]:
        found = self.delegations.get(dnsname.normalize(domain))
        return found.nameservers if found else None

    def to_zonefile(self) -> str:
        """Render the snapshot as zone-file text (deterministic order)."""
        soa = soa_for_tld(self.tld, self.serial)
        lines = [soa.to_record(self.tld).to_text()]
        for domain in sorted(self.delegations):
            for record in self.delegations[domain].to_rrset():
                lines.append(record.to_text())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_zonefile(cls, tld: str, text: str, taken_at: int = 0) -> "ZoneVersion":
        """Parse zone-file text produced by :meth:`to_zonefile`."""
        serial = 0
        ns_by_domain: Dict[str, Set[str]] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith(";"):
                continue
            record = ResourceRecord.from_text(line)
            if record.rtype is RRType.SOA:
                serial = SOA.from_rdata(record.rdata).serial
            elif record.rtype is RRType.NS and record.owner != dnsname.normalize(tld):
                ns_by_domain.setdefault(record.owner, set()).add(record.rdata)
        delegations = {
            domain: Delegation(domain, frozenset(hosts))
            for domain, hosts in ns_by_domain.items()
        }
        return cls(tld=dnsname.normalize(tld), serial=serial,
                   taken_at=taken_at, delegations=delegations)


class Zone:
    """Mutable zone state for one TLD.

    Mutations (:meth:`add_delegation`, :meth:`remove_delegation`,
    :meth:`replace_nameservers`) are what the registry's provisioning
    pipeline applies at each zone-update tick; each bumps the SOA
    serial once per *batch* via :meth:`commit`, matching how registries
    publish one new serial per update run.
    """

    def __init__(self, tld: str, soa: Optional[SOA] = None) -> None:
        self.tld = dnsname.normalize(tld)
        if not self.tld or "." in self.tld:
            raise ZoneError(f"zone apex must be a TLD label: {tld!r}")
        self.soa = soa if soa is not None else soa_for_tld(self.tld)
        self._delegations: Dict[str, Delegation] = {}
        self._dirty = False
        self._mutations = 0

    # -- inspection -----------------------------------------------------------

    @property
    def serial(self) -> int:
        return self.soa.serial

    @property
    def size(self) -> int:
        return len(self._delegations)

    @property
    def mutations(self) -> int:
        """Total mutations applied over the zone's lifetime."""
        return self._mutations

    def __contains__(self, domain: str) -> bool:
        return dnsname.normalize(domain) in self._delegations

    def get(self, domain: str) -> Optional[Delegation]:
        return self._delegations.get(dnsname.normalize(domain))

    def domains(self) -> Iterator[str]:
        return iter(self._delegations)

    # -- mutation --------------------------------------------------------------

    def _require_in_zone(self, domain: str) -> str:
        norm = dnsname.normalize(domain)
        if norm not in self._delegations:
            raise ZoneError(f"{norm} is not delegated in .{self.tld}")
        return norm

    def _check_name(self, domain: str) -> str:
        norm = dnsname.normalize(domain)
        if dnsname.tld_of(norm) != self.tld:
            raise ZoneError(f"{norm} does not belong under .{self.tld}")
        if dnsname.label_count(norm) != 2:
            raise ZoneError(f"only registrable (2-label) names are delegated: {norm}")
        return norm

    def add_delegation(self, domain: str, nameservers: Iterable[str]) -> None:
        norm = self._check_name(domain)
        if norm in self._delegations:
            raise ZoneError(f"{norm} is already delegated")
        self._delegations[norm] = Delegation(norm, frozenset(nameservers))
        self._dirty = True
        self._mutations += 1

    def remove_delegation(self, domain: str) -> None:
        norm = self._require_in_zone(domain)
        del self._delegations[norm]
        self._dirty = True
        self._mutations += 1

    def replace_nameservers(self, domain: str, nameservers: Iterable[str]) -> None:
        norm = self._require_in_zone(domain)
        self._delegations[norm] = Delegation(norm, frozenset(nameservers))
        self._dirty = True
        self._mutations += 1

    def commit(self, increment: int = 1) -> int:
        """Publish pending mutations: bump the serial if anything changed.

        Returns the (possibly unchanged) serial.  Registries call this
        at each zone-update tick; probing the serial over time therefore
        reveals the update cadence, as the paper did.
        """
        if self._dirty:
            self.soa = self.soa.bump(increment)
            self._dirty = False
        return self.soa.serial

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self, taken_at: int) -> ZoneVersion:
        """An immutable copy of current zone contents."""
        return ZoneVersion(tld=self.tld, serial=self.serial, taken_at=taken_at,
                           delegations=dict(self._delegations))

    def apex_records(self, ttl: int = 3600) -> List[ResourceRecord]:
        """SOA + apex NS records (the registry's own nameservers)."""
        records = [self.soa.to_record(self.tld, ttl)]
        for i in range(2):
            records.append(ResourceRecord(
                self.tld, RRType.NS, f"{chr(ord('a') + i)}.nic.{self.tld}", ttl))
        return records


def domains_added(old: ZoneVersion, new: ZoneVersion) -> Set[str]:
    """Domains present in ``new`` but not ``old`` (zone-diff NRDs)."""
    return new.domains - old.domains


def domains_removed(old: ZoneVersion, new: ZoneVersion) -> Set[str]:
    return old.domains - new.domains


def nameserver_changes(old: ZoneVersion, new: ZoneVersion) -> Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]]:
    """Domains in both versions whose NS set changed: domain → (old, new)."""
    out: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
    for domain in old.domains & new.domains:
        before = old.delegations[domain].nameservers
        after = new.delegations[domain].nameservers
        if before != after:
            out[domain] = (before, after)
    return out
