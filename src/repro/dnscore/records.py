"""Resource records: types, records, RRsets, and SOA serial arithmetic.

Only behaviourally relevant fields are modelled — owner name, type,
TTL, and rdata rendered as text — which is exactly what the paper's
pipeline consumes (it never touches wire format).  SOA serials follow
RFC 1982 serial-number arithmetic because the paper validates zone
update cadence by probing SOA serial changes (§4.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Tuple

from repro.dnscore import name as dnsname
from repro.errors import RecordError

_SERIAL_MOD = 2 ** 32
_SERIAL_HALF = 2 ** 31


class RRType(enum.Enum):
    """The record types the measurement pipeline issues or observes."""

    A = "A"
    AAAA = "AAAA"
    NS = "NS"
    SOA = "SOA"
    CNAME = "CNAME"
    MX = "MX"
    TXT = "TXT"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def parse(cls, text: str) -> "RRType":
        try:
            return cls(text.strip().upper())
        except ValueError:
            raise RecordError(f"unknown RR type: {text!r}") from None


#: Query types the paper's reactive monitor issues every 10 minutes (§3).
MONITOR_QTYPES: Tuple[RRType, ...] = (RRType.A, RRType.AAAA, RRType.NS)


@dataclass(frozen=True, order=True)
class ResourceRecord:
    """One resource record.

    ``rdata`` is the presentation-format right-hand side: an IPv4
    address for A, an IPv6 address for AAAA, a hostname for NS/CNAME/MX,
    arbitrary text for TXT.
    """

    owner: str
    rtype: RRType
    rdata: str
    ttl: int = 3600

    def __post_init__(self) -> None:
        object.__setattr__(self, "owner", dnsname.normalize(self.owner))
        if self.ttl < 0:
            raise RecordError(f"negative TTL: {self.ttl}")
        if not self.rdata:
            raise RecordError("empty rdata")
        if self.rtype in (RRType.NS, RRType.CNAME, RRType.MX):
            object.__setattr__(self, "rdata", dnsname.normalize(self.rdata))

    def to_text(self) -> str:
        """Zone-file presentation line."""
        return f"{self.owner}. {self.ttl} IN {self.rtype} {self.rdata}"

    @classmethod
    def from_text(cls, line: str) -> "ResourceRecord":
        """Parse a presentation line produced by :meth:`to_text`."""
        parts = line.split()
        if len(parts) < 5 or parts[2] != "IN":
            raise RecordError(f"unparseable record line: {line!r}")
        owner, ttl_text, _, rtype_text = parts[:4]
        rdata = " ".join(parts[4:])
        try:
            ttl = int(ttl_text)
        except ValueError:
            raise RecordError(f"bad TTL in: {line!r}") from None
        return cls(owner=owner.rstrip("."), rtype=RRType.parse(rtype_text),
                   rdata=rdata, ttl=ttl)


@dataclass(frozen=True)
class RRSet:
    """All records of one (owner, type) pair, order-insensitive."""

    owner: str
    rtype: RRType
    records: FrozenSet[ResourceRecord] = field(default_factory=frozenset)

    @classmethod
    def of(cls, records: Iterable[ResourceRecord]) -> "RRSet":
        recs = frozenset(records)
        if not recs:
            raise RecordError("empty RRSet")
        owners = {r.owner for r in recs}
        types = {r.rtype for r in recs}
        if len(owners) != 1 or len(types) != 1:
            raise RecordError("RRSet records must share owner and type")
        return cls(owner=next(iter(owners)), rtype=next(iter(types)), records=recs)

    @property
    def rdatas(self) -> FrozenSet[str]:
        return frozenset(r.rdata for r in self.records)

    @property
    def ttl(self) -> int:
        return min(r.ttl for r in self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(sorted(self.records))


def ns_rrset(owner: str, hostnames: Iterable[str], ttl: int = 3600) -> RRSet:
    """Build an NS RRset for ``owner`` pointing at ``hostnames``."""
    return RRSet.of(ResourceRecord(owner, RRType.NS, h, ttl) for h in hostnames)


def a_rrset(owner: str, addresses: Iterable[str], ttl: int = 300) -> RRSet:
    return RRSet.of(ResourceRecord(owner, RRType.A, a, ttl) for a in addresses)


def aaaa_rrset(owner: str, addresses: Iterable[str], ttl: int = 300) -> RRSet:
    return RRSet.of(ResourceRecord(owner, RRType.AAAA, a, ttl) for a in addresses)


# ---------------------------------------------------------------------------
# SOA
# ---------------------------------------------------------------------------

def serial_add(serial: int, increment: int) -> int:
    """RFC 1982 serial addition (mod 2^32, increment < 2^31)."""
    if not 0 <= increment < _SERIAL_HALF:
        raise RecordError(f"serial increment out of range: {increment}")
    return (serial + increment) % _SERIAL_MOD


def serial_gt(a: int, b: int) -> bool:
    """RFC 1982 'greater than' over the serial number circle."""
    if a == b:
        return False
    return ((a > b) and (a - b < _SERIAL_HALF)) or ((a < b) and (b - a > _SERIAL_HALF))


@dataclass(frozen=True)
class SOA:
    """Start-of-authority data for a zone apex."""

    mname: str
    rname: str
    serial: int
    refresh: int = 7200
    retry: int = 900
    expire: int = 1209600
    minimum: int = 300

    def __post_init__(self) -> None:
        if not 0 <= self.serial < _SERIAL_MOD:
            raise RecordError(f"SOA serial out of range: {self.serial}")

    def bump(self, increment: int = 1) -> "SOA":
        """Return a copy with the serial advanced per RFC 1982."""
        return SOA(self.mname, self.rname, serial_add(self.serial, increment),
                   self.refresh, self.retry, self.expire, self.minimum)

    def to_record(self, zone_apex: str, ttl: int = 3600) -> ResourceRecord:
        rdata = (f"{self.mname}. {self.rname}. {self.serial} "
                 f"{self.refresh} {self.retry} {self.expire} {self.minimum}")
        return ResourceRecord(zone_apex, RRType.SOA, rdata, ttl)

    @classmethod
    def from_rdata(cls, rdata: str) -> "SOA":
        parts = rdata.split()
        if len(parts) != 7:
            raise RecordError(f"bad SOA rdata: {rdata!r}")
        mname, rname = parts[0].rstrip("."), parts[1].rstrip(".")
        try:
            nums = [int(p) for p in parts[2:]]
        except ValueError:
            raise RecordError(f"bad SOA numbers: {rdata!r}") from None
        return cls(mname, rname, *nums)


def soa_for_tld(tld: str, serial: int = 1) -> SOA:
    """A conventional SOA for a simulated TLD registry."""
    return SOA(mname=f"a.nic.{dnsname.normalize(tld)}",
               rname=f"hostmaster.nic.{dnsname.normalize(tld)}",
               serial=serial)
