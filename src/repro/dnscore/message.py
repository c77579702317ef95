"""DNS query/response messages and response codes.

The measurement pipeline needs only the semantic layer: what was asked,
what came back, with which RCODE, and whether the answer was served
from cache (the paper caps resolver caching at 60 s to bound staleness).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.dnscore import name as dnsname
from repro.dnscore.records import RRType, ResourceRecord


class RCode(enum.Enum):
    """DNS response codes relevant to the monitor's classification."""

    NOERROR = 0
    SERVFAIL = 2
    NXDOMAIN = 3
    REFUSED = 5
    TIMEOUT = -1  # not a wire RCODE; models an unresponsive server

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Query:
    """One DNS question."""

    qname: str
    qtype: RRType

    def __post_init__(self) -> None:
        object.__setattr__(self, "qname", dnsname.normalize(self.qname))

    @property
    def key(self) -> Tuple[str, str]:
        return (self.qname, self.qtype.value)


@dataclass(frozen=True)
class Response:
    """One DNS answer as observed by a client.

    ``records`` carries the answer section; for NS referrals from a TLD
    authority the delegation NS set appears here as well, since the
    monitor treats "authority returned the delegation" as proof the
    domain is still in the zone.
    """

    query: Query
    rcode: RCode
    records: Tuple[ResourceRecord, ...] = ()
    authoritative: bool = False
    from_cache: bool = False
    served_at: int = 0

    @property
    def is_positive(self) -> bool:
        return self.rcode is RCode.NOERROR and bool(self.records)

    @property
    def exists(self) -> bool:
        """Does this response prove the name exists in the zone?

        NOERROR (even with an empty answer — e.g. no AAAA records) means
        the name exists; NXDOMAIN means it does not; SERVFAIL/TIMEOUT
        prove nothing, which is why the paper's monitor asks the TLD
        authority directly rather than trusting recursion (§3 step 3).
        """
        return self.rcode is RCode.NOERROR

    def rdatas(self) -> FrozenSet[str]:
        return frozenset(r.rdata for r in self.records)

    def min_ttl(self) -> Optional[int]:
        if not self.records:
            return None
        return min(r.ttl for r in self.records)

    def cached_copy(self, served_at: int) -> "Response":
        """The same answer replayed from a resolver cache."""
        return Response(query=self.query, rcode=self.rcode, records=self.records,
                        authoritative=False, from_cache=True, served_at=served_at)


def nxdomain(query: Query, served_at: int = 0, authoritative: bool = True) -> Response:
    return Response(query=query, rcode=RCode.NXDOMAIN, records=(),
                    authoritative=authoritative, served_at=served_at)


def servfail(query: Query, served_at: int = 0) -> Response:
    return Response(query=query, rcode=RCode.SERVFAIL, records=(), served_at=served_at)


def timeout(query: Query, served_at: int = 0) -> Response:
    return Response(query=query, rcode=RCode.TIMEOUT, records=(), served_at=served_at)


def noerror(query: Query, records: Tuple[ResourceRecord, ...],
            served_at: int = 0, authoritative: bool = True) -> Response:
    return Response(query=query, rcode=RCode.NOERROR, records=tuple(records),
                    authoritative=authoritative, served_at=served_at)
