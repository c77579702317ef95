"""Test doubles for the DNS substrate: a broken PSL and a fixed-answer
authority.  Tests import them with ``from doubles import ...``."""

from __future__ import annotations

from typing import Iterable

from repro.dnscore import name as dnsname
from repro.dnscore.message import Query, RCode, Response, noerror
from repro.dnscore.psl import BUILTIN_RULES, PublicSuffixList
from repro.dnscore.records import RRType, ResourceRecord


class BuggyPublicSuffixList(PublicSuffixList):
    """A PSL with deliberately missing multi-label rules.

    The paper attributes part of Figure 1's long tail to *incorrect SLD
    extraction using the PSL*.  This variant drops every multi-label
    rule, so names under e.g. ``co.uk`` are truncated to ``co.uk``'s
    last two labels — the classic failure mode.
    """

    def __init__(self, rules: Iterable[str] = BUILTIN_RULES) -> None:
        single_label = [r for r in rules if "." not in r and not r.startswith(("!", "*"))]
        super().__init__(single_label)


class StaticAuthority:
    """A fixed-answer authority backend."""

    def __init__(self) -> None:
        self._answers: dict = {}
        self.default_rcode = RCode.NXDOMAIN

    def add(self, qname: str, qtype: RRType, rdatas: Iterable[str],
            ttl: int = 300) -> None:
        key = (dnsname.normalize(qname), qtype)
        self._answers[key] = tuple(
            ResourceRecord(qname, qtype, rdata, ttl) for rdata in rdatas)

    def lookup(self, query: Query, ts: int) -> Response:
        records = self._answers.get((query.qname, query.qtype))
        if records is None:
            return Response(query=query, rcode=self.default_rcode, served_at=ts)
        return noerror(query, records, served_at=ts)
