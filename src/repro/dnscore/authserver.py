"""Authoritative DNS serving over pluggable backends.

Two kinds of authority matter to the paper's monitor:

* **TLD authorities** answer NS queries for delegated domains — the
  monitor queries them *directly* to decide whether a domain is still in
  the zone, sidestepping lame-delegation artefacts (§3 step 3).
* **Hosting authorities** (the domain's own nameservers) answer A/AAAA
  for the domain; they may be lame, slow, or gone while the delegation
  still exists.

Backends expose a time-indexed lookup so that the analytic monitor can
ask "what would this server have said at time t" without an event loop.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Protocol, Tuple

from repro.dnscore import name as dnsname
from repro.dnscore.interned import intern_name
from repro.dnscore.message import Query, RCode, Response, noerror, nxdomain, servfail, timeout
from repro.dnscore.records import RRType, ResourceRecord


def _registrable_guess(qname: str):
    """Last two labels of ``qname``, interned.

    Query names are normalised at construction, so this is an identity
    lookup plus (for subdomain queries) one slice and one intern of an
    already-known name — downstream oracle lookups
    (``Registry.delegation_at`` etc.) then re-normalise by identity.
    """
    name = intern_name(qname)
    last = str.rfind(name, ".")
    cut = str.rfind(name, ".", 0, last) if last > 0 else -1
    if cut < 0:
        return name
    return intern_name(str.__getitem__(name, slice(cut + 1, None)))


class AuthorityBackend(Protocol):
    """Time-indexed source of authoritative answers."""

    def lookup(self, query: Query, ts: int) -> Response:
        """Authoritative answer to ``query`` as of simulation time ``ts``."""
        ...


class TLDAuthority:
    """Authoritative server for one TLD zone, backed by a state oracle.

    ``delegation_oracle(domain, ts)`` returns the NS hostnames delegated
    for ``domain`` at ``ts`` or None when the domain is not in the zone.
    The oracle is typically :meth:`repro.registry.Registry.delegation_at`,
    so answers reflect the registry's zone-update cadence (a domain
    registered between ticks is *not yet* visible).
    """

    def __init__(self, tld: str,
                 delegation_oracle: Callable[[str, int], Optional[Iterable[str]]],
                 serial_oracle: Optional[Callable[[int], int]] = None,
                 ns_ttl: int = 3600,
                 delegation_window_oracle: Optional[Callable] = None) -> None:
        self.tld = dnsname.normalize(tld)
        self._oracle = delegation_oracle
        self._serial_oracle = serial_oracle
        self.ns_ttl = ns_ttl
        self.queries_served = 0
        #: ``(domain, ts) -> (delegation, valid-until)`` when the zone
        #: backend can bound an answer's validity (registries can: the
        #: lifecycle timelines know their own change points).  Enables
        #: the :meth:`ns_liveness` serve-from-window fast path.
        self._window_oracle = delegation_window_oracle
        #: qname -> [registrable, delegation value, response, valid_until];
        #: the unchanged-answer dedup behind :meth:`ns_liveness`.
        self._ns_memo: dict = {}

    def lookup(self, query: Query, ts: int) -> Response:
        self.queries_served += 1
        qname = query.qname
        if dnsname.tld_of(qname) != self.tld:
            return Response(query=query, rcode=RCode.REFUSED, served_at=ts)
        if qname == self.tld and query.qtype is RRType.SOA:
            serial = self._serial_oracle(ts) if self._serial_oracle else 0
            record = ResourceRecord(
                self.tld, RRType.SOA,
                f"a.nic.{self.tld}. hostmaster.nic.{self.tld}. {serial} "
                f"7200 900 1209600 300")
            return noerror(query, (record,), served_at=ts)
        registrable = _registrable_guess(qname)
        hosts = self._oracle(registrable, ts)
        if hosts is None:
            return nxdomain(query, served_at=ts)
        if query.qtype is RRType.NS:
            records = tuple(
                ResourceRecord(registrable, RRType.NS, host, self.ns_ttl)
                for host in sorted(hosts))
            return noerror(query, records, served_at=ts)
        # Non-NS queries to a TLD authority return the referral; we model
        # it as NOERROR with the delegation in the answer for simplicity.
        records = tuple(
            ResourceRecord(registrable, RRType.NS, host, self.ns_ttl)
            for host in sorted(hosts))
        return Response(query=query, rcode=RCode.NOERROR, records=records,
                        authoritative=False, served_at=ts)

    def ns_liveness(self, query: Query, ts: int) -> Response:
        """NS answer with unchanged-answer dedup — the bulk-scan path.

        Identical rcode/records to :meth:`lookup`, but a probe grid
        re-asking the same question hundreds of times does not pay a
        zone lookup plus record construction for hundreds of identical
        answers:

        * with a window oracle, the backend reports how long the answer
          stays valid, and probes inside that window are served from
          the memo with one dict lookup — the authority is allowed to
          know its own zone's stability;
        * otherwise the delegation oracle runs every probe and only the
          wire response is reused while its value is unchanged.

        Nothing about *what is observed* changes.  A reused response
        carries the ``served_at`` of its first construction, which is
        why callers that need per-probe timestamps track them
        engine-side.
        """
        self.queries_served += 1
        qname = query.qname
        memo = self._ns_memo.get(qname)
        if memo is None:
            if dnsname.tld_of(qname) != self.tld:
                return Response(query=query, rcode=RCode.REFUSED, served_at=ts)
            registrable = _registrable_guess(qname)
            memo = [registrable, self, None, ts]  # self: matches nothing
            self._ns_memo[qname] = memo
        elif memo[3] is None or ts < memo[3]:
            return memo[2]
        if self._window_oracle is not None:
            hosts, valid_until = self._window_oracle(memo[0], ts)
        else:
            # No validity bound: re-ask the zone, reuse the response
            # while the answer is unchanged.
            hosts, valid_until = self._oracle(memo[0], ts), ts
            if hosts == memo[1]:
                memo[3] = ts + 1
                return memo[2]
        if hosts is None:
            response = nxdomain(query, served_at=ts)
        else:
            records = tuple(
                ResourceRecord(memo[0], RRType.NS, host, self.ns_ttl)
                for host in sorted(hosts))
            response = noerror(query, records, served_at=ts)
        memo[1] = hosts
        memo[2] = response
        memo[3] = valid_until
        return response


class HostingAuthority:
    """The domain-side nameserver answering A/AAAA/NS for hosted zones.

    ``record_oracle(domain, qtype, ts)`` returns the rdata strings in
    effect (empty tuple → NOERROR/NODATA; None → this server does not
    host the name at ``ts``).  ``lameness_oracle(domain, ts)`` (optional)
    returns True when the server should behave lame (timeout), which
    exercises the misclassification hazard the paper engineered around.
    """

    def __init__(self, record_oracle: Callable[[str, RRType, int], Optional[Tuple[str, ...]]],
                 lameness_oracle: Optional[Callable[[str, int], bool]] = None,
                 answer_ttl: int = 300) -> None:
        self._records = record_oracle
        self._lame = lameness_oracle
        self.answer_ttl = answer_ttl
        self.queries_served = 0

    def lookup(self, query: Query, ts: int) -> Response:
        self.queries_served += 1
        domain = _registrable_guess(query.qname)
        if self._lame is not None and self._lame(domain, ts):
            return timeout(query, served_at=ts)
        rdatas = self._records(domain, query.qtype, ts)
        if rdatas is None:
            return servfail(query, served_at=ts)
        records = tuple(
            ResourceRecord(query.qname, query.qtype, rdata, self.answer_ttl)
            for rdata in sorted(rdatas))
        return noerror(query, records, served_at=ts)
