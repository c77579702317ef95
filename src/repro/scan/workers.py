"""The probe fleet: workers, shared negative-answer dedup, dark hosts.

Each worker wraps one :class:`~repro.dnscore.resolver.CachingResolver`
(domains are pinned to workers by the same stable hash the paper's
16-worker deployment used, so repeated probes of a domain share state).
Two fleet-wide optimisations make bulk scanning cheap without changing
what is observed:

* **Negative-answer dedup** — within one probe instant the NS-liveness
  query runs first and goes straight to the TLD authority; if it says
  NXDOMAIN, the same instant's A/AAAA lookups *must* come back NXDOMAIN
  too (recursion starts from that same referral), so the fleet answers
  them from a shared one-instant cache instead of re-asking upstream.
* **Dark-host tracking** — hosting servers that time out probe after
  probe (lame delegations) burn retry budget for answers that never
  come.  The cache counts consecutive all-retries-exhausted instants
  per (domain, qtype) so the engine can stop asking once the streak
  passes its configured threshold.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.dnscore.message import Query, RCode, Response, nxdomain, servfail
from repro.dnscore.records import RRType
from repro.dnscore.resolver import CachingResolver
from repro.scan.metrics import ScanMetrics

#: Placeholder for "no authority routes this name" in the NS-path memo.
_UNROUTABLE = object()


class NegativeAnswerCache:
    """Fleet-shared NXDOMAIN dedup plus dark-host streak accounting."""

    def __init__(self) -> None:
        #: domain -> instant at which the TLD authority said NXDOMAIN.
        self._nxdomain_at: Dict[str, int] = {}
        #: (domain, qtype) -> consecutive exhausted-retry probe instants.
        self._dark_streaks: Dict[Tuple[str, RRType], int] = {}
        self.hits = 0

    def note_nxdomain(self, domain: str, ts: int) -> None:
        self._nxdomain_at[domain] = ts

    def covers(self, domain: str, ts: int) -> bool:
        """Is an authority NXDOMAIN for this exact instant on record?"""
        return self._nxdomain_at.get(domain) == ts

    def note_dark(self, domain: str, qtype: RRType) -> int:
        streak = self._dark_streaks.get((domain, qtype), 0) + 1
        self._dark_streaks[(domain, qtype)] = streak
        return streak

    def note_answered(self, domain: str, qtype: RRType) -> None:
        self._dark_streaks.pop((domain, qtype), None)


class ProbeWorker:
    """One fleet member: a resolver plus the shared caches.

    Query objects are memoised per (domain, qtype) — the grid asks the
    same question hundreds of times and name normalisation is pure
    overhead after the first.
    """

    def __init__(self, index: int, resolver: CachingResolver,
                 negcache: NegativeAnswerCache,
                 metrics: ScanMetrics) -> None:
        self.index = index
        self.resolver = resolver
        self.negcache = negcache
        self.metrics = metrics
        self._queries: Dict[Tuple[str, RRType], Query] = {}
        #: domain -> bound authority NS entrypoint (routing + the
        #: hasattr probe resolved once, not per grid instant).
        self._ns_paths: Dict[str, Callable[[Query, int], Response]] = {}
        # NS-path ResolverStats deltas, batched: one method call per
        # probe becomes three plain increments, flushed on demand.
        self._ns_queries = 0
        self._ns_nxdomains = 0
        self._ns_servfails = 0

    def query_for(self, domain: str, qtype: RRType) -> Query:
        key = (domain, qtype)
        query = self._queries.get(key)
        if query is None:
            query = Query(domain, qtype)
            self._queries[key] = query
        return query

    def probe(self, domain: str, qtype: RRType, ts: int) -> Response:
        """Send (or dedup) one probe; returns the observed response.

        NS goes straight at the TLD authority — the paper's liveness
        path.  A/AAAA first consult the fleet's negative cache for this
        instant, then recurse; caching is skipped because the 60 s TTL
        cap can never survive a 10-minute probe interval anyway.
        """
        query = self.query_for(domain, qtype)
        if qtype is RRType.NS:
            path = self._ns_paths.get(domain)
            if path is None:
                backend = self.resolver.authority_for(domain)
                if backend is None:
                    path = _UNROUTABLE
                else:
                    # Authorities that support unchanged-answer dedup
                    # (TLDAuthority.ns_liveness) answer the grid's
                    # repeated question without rebuilding the wire
                    # response; anything else gets the plain lookup.
                    path = getattr(backend, "ns_liveness", backend.lookup)
                self._ns_paths[domain] = path
            self._ns_queries += 1
            if path is _UNROUTABLE:
                self._ns_servfails += 1
                return servfail(query, served_at=ts)
            response = path(query, ts)
            if response.rcode is RCode.NXDOMAIN:
                self._ns_nxdomains += 1
                # covers() matches the exact probe instant, so a stale
                # mark can never cover a later instant — no need to
                # clear it again on NOERROR.
                self.negcache.note_nxdomain(domain, ts)
            return response
        if self.negcache.covers(domain, ts):
            self.negcache.hits += 1
            self.metrics.negcache_hits.inc()
            return nxdomain(query, served_at=ts)
        return self.resolver.resolve_at(query, ts, use_cache=False)

    def flush_stats(self) -> None:
        """Apply the batched NS-path deltas to the resolver's stats."""
        stats = self.resolver.stats
        stats.queries += self._ns_queries
        stats.upstream_queries += self._ns_queries
        stats.nxdomains += self._ns_nxdomains
        stats.servfails += self._ns_servfails
        self._ns_queries = self._ns_nxdomains = self._ns_servfails = 0
