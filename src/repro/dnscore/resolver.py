"""Caching resolver — the Unbound stand-in behind the monitor workers.

The paper runs sixteen measurement workers, each behind a caching
resolver whose maximum cache TTL is forced down to 60 seconds so
repeated 10-minute probes observe near-live state.  NS liveness queries
bypass recursion entirely and go straight to the TLD authority.

:class:`CachingResolver` reproduces that split:

* :meth:`resolve` — cache-fronted lookup through a routing table of
  authoritative backends (TLD authorities for NS, hosting authorities
  for A/AAAA);
* :meth:`resolve_at` — the time-indexed variant used by the analytic
  monitor, identical semantics with an explicit timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.dnscore import name as dnsname
from repro.dnscore.authserver import AuthorityBackend
from repro.dnscore.cache import ResolverCache
from repro.dnscore.message import Query, RCode, Response, servfail
from repro.dnscore.records import RRType
from repro.errors import DNSError
from repro.simtime.rng import stable_bucket


@dataclass
class ResolverStats:
    queries: int = 0
    cache_hits: int = 0
    upstream_queries: int = 0
    servfails: int = 0
    nxdomains: int = 0

    def observe(self, response: Response) -> None:
        self.queries += 1
        if response.from_cache:
            self.cache_hits += 1
        else:
            self.upstream_queries += 1
        if response.rcode is RCode.SERVFAIL or response.rcode is RCode.TIMEOUT:
            self.servfails += 1
        elif response.rcode is RCode.NXDOMAIN:
            self.nxdomains += 1

    def merge(self, other: "ResolverStats") -> "ResolverStats":
        """Accumulate another worker's counters into this snapshot."""
        self.queries += other.queries
        self.cache_hits += other.cache_hits
        self.upstream_queries += other.upstream_queries
        self.servfails += other.servfails
        self.nxdomains += other.nxdomains
        return self

    def snapshot(self) -> Dict[str, int]:
        """JSON-ready view (what metrics endpoints publish)."""
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "upstream_queries": self.upstream_queries,
            "servfails": self.servfails,
            "nxdomains": self.nxdomains,
        }


class CachingResolver:
    """A caching resolver with per-TLD authority routing.

    Parameters
    ----------
    max_cache_ttl:
        Cap on cached-answer lifetime; the paper configures 60 s.
    """

    def __init__(self, max_cache_ttl: int = 60,
                 cache_entries: int = 100_000) -> None:
        self.cache = ResolverCache(max_ttl=max_cache_ttl,
                                   max_entries=cache_entries)
        self._tld_authorities: Dict[str, AuthorityBackend] = {}
        self._hosting_authority: Optional[AuthorityBackend] = None
        self.stats = ResolverStats()
        #: Counters retired by reset_stats(); disjoint from live stats,
        #: so lifetime views count every query exactly once.
        self._retired = ResolverStats()

    # -- stats lifecycle -----------------------------------------------------------

    def reset_stats(self) -> ResolverStats:
        """Zero the live window, retiring it into the lifetime totals.

        Returns the window that was just closed.  The retired
        accumulator and the fresh live window are disjoint, so
        :meth:`lifetime_stats` never double-counts a query no matter
        how many resets happen between reads.
        """
        closed = self.stats
        self._retired.merge(closed)
        self.stats = ResolverStats()
        return closed

    def lifetime_stats(self) -> ResolverStats:
        """Retired + live counters: totals that survive reset_stats()."""
        return ResolverStats().merge(self._retired).merge(self.stats)

    # -- wiring ------------------------------------------------------------------

    def register_tld_authority(self, tld: str, backend: AuthorityBackend) -> None:
        self._tld_authorities[dnsname.normalize(tld)] = backend

    def set_hosting_authority(self, backend: AuthorityBackend) -> None:
        """Backend answering A/AAAA on behalf of domain nameservers."""
        self._hosting_authority = backend

    def authority_for(self, qname: str) -> Optional[AuthorityBackend]:
        try:
            tld = dnsname.tld_of(qname)
        except DNSError:
            return None
        return self._tld_authorities.get(tld)

    # -- resolution ----------------------------------------------------------------

    def resolve_at(self, query: Query, ts: int, use_cache: bool = True) -> Response:
        """Resolve ``query`` as of simulation time ``ts``.

        A/AAAA go to the hosting authority (recursion terminus); NS and
        SOA go to the TLD authority.  Unroutable queries SERVFAIL, as a
        real resolver with no root hints for the zone would.
        """
        if use_cache:
            cached = self.cache.get(query, ts)
            if cached is not None:
                self.stats.observe(cached)
                return cached
        response = self._query_upstream(query, ts)
        if use_cache and response.rcode in (RCode.NOERROR, RCode.NXDOMAIN):
            self.cache.put(response, ts)
        self.stats.observe(response)
        return response

    def _query_upstream(self, query: Query, ts: int) -> Response:
        if query.qtype in (RRType.A, RRType.AAAA):
            # Recursive path: delegation must exist, then hosting answers.
            tld_auth = self.authority_for(query.qname)
            if tld_auth is None:
                return servfail(query, served_at=ts)
            referral = tld_auth.lookup(Query(query.qname, RRType.NS), ts)
            if referral.rcode is RCode.NXDOMAIN:
                return Response(query=query, rcode=RCode.NXDOMAIN, served_at=ts,
                                authoritative=True)
            if referral.rcode is not RCode.NOERROR:
                return servfail(query, served_at=ts)
            if self._hosting_authority is None:
                return servfail(query, served_at=ts)
            return self._hosting_authority.lookup(query, ts)
        backend = self.authority_for(query.qname)
        if backend is None:
            return servfail(query, served_at=ts)
        return backend.lookup(query, ts)

    def query_authority_direct(self, query: Query, ts: int) -> Response:
        """Bypass cache *and* recursion: ask the TLD authority directly.

        This is the paper's NS-liveness path ("send queries directly to
        the domain's TLD authoritative nameserver", §3 step 3).
        """
        backend = self.authority_for(query.qname)
        if backend is None:
            return servfail(query, served_at=ts)
        response = backend.lookup(query, ts)
        self.stats.observe(response)
        return response


class ResolverPool:
    """Sixteen workers, sixteen resolvers — the paper's measurement fleet.

    Domains are pinned to a worker by stable hash so repeated probes of
    the same domain share a cache, as they would in the real deployment.
    """

    def __init__(self, size: int = 16, max_cache_ttl: int = 60) -> None:
        if size <= 0:
            raise ValueError("pool size must be positive")
        self.resolvers = [CachingResolver(max_cache_ttl=max_cache_ttl)
                          for _ in range(size)]

    def __len__(self) -> int:
        return len(self.resolvers)

    def register_tld_authority(self, tld: str, backend: AuthorityBackend) -> None:
        for resolver in self.resolvers:
            resolver.register_tld_authority(tld, backend)

    def set_hosting_authority(self, backend: AuthorityBackend) -> None:
        for resolver in self.resolvers:
            resolver.set_hosting_authority(backend)

    def worker_index_for(self, domain: str) -> int:
        return stable_bucket(domain, len(self.resolvers), "worker")

    def resolver_for(self, domain: str) -> CachingResolver:
        return self.resolvers[self.worker_index_for(domain)]

    def aggregate_stats(self, include_retired: bool = True) -> ResolverStats:
        """One :class:`ResolverStats` merged across every worker.

        Per-instance counters still live on each resolver; this is the
        fleet-level view operators (and the scan engine's metrics
        snapshot) actually want.  With ``include_retired`` (the
        default) the totals include windows closed by
        :meth:`reset_stats` — each query counted exactly once — so a
        mid-run reset cannot make fleet totals go backwards or
        double-count; pass ``False`` for the live window only.
        """
        total = ResolverStats()
        for resolver in self.resolvers:
            if include_retired:
                total.merge(resolver._retired)
            total.merge(resolver.stats)
        return total

    def reset_stats(self) -> ResolverStats:
        """Close every worker's live window; returns the merged window."""
        closed = ResolverStats()
        for resolver in self.resolvers:
            closed.merge(resolver.reset_stats())
        return closed

    def total_queries(self) -> int:
        return self.aggregate_stats().queries


class ResolverPoolMetrics:
    """A registry provider exposing one pool's fleet state.

    :meth:`snapshot` reads the pool when the registry is rendered, so
    nothing is pushed on the resolution hot path.  The scan engine
    registers one of these as the ``"scan.resolver"`` group.
    """

    def __init__(self, pool: "ResolverPool") -> None:
        self.pool = pool

    def snapshot(self) -> Dict[str, int]:
        snap: Dict[str, int] = {"pool_size": len(self.pool)}
        snap.update(self.pool.aggregate_stats().snapshot())
        return snap
