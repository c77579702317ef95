"""TTL-bounded resolver cache.

Models Unbound's behaviour as configured in the paper: answers are
cached for ``min(record TTL, cache-max-ttl)`` with the cap set to 60
seconds so that 10-minute probes never observe answers staler than a
minute (§3 step 3).  Negative answers (NXDOMAIN) are cached too, capped
by the same limit — which is what makes the cap necessary in the first
place.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.dnscore.message import Query, Response


@dataclass
class CacheStats:
    """Hit/miss counters, exposed for tests and the ops-style examples."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResolverCache:
    """An LRU + TTL cache of DNS responses keyed by (qname, qtype)."""

    DEFAULT_NEGATIVE_TTL = 900  # typical SOA-minimum derived negative TTL

    def __init__(self, max_ttl: int = 60, max_entries: int = 100_000,
                 negative_ttl: Optional[int] = None) -> None:
        if max_ttl < 0:
            raise ValueError("max_ttl must be non-negative")
        self.max_ttl = max_ttl
        self.max_entries = max_entries
        self.negative_ttl = (negative_ttl if negative_ttl is not None
                             else self.DEFAULT_NEGATIVE_TTL)
        self._entries: "OrderedDict[Tuple[str, str], Tuple[int, Response]]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def _effective_ttl(self, response: Response) -> int:
        ttl = response.min_ttl()
        if ttl is None:  # negative or empty answer
            ttl = self.negative_ttl
        return min(ttl, self.max_ttl)

    def get(self, query: Query, now: int) -> Optional[Response]:
        """Return a cached answer valid at ``now``, or None."""
        key = query.key
        found = self._entries.get(key)
        if found is None:
            self.stats.misses += 1
            return None
        expires_at, response = found
        if now >= expires_at:
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return response.cached_copy(served_at=now)

    def put(self, response: Response, now: int) -> None:
        """Insert an answer; zero effective TTL answers are not cached."""
        ttl = self._effective_ttl(response)
        if ttl <= 0:
            return
        key = response.query.key
        self._entries[key] = (now + ttl, response)
        self._entries.move_to_end(key)
        self.stats.insertions += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def flush(self) -> None:
        self._entries.clear()

    def expire(self, now: int) -> int:
        """Drop all entries expired at ``now``; returns the count dropped."""
        stale = [k for k, (exp, _) in self._entries.items() if now >= exp]
        for key in stale:
            del self._entries[key]
        self.stats.expirations += len(stale)
        return len(stale)
