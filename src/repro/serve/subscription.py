"""Client subscriptions: filters compiled to fast predicates.

Each feed client subscribes with a :class:`FilterSpec` — which TLDs,
which sources, an optional domain glob, and an optional
since-timestamp.  Matching every record against every subscriber's
filter is the fan-out hot path, so the manager does three things the
naive loop does not:

* specs are **compiled once** into closures over frozen sets (no
  per-record attribute chasing or regex recompilation); domain globs
  become a single compiled :mod:`re` pattern;
* subscriptions are **indexed by TLD**: a record for ``.xyz`` is only
  tested against subscribers that asked for ``.xyz`` (plus the
  wildcard subscribers), which keeps matching cost proportional to the
  interested audience rather than the whole client population;
* the TLD and source constraints depend only on ``(record.tld,
  record.source)``, so the candidates that pass them are **memoised
  per pair**.  Only the glob and ``since`` constraints, which depend on
  the domain and the timestamp, run per record.  Any subscribe or
  unsubscribe clears the memo.
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Tuple)

from repro.core.feed import FeedRecord
from repro.errors import ServeError, UnknownClientError

Predicate = Callable[[FeedRecord], bool]

#: Default client tiers (the rate limiter's DEFAULT_TIERS, see
#: ratelimit.py); a manager may be built with a custom tier set.
TIERS = ("free", "standard", "premium")


@dataclass(frozen=True)
class FilterSpec:
    """What a client wants from the feed.

    Empty/None fields mean "no constraint".  ``domain_glob`` uses shell
    wildcards (``*shop*``, ``pay-*``); ``since`` drops records observed
    before the given simulation timestamp.
    """

    tlds: FrozenSet[str] = frozenset()
    sources: FrozenSet[str] = frozenset()
    domain_glob: Optional[str] = None
    since: Optional[int] = None

    @classmethod
    def parse(cls, text: str) -> "FilterSpec":
        """Parse a CLI-style spec: ``tld=com,xyz;glob=*shop*;since=0``.

        Fields are ``;``-separated ``key=value`` pairs; ``tld`` and
        ``source`` take ``,``-separated lists.  An empty string means
        match-everything.
        """
        tlds: FrozenSet[str] = frozenset()
        sources: FrozenSet[str] = frozenset()
        glob: Optional[str] = None
        since: Optional[int] = None
        for part in filter(None, (p.strip() for p in text.split(";"))):
            if "=" not in part:
                raise ServeError(f"bad filter field {part!r} (want key=value)")
            key, value = (s.strip() for s in part.split("=", 1))
            if key in ("tld", "tlds"):
                tlds = frozenset(t.strip().lstrip(".").lower()
                                 for t in value.split(",") if t.strip())
            elif key in ("source", "sources"):
                sources = frozenset(s.strip().lower()
                                    for s in value.split(",") if s.strip())
            elif key == "glob":
                glob = value
            elif key == "since":
                try:
                    since = int(value)
                except ValueError:
                    raise ServeError(
                        f"since= wants an integer timestamp, "
                        f"got {value!r}") from None
            else:
                raise ServeError(f"unknown filter field {key!r}")
        return cls(tlds=tlds, sources=sources, domain_glob=glob, since=since)

    def admits(self, tld: str, source: str) -> bool:
        """Whether the TLD and source constraints accept the pair."""
        return ((not self.tlds or tld in self.tlds)
                and (not self.sources or source in self.sources))

    def compile_residual(self) -> Optional[Predicate]:
        """The per-record part of the filter: glob and ``since``.

        None when the spec has neither, i.e. when :meth:`admits` alone
        decides.
        """
        checks: List[Predicate] = []
        if self.domain_glob:
            pattern = re.compile(fnmatch.translate(self.domain_glob))
            checks.append(lambda r: pattern.match(r.domain) is not None)
        if self.since is not None:
            since = self.since
            checks.append(lambda r: r.seen_at >= since)
        if not checks:
            return None
        if len(checks) == 1:
            return checks[0]
        return lambda r: all(check(r) for check in checks)

    def compile(self) -> Predicate:
        """The whole filter as one predicate.

        Constraints that are absent contribute no per-record work; a
        fully empty spec compiles to a constant-True function.
        """
        residual = self.compile_residual()
        if not (self.tlds or self.sources):
            return residual if residual is not None else (lambda r: True)
        admits = self.admits
        if residual is None:
            return lambda r: admits(r.tld, r.source)
        return lambda r: admits(r.tld, r.source) and residual(r)


@dataclass
class Subscription:
    """One registered client: identity, tier, compiled filter."""

    client_id: str
    spec: FilterSpec
    tier: str = "standard"
    predicate: Predicate = field(init=False, repr=False)
    #: The glob/``since`` part of the filter (None: static-only).
    residual: Optional[Predicate] = field(init=False, repr=False)
    subscribed_at: int = 0

    def __post_init__(self) -> None:
        self.predicate = self.spec.compile()
        self.residual = self.spec.compile_residual()

    def matches(self, record: FeedRecord) -> bool:
        return self.predicate(record)


class SubscriptionManager:
    """Registry of active subscriptions with a TLD routing index.

    ``allowed_tiers`` defaults to the rate limiter's standard three;
    a server configured with custom tier policies passes its own set.
    """

    def __init__(self,
                 allowed_tiers: Optional[Iterable[str]] = None) -> None:
        self._allowed_tiers = frozenset(
            TIERS if allowed_tiers is None else allowed_tiers)
        self._subs: Dict[str, Subscription] = {}
        #: tld -> client ids constrained to that tld.
        self._by_tld: Dict[str, List[str]] = {}
        #: client ids with no TLD constraint (match every tld).
        self._wildcard: List[str] = []
        #: (tld, source) -> (subscriptions whose TLD and source
        #: constraints admit the pair, in match order; whether any of
        #: them has a residual predicate).
        self._memo: Dict[Tuple[str, str],
                         Tuple[List[Subscription], bool]] = {}

    def __len__(self) -> int:
        return len(self._subs)

    def __contains__(self, client_id: str) -> bool:
        return client_id in self._subs

    def client_ids(self) -> List[str]:
        return sorted(self._subs)

    def subscribe(self, client_id: str, spec: FilterSpec,
                  tier: str = "standard", now: int = 0) -> Subscription:
        if tier not in self._allowed_tiers:
            raise ServeError(f"unknown tier {tier!r} (choose from "
                             f"{tuple(sorted(self._allowed_tiers))})")
        if client_id in self._subs:
            raise ServeError(f"client {client_id!r} already subscribed")
        sub = Subscription(client_id=client_id, spec=spec, tier=tier,
                           subscribed_at=now)
        self._subs[client_id] = sub
        self._memo.clear()
        if spec.tlds:
            for tld in spec.tlds:
                self._by_tld.setdefault(tld, []).append(client_id)
        else:
            self._wildcard.append(client_id)
        return sub

    def unsubscribe(self, client_id: str) -> Subscription:
        sub = self._subs.pop(client_id, None)
        if sub is None:
            raise UnknownClientError(f"no subscription for {client_id!r}")
        self._memo.clear()
        if sub.spec.tlds:
            for tld in sub.spec.tlds:
                ids = self._by_tld.get(tld, [])
                if client_id in ids:
                    ids.remove(client_id)
                if not ids:
                    self._by_tld.pop(tld, None)
        elif client_id in self._wildcard:
            self._wildcard.remove(client_id)
        return sub

    def get(self, client_id: str) -> Subscription:
        try:
            return self._subs[client_id]
        except KeyError:
            raise UnknownClientError(
                f"no subscription for {client_id!r}") from None

    def match(self, record: FeedRecord) -> List[Subscription]:
        """All subscriptions whose filter accepts the record.

        Only TLD-indexed candidates plus wildcard subscribers are
        considered; result order is deterministic (candidate
        registration order) so deliveries are reproducible.
        """
        key = (record.tld, record.source)
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = self._admitted(*key)
        subs, any_residual = entry
        if not any_residual:
            return list(subs)
        return [sub for sub in subs
                if sub.residual is None or sub.residual(record)]

    def _admitted(self, tld: str,
                  source: str) -> Tuple[List[Subscription], bool]:
        """The memo entry of one (tld, source) pair."""
        subs = [self._subs[client_id]
                for client_id in (*self._by_tld.get(tld, ()),
                                  *self._wildcard)]
        subs = [sub for sub in subs if sub.spec.admits(tld, source)]
        return subs, any(sub.residual is not None for sub in subs)

    def tiers(self) -> Dict[str, str]:
        """client id -> tier, for the rate limiter."""
        return {cid: sub.tier for cid, sub in self._subs.items()}
