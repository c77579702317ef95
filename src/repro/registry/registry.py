"""The TLD registry: registration system + zone provisioning.

One :class:`Registry` per TLD owns the ground-truth
:class:`~repro.registry.lifecycle.DomainLifecycle` records and derives
everything observable from them:

* the **zone state at any instant** (respecting the provisioning
  cadence — a registration only becomes visible at the next zone tick);
* the **SOA serial** (one bump per provisioning run that changed
  anything, which is what the paper probed to validate cadences);
* the **registration-system log**, i.e. the registry's own view used as
  ground truth in §4.4 (".nl saw 714 domains deleted in <24 h").
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.dnscore import name as dnsname
from repro.dnscore.authserver import HostingAuthority, TLDAuthority
from repro.dnscore.interned import Name, intern_name
from repro.dnscore.records import RRType
from repro.dnscore.resolver import ResolverPool
from repro.dnscore.zone import Delegation, ZoneVersion
from repro.errors import RegistrationError, UnknownDomainError
from repro.registry.lifecycle import DomainLifecycle, RemovalReason
from repro.registry.policy import TLDPolicy
from repro.simtime.timeline import EMPTY_TIMELINE, Timeline

#: Normalised NS sets memoised by the raw host tuple.  Providers hand
#: out nameserver pairs from small pools, so the same tuples recur for
#: millions of registrations; one bounded dict removes two name
#: normalisations and a frozenset build per registration.
_NS_SET_CACHE: Dict[Tuple[str, ...], FrozenSet[str]] = {}
_NS_SET_CACHE_MAX = 1 << 16


def _normalized_ns_set(ns_hosts: Iterable[str]) -> FrozenSet[str]:
    key = tuple(ns_hosts)
    cached = _NS_SET_CACHE.get(key)
    if cached is None:
        cached = frozenset(dnsname.normalize(h) for h in key)
        if len(_NS_SET_CACHE) >= _NS_SET_CACHE_MAX:
            _NS_SET_CACHE.clear()
        _NS_SET_CACHE[key] = cached
    return cached


class Registry:
    """Authoritative operator of one TLD."""

    def __init__(self, policy: TLDPolicy) -> None:
        self.policy = policy
        self.tld = policy.tld
        self._lifecycles: Dict[str, DomainLifecycle] = {}
        #: Zone tick indices at which at least one mutation applied;
        #: the SOA serial at time t is the count of such ticks <= t.
        #: Appended in mutation order, which may repeat or go back in
        #: time; :meth:`serial_at` sorts and de-duplicates on demand.
        self._dirty_ticks = array("q")
        self._ticks_sorted = True

    # -- registration ------------------------------------------------------------

    def register(self, domain: str, created_at: int, registrar: str,
                 ns_hosts: Iterable[str],
                 a_addrs: Iterable[str] = (),
                 aaaa_addrs: Iterable[str] = (),
                 dns_provider: str = "", web_provider: str = "",
                 is_malicious: bool = False, abuse_kind=None,
                 actor: str = "legit", campaign: Optional[str] = None,
                 held: bool = False, lame: bool = False,
                 rdap_sync_lag: Optional[int] = None) -> DomainLifecycle:
        """Create a registration; the delegation publishes at the next tick."""
        norm = domain if type(domain) is Name else intern_name(domain)
        if norm in self._lifecycles:
            raise RegistrationError(f"{norm} is already registered")
        if norm.tld != self.tld:
            raise RegistrationError(f"{norm} does not belong under .{self.tld}")
        zone_added_at = None if held else self.policy.next_zone_tick(created_at)
        # Timelines are built up front (single-change fast path); an
        # absent history is the shared empty, never a fresh one.
        ns_timeline = a_timeline = aaaa_timeline = EMPTY_TIMELINE
        if zone_added_at is not None:
            ns_timeline = Timeline.single(zone_added_at,
                                          _normalized_ns_set(ns_hosts))
            a_tuple = tuple(sorted(a_addrs))
            if a_tuple:
                a_timeline = Timeline.single(zone_added_at, a_tuple)
            aaaa_tuple = tuple(sorted(aaaa_addrs))
            if aaaa_tuple:
                aaaa_timeline = Timeline.single(zone_added_at, aaaa_tuple)
        lifecycle = DomainLifecycle(
            domain=norm, tld=self.tld, registrar=registrar,
            created_at=created_at, zone_added_at=zone_added_at,
            dns_provider=dns_provider, web_provider=web_provider,
            ns_timeline=ns_timeline, a_timeline=a_timeline,
            aaaa_timeline=aaaa_timeline,
            is_malicious=is_malicious, abuse_kind=abuse_kind, actor=actor,
            campaign=campaign, held=held, lame=lame,
            rdap_sync_lag=(rdap_sync_lag if rdap_sync_lag is not None
                           else self.policy.rdap_sync_lag_mean),
        )
        if zone_added_at is not None:
            self._mark_dirty(zone_added_at)
        self._lifecycles[norm] = lifecycle
        return lifecycle

    def register_many(self, rows: Iterable[Tuple],
                      dirty_ticks: Iterable[int] = ()) -> int:
        """Bulk-load fully resolved lifecycle rows (the parallel merge).

        Args:
            rows: iterables of plain values in :data:`LIFECYCLE_FIELDS`
                order, as produced by :func:`lifecycle_rows` in a worker
                process — every sampled decision (removal instants, NS
                changes, holds) already folded into final field values
                and timeline change lists.
            dirty_ticks: the producing registry's dirty zone-tick
                indices, merged wholesale so SOA serials match a serial
                build.

        Returns:
            Number of lifecycles materialized.

        This is the array side of the transactional API
        (:meth:`register` / :meth:`schedule_removal` /
        :meth:`change_nameservers` / :meth:`place_hold`): workers run
        the transactional methods against a private registry, ship the
        resulting rows (cheap to pickle — no lifecycle objects cross
        the process boundary), and the parent materializes
        :class:`DomainLifecycle` objects here exactly as a serial build
        would have left them, in the same insertion order.
        """
        lifecycles = self._lifecycles
        tld = self.tld
        count = 0
        for (domain, registrar, created_at, zone_added_at, removed_at,
             zone_removed_at, dns_provider, web_provider, is_malicious,
             abuse_kind, removal_reason, actor, campaign, held, lame,
             rdap_sync_lag, ns_changes, a_changes, aaaa_changes) in rows:
            norm = domain if type(domain) is Name else intern_name(domain)
            if norm in lifecycles:
                raise RegistrationError(f"{norm} is already registered")
            if norm.tld != tld:
                raise RegistrationError(f"{norm} does not belong under .{tld}")
            lifecycles[norm] = DomainLifecycle(
                domain=norm, tld=tld, registrar=registrar,
                created_at=created_at, zone_added_at=zone_added_at,
                removed_at=removed_at, zone_removed_at=zone_removed_at,
                dns_provider=dns_provider, web_provider=web_provider,
                ns_timeline=(Timeline.from_changes(
                    (ts, _normalized_ns_set(hosts)) for ts, hosts in ns_changes)
                    if ns_changes else EMPTY_TIMELINE),
                a_timeline=(Timeline.from_changes(a_changes) if a_changes
                            else EMPTY_TIMELINE),
                aaaa_timeline=(Timeline.from_changes(aaaa_changes)
                               if aaaa_changes else EMPTY_TIMELINE),
                is_malicious=is_malicious, abuse_kind=abuse_kind,
                removal_reason=removal_reason, actor=actor,
                campaign=campaign, held=held, lame=lame,
                rdap_sync_lag=rdap_sync_lag)
            count += 1
        if dirty_ticks:
            self._dirty_ticks.extend(dirty_ticks)
            self._ticks_sorted = False
        return count

    def schedule_removal(self, domain: str, removed_at: int,
                         reason: Optional[RemovalReason] = None) -> DomainLifecycle:
        """Registrar-initiated removal; the zone drops it at the next tick."""
        lifecycle = self.get(domain)
        if removed_at < lifecycle.created_at:
            raise RegistrationError(
                f"{lifecycle.domain}: removal precedes creation")
        lifecycle.removed_at = removed_at
        lifecycle.removal_reason = reason
        if lifecycle.zone_added_at is not None:
            zone_removed_at = self.policy.next_zone_tick(removed_at)
            # A domain removed before its first provisioning run never
            # reaches the zone at all.
            if zone_removed_at <= lifecycle.zone_added_at:
                lifecycle.zone_added_at = None
                lifecycle.zone_removed_at = None
                lifecycle.ns_timeline = EMPTY_TIMELINE
                lifecycle.a_timeline = EMPTY_TIMELINE
                lifecycle.aaaa_timeline = EMPTY_TIMELINE
            else:
                lifecycle.zone_removed_at = zone_removed_at
                self._mark_dirty(zone_removed_at)
        return lifecycle

    def place_hold(self, domain: str, hold_at: int) -> DomainLifecycle:
        """Put a registered domain on serverHold: the delegation leaves
        the zone at the next provisioning run but the registration
        object survives (RDAP keeps answering with the old creation
        date) — the §4.2 "misclassified as newly registered" mechanism.
        """
        lifecycle = self.get(domain)
        lifecycle.held = True
        if lifecycle.zone_added_at is not None:
            zone_removed_at = self.policy.next_zone_tick(hold_at)
            if zone_removed_at <= lifecycle.zone_added_at:
                lifecycle.zone_added_at = None
            else:
                lifecycle.zone_removed_at = zone_removed_at
                self._mark_dirty(zone_removed_at)
        return lifecycle

    def change_nameservers(self, domain: str, change_at: int,
                           ns_hosts: Iterable[str],
                           a_addrs: Iterable[str] = (),
                           dns_provider: Optional[str] = None) -> None:
        """Registrant changes NS; publishes at the next provisioning run."""
        lifecycle = self.get(domain)
        if lifecycle.zone_added_at is None:
            raise RegistrationError(f"{domain} is not delegated")
        effective = self.policy.next_zone_tick(change_at)
        # The shared empty history is never mutated in place.
        if lifecycle.ns_timeline is EMPTY_TIMELINE:
            lifecycle.ns_timeline = Timeline()
        lifecycle.ns_timeline.set(effective, _normalized_ns_set(ns_hosts))
        if a_addrs:
            if lifecycle.a_timeline is EMPTY_TIMELINE:
                lifecycle.a_timeline = Timeline()
            lifecycle.a_timeline.set(effective, tuple(sorted(a_addrs)))
        if dns_provider is not None:
            lifecycle.dns_provider = dns_provider
        self._mark_dirty(effective)

    # -- lookup -----------------------------------------------------------------

    def get(self, domain: str) -> DomainLifecycle:
        norm = domain if type(domain) is Name else intern_name(domain)
        found = self._lifecycles.get(norm)
        if found is None:
            raise UnknownDomainError(f"{norm} is not registered in .{self.tld}")
        return found

    def find(self, domain: str) -> Optional[DomainLifecycle]:
        if type(domain) is not Name:
            domain = intern_name(domain)
        return self._lifecycles.get(domain)

    def __contains__(self, domain: str) -> bool:
        if type(domain) is not Name:
            domain = intern_name(domain)
        return domain in self._lifecycles

    def __len__(self) -> int:
        return len(self._lifecycles)

    def lifecycles(self) -> Iterator[DomainLifecycle]:
        return iter(self._lifecycles.values())

    # -- zone state ---------------------------------------------------------------

    def delegation_at(self, domain: str, ts: int) -> Optional[FrozenSet[str]]:
        """NS hostnames of ``domain`` in the zone at ``ts`` (None: absent)."""
        if type(domain) is not Name:
            domain = intern_name(domain)
        lifecycle = self._lifecycles.get(domain)
        if lifecycle is None:
            return None
        return lifecycle.nameservers_at(ts)

    def delegation_window_at(self, domain: str, ts: int):
        """``(delegation at ts, valid-until)`` — see
        :meth:`DomainLifecycle.nameservers_window_at`.  Valid only while
        the registry is no longer mutating (the world is fully
        materialized before measurement starts), which is when the
        authorities built from it are used."""
        if type(domain) is not Name:
            domain = intern_name(domain)
        lifecycle = self._lifecycles.get(domain)
        if lifecycle is None:
            return None, None
        return lifecycle.nameservers_window_at(ts)

    def delegated_domains_at(self, ts: int) -> Set[str]:
        """All domains present in the zone at ``ts`` (a snapshot's contents)."""
        return {lc.domain for lc in self._lifecycles.values() if lc.in_zone_at(ts)}

    def zone_version_at(self, ts: int) -> ZoneVersion:
        """Full :class:`ZoneVersion` (with NS data) at ``ts``."""
        delegations = {}
        for lc in self._lifecycles.values():
            ns = lc.nameservers_at(ts)
            if ns:
                delegations[lc.domain] = Delegation(lc.domain, ns)
        return ZoneVersion(tld=self.tld, serial=self.serial_at(ts),
                           taken_at=ts, delegations=delegations)

    def _mark_dirty(self, tick_ts: int) -> None:
        index = self.policy.tick_index(tick_ts)
        ticks = self._dirty_ticks
        if not ticks or index > ticks[-1]:
            ticks.append(index)  # still sorted if it was
        elif index != ticks[-1]:
            ticks.append(index)
            self._ticks_sorted = False

    def dirty_tick_indices(self) -> FrozenSet[int]:
        """Zone-tick indices at which at least one mutation applied.

        The raw material of :meth:`serial_at`; exported so a
        worker-private registry's SOA history can be merged into the
        scenario's live one (:meth:`register_many`'s ``dirty_ticks``).
        """
        return frozenset(self._dirty_ticks)

    def serial_at(self, ts: int) -> int:
        """SOA serial at ``ts``: number of content-changing runs so far."""
        if not self._ticks_sorted:
            self._dirty_ticks = array("q", sorted(set(self._dirty_ticks)))
            self._ticks_sorted = True
        return bisect_right(self._dirty_ticks, self.policy.tick_index(ts))

    def authority(self) -> TLDAuthority:
        """An authoritative server view over this registry."""
        return TLDAuthority(self.tld, self.delegation_at, self.serial_at,
                            delegation_window_oracle=self.delegation_window_at)

    # -- registry ground truth (the §4.4 "registry view") -------------------------

    def registrations_in(self, start: int, end: int) -> List[DomainLifecycle]:
        return [lc for lc in self._lifecycles.values()
                if start <= lc.created_at < end]

    def deleted_under(self, max_lifetime: int, start: int,
                      end: int) -> List[DomainLifecycle]:
        """Domains created in the window and deleted within ``max_lifetime``
        seconds — the registration-system ground truth of §4.4."""
        return [lc for lc in self.registrations_in(start, end)
                if lc.lifetime is not None and lc.lifetime <= max_lifetime]

    def never_published(self, start: int, end: int) -> List[DomainLifecycle]:
        """Registrations that never reached the zone at all."""
        return [lc for lc in self.registrations_in(start, end)
                if lc.zone_added_at is None]


#: Field order of one :func:`lifecycle_rows` row — the wire format of
#: the parallel world build.  Scalars first, the three timelines (as
#: ``(ts, value)`` change tuples) last.
LIFECYCLE_FIELDS: Tuple[str, ...] = (
    "domain", "registrar", "created_at", "zone_added_at", "removed_at",
    "zone_removed_at", "dns_provider", "web_provider", "is_malicious",
    "abuse_kind", "removal_reason", "actor", "campaign", "held", "lame",
    "rdap_sync_lag", "ns_changes", "a_changes", "aaaa_changes",
)


def lifecycle_rows(registry: Registry) -> List[Tuple]:
    """Flatten lifecycles of ``registry`` into compact rows.

    Args:
        registry: the (typically worker-private) registry to export.

    Returns:
        One tuple per lifecycle in insertion order, fields as named by
        :data:`LIFECYCLE_FIELDS`.  NS sets are rendered as sorted host
        tuples; :meth:`Registry.register_many` re-derives the shared
        frozensets on load.

    Rows contain only primitives, enums, and (interned) strings — no
    lifecycle or timeline objects — so pickling a whole shard's rows
    into the parallel world build's worker result is cheap and
    reconstruction is exact.
    """
    rows: List[Tuple] = []
    for lc in registry.lifecycles():
        rows.append((
            lc.domain, lc.registrar, lc.created_at, lc.zone_added_at,
            lc.removed_at, lc.zone_removed_at, lc.dns_provider,
            lc.web_provider, lc.is_malicious, lc.abuse_kind,
            lc.removal_reason, lc.actor, lc.campaign, lc.held, lc.lame,
            lc.rdap_sync_lag,
            tuple((ts, tuple(sorted(value)))
                  for ts, value in lc.ns_timeline.changes()),
            tuple(lc.a_timeline.changes()),
            tuple(lc.aaaa_timeline.changes()),
        ))
    return rows


class RegistryGroup:
    """All registries of a scenario, keyed by TLD."""

    def __init__(self, registries: Iterable[Registry] = ()) -> None:
        self._registries: Dict[str, Registry] = {}
        for registry in registries:
            self.add(registry)

    def add(self, registry: Registry) -> None:
        self._registries[registry.tld] = registry

    def get(self, tld: str) -> Registry:
        try:
            return self._registries[tld]
        except KeyError:
            raise UnknownDomainError(f"no registry for .{tld}") from None

    def for_domain(self, domain: str) -> Registry:
        return self.get(dnsname.tld_of(domain))

    def find_lifecycle(self, domain: str) -> Optional[DomainLifecycle]:
        norm = domain if type(domain) is Name else intern_name(domain)
        if not norm:
            return None
        registry = self._registries.get(norm.tld)
        if registry is None:
            return None
        return registry.find(norm)

    def tlds(self) -> List[str]:
        return sorted(self._registries)

    def __iter__(self) -> Iterator[Registry]:
        return iter(self._registries.values())

    def __len__(self) -> int:
        return len(self._registries)

    def total_registrations(self) -> int:
        return sum(len(r) for r in self._registries.values())

    # -- measurement-side views ---------------------------------------------------

    def hosting_authority(self) -> HostingAuthority:
        """The domain-side nameserver view over every lifecycle here.

        A/AAAA answers come from the lifecycles' address timelines; NS
        from the published NS set; lame delegations time out — exactly
        the oracles the monitor's hosting path needs.
        """
        def records(domain: str, qtype: RRType, ts: int):
            lifecycle = self.find_lifecycle(domain)
            if lifecycle is None:
                return None
            if qtype not in (RRType.A, RRType.AAAA):
                ns = lifecycle.nameservers_at(ts)
                return tuple(sorted(ns)) if ns else None
            return lifecycle.addresses_at(ts, 4 if qtype is RRType.A else 6)

        def is_lame(domain: str, ts: int) -> bool:
            lifecycle = self.find_lifecycle(domain)
            return lifecycle is not None and lifecycle.lame

        return HostingAuthority(record_oracle=records,
                                lameness_oracle=is_lame)

    def resolver_pool(self, size: int = 16,
                      max_cache_ttl: int = 60) -> ResolverPool:
        """A fully wired measurement fleet over these registries.

        Every resolver routes NS/SOA to the per-TLD authorities and
        A/AAAA through the shared hosting authority — the wiring both
        the literal probe loop and the bulk scan engine share.
        """
        pool = ResolverPool(size=size, max_cache_ttl=max_cache_ttl)
        for registry in self:
            pool.register_tld_authority(registry.tld, registry.authority())
        pool.set_hosting_authority(self.hosting_authority())
        return pool
