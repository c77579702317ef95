"""Domain lifecycle: the registry's complete per-domain record.

A :class:`DomainLifecycle` is the ground truth the whole reproduction
hangs off: when the domain was created (the RDAP timestamp), when the
registry's provisioning runs inserted/removed it from the zone, how its
NS/A/AAAA records evolved, who registered it through which registrar,
and why it was (maybe) removed.  Every measured quantity in the paper
is some projection of these records through an imperfect observation
channel (CZDS snapshots, CT logs, RDAP, active DNS).
"""

from __future__ import annotations

import enum
from typing import FrozenSet, Optional, Tuple

from repro.dnscore.interned import Name, intern_name
from repro.errors import ConfigError
from repro.simtime.clock import DAY
from repro.simtime.timeline import Timeline


class RemovalReason(enum.Enum):
    """Why a registrar/registry removed a domain early (paper §4.3)."""

    ABUSE = "abuse"                      # confirmed malicious use
    ACCOUNT_SUSPENSION = "account_suspension"
    PAYMENT_FRAUD = "payment_fraud"      # flagged credit card
    DOMAIN_TASTING = "domain_tasting"    # legitimate, exceptionally rare
    RIGHT_OF_CANCELLATION = "right_of_cancellation"
    EXPIRATION = "expiration"            # natural end of life

    @property
    def is_malicious_signal(self) -> bool:
        return self in (RemovalReason.ABUSE, RemovalReason.ACCOUNT_SUSPENSION,
                        RemovalReason.PAYMENT_FRAUD)


class AbuseKind(enum.Enum):
    """Category of malicious intent behind a registration."""

    PHISHING = "phishing"
    SPAM = "spam"
    MALWARE = "malware"
    FRAUD = "fraud"

    def __str__(self) -> str:
        return self.value


class DomainStatus(enum.Enum):
    """EPP-ish status at a point in time."""

    ACTIVE = "active"
    SERVER_HOLD = "serverHold"       # registered but not delegated
    PENDING_DELETE = "pendingDelete"
    DELETED = "deleted"


class DomainLifecycle:
    """Ground-truth record of one registered domain.

    Timelines hold the *zone-visible* state: they change at provisioning
    ticks, not at the instant the registrar submitted the change — the
    same distinction that gives rapid zone updates their value.

    A ``__slots__`` class rather than a dataclass: full-scale worlds
    hold one record per paper registration (tens of millions), so the
    per-instance ``__dict__`` would dominate world memory.  For the
    same reason the registry hands every absent history the shared,
    immutable :data:`~repro.simtime.timeline.EMPTY_TIMELINE`; a history
    left to default here is a fresh ``Timeline`` its caller may fill.
    """

    __slots__ = (
        "domain", "tld", "registrar", "created_at", "zone_added_at",
        "removed_at", "zone_removed_at", "dns_provider", "web_provider",
        "ns_timeline", "a_timeline", "aaaa_timeline", "is_malicious",
        "abuse_kind", "removal_reason", "actor", "campaign", "held",
        "lame", "rdap_sync_lag",
    )

    def __init__(self, domain: str, tld: str, registrar: str,
                 created_at: int,
                 zone_added_at: Optional[int],
                 removed_at: Optional[int] = None,
                 zone_removed_at: Optional[int] = None,
                 dns_provider: str = "", web_provider: str = "",
                 ns_timeline: Optional[Timeline] = None,
                 a_timeline: Optional[Timeline] = None,
                 aaaa_timeline: Optional[Timeline] = None,
                 is_malicious: bool = False,
                 abuse_kind: Optional[AbuseKind] = None,
                 removal_reason: Optional[RemovalReason] = None,
                 actor: str = "legit",
                 campaign: Optional[str] = None,
                 held: bool = False, lame: bool = False,
                 rdap_sync_lag: int = 300) -> None:
        #: Canonical domain name (normalised on construction; the
        #: generator hands over pre-interned Names, so this is usually
        #: an identity check).
        self.domain = domain if type(domain) is Name else intern_name(domain)
        self.tld = tld
        self.registrar = registrar
        #: Registration instant (the RDAP creation timestamp).
        self.created_at = created_at
        #: First provisioning run that published the delegation (None for
        #: held domains that never reach the zone).
        self.zone_added_at = zone_added_at
        #: Registrar-side removal instant (None: survives the window).
        self.removed_at = removed_at
        #: Provisioning run that dropped the delegation.
        self.zone_removed_at = zone_removed_at
        self.dns_provider = dns_provider
        self.web_provider = web_provider
        self.ns_timeline = ns_timeline if ns_timeline is not None else Timeline()
        self.a_timeline = a_timeline if a_timeline is not None else Timeline()
        self.aaaa_timeline = (aaaa_timeline if aaaa_timeline is not None
                              else Timeline())
        self.is_malicious = is_malicious
        self.abuse_kind = abuse_kind
        self.removal_reason = removal_reason
        self.actor = actor
        #: Bulk-campaign identifier when part of a coordinated registration
        #: burst (None for independent registrations).
        self.campaign = campaign
        #: Domain is registered but intentionally kept out of the zone.
        self.held = held
        #: The domain's own nameservers never answer (lame delegation).
        self.lame = lame
        #: Seconds after creation until the registry's RDAP shows the object.
        self.rdap_sync_lag = rdap_sync_lag
        # self.domain is the interned Name, so the TLD is a cached slot.
        if self.domain.tld != self.tld or not self.domain.tld:
            raise ConfigError(f"{self.domain} not under .{self.tld}")
        if zone_added_at is not None and zone_added_at < created_at:
            raise ConfigError(f"{self.domain}: zone add precedes creation")
        if (removed_at is not None and zone_removed_at is not None
                and zone_removed_at < removed_at):
            raise ConfigError(f"{self.domain}: zone removal precedes removal")

    # -- zone state --------------------------------------------------------------

    def in_zone_at(self, ts: int) -> bool:
        """Was the delegation published at time ``ts``?"""
        if self.zone_added_at is None or ts < self.zone_added_at:
            return False
        return self.zone_removed_at is None or ts < self.zone_removed_at

    def registered_at_time(self, ts: int) -> bool:
        """Was the registration object alive at ``ts`` (RDAP view)?"""
        if ts < self.created_at:
            return False
        return self.removed_at is None or ts < self.removed_at

    def status_at(self, ts: int) -> DomainStatus:
        if not self.registered_at_time(ts):
            return DomainStatus.DELETED
        if self.held:
            return DomainStatus.SERVER_HOLD
        if self.in_zone_at(ts):
            return DomainStatus.ACTIVE
        if self.zone_removed_at is not None and ts >= self.zone_removed_at:
            return DomainStatus.PENDING_DELETE
        return DomainStatus.ACTIVE  # awaiting first provisioning run

    def nameservers_at(self, ts: int) -> Optional[FrozenSet[str]]:
        """Published NS set at ``ts`` (None when not delegated)."""
        if not self.in_zone_at(ts):
            return None
        return self.ns_timeline.at(ts)

    def nameservers_window_at(self, ts: int):
        """``(published NS set, valid-until)`` at ``ts``.

        The second element is the first instant the answer could
        differ, or None when it holds forever — the zone-side validity
        window that lets an authority serve a probe grid's repeated
        question without a timeline walk per probe.  Change points are
        the zone add, every NS change, and the zone removal.
        """
        added, removed = self.zone_added_at, self.zone_removed_at
        if added is None:
            return None, None
        if ts < added:
            return None, added
        if removed is not None and ts >= removed:
            return None, None
        value, nxt = self.ns_timeline.at_with_next(ts)
        if removed is not None and (nxt is None or removed < nxt):
            nxt = removed
        return value, nxt

    def addresses_at(self, ts: int, family: int = 4) -> Optional[Tuple[str, ...]]:
        """A/AAAA rdata at ``ts``; None when unresolvable.

        Resolution requires the delegation to exist *and* the hosting
        nameservers to answer (lame domains never answer).
        """
        if not self.in_zone_at(ts) or self.lame:
            return None
        timeline = self.a_timeline if family == 4 else self.aaaa_timeline
        value = timeline.at(ts)
        return tuple(value) if value else ()

    # -- lifetime ---------------------------------------------------------------

    @property
    def lifetime(self) -> Optional[int]:
        """Registrar-view lifetime in seconds (None: still alive)."""
        if self.removed_at is None:
            return None
        return self.removed_at - self.created_at

    @property
    def zone_lifetime(self) -> Optional[int]:
        """Seconds the delegation was actually published."""
        if self.zone_added_at is None:
            return 0
        if self.zone_removed_at is None:
            return None
        return self.zone_removed_at - self.zone_added_at

    def died_within(self, seconds: int) -> bool:
        life = self.lifetime
        return life is not None and life <= seconds

    @property
    def removed_within_a_day(self) -> bool:
        """The ccTLD registry's ground-truth notion in §4.4: created and
        deleted in under 24 hours according to the registration system."""
        return self.died_within(DAY)

    def ns_changed_within(self, seconds: int) -> bool:
        """Did the published NS set change within ``seconds`` of first
        publication?  (Paper §4.1: 2.5 % of NRDs did within 24 h.)"""
        if self.zone_added_at is None:
            return False
        return self.ns_timeline.value_changed_within(
            self.zone_added_at, self.zone_added_at + seconds)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        flags = []
        if self.is_malicious:
            flags.append(str(self.abuse_kind))
        if self.held:
            flags.append("held")
        if self.lame:
            flags.append("lame")
        return (f"DomainLifecycle({self.domain}, created={self.created_at}, "
                f"removed={self.removed_at}, {'|'.join(flags) or 'benign'})")
