"""Registration plans and bulk campaigns.

The generator does not mutate registries directly; it emits
:class:`RegistrationPlan` / :class:`GhostCertPlan` objects that the
scenario builder executes against the substrates.  Keeping plans as
data makes the workload unit-testable and lets ablations rewrite plan
streams (e.g. disabling ghost certificates) without touching the
generator.

Bulk abuse arrives in :class:`Campaign` bursts — tens of registrations
sharing a registrar, hosting, naming pattern, and a tight time window —
matching the "bulk malicious registration campaigns" the paper cites as
a driver of per-TLD transient skew [27].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.netsim.hosting import Provider
from repro.registry.registrar import Registrar
from repro.simtime.clock import MINUTE
from repro.simtime.rng import RngStream
from repro.workload.actors import ActorProfile
from repro.workload.namegen import NameGenerator


@dataclass(frozen=True)
class CertPlan:
    """A planned certificate request for a registration."""

    #: Delay after zone publication at which the request fires.
    delay_after_publish: int
    extra_sans: Tuple[str, ...] = ()


@dataclass(frozen=True)
class NSChangePlan:
    """A planned nameserver-infrastructure change (§4.1's 2.5 %)."""

    delay_after_publish: int
    new_dns_provider: Provider


class RegistrationPlan:
    """Everything needed to execute one registration.

    A ``__slots__`` class: one plan exists per synthetic registration,
    which makes construction cost and per-instance memory part of the
    world-build hot path.
    """

    __slots__ = ("domain", "tld", "created_at", "profile", "registrar",
                 "dns_provider", "web_provider", "removal_delay",
                 "fast_takedown", "cert", "ns_change", "held", "lame",
                 "campaign_id", "has_history")

    def __init__(self, domain: str, tld: str, created_at: int,
                 profile: ActorProfile, registrar: Registrar,
                 dns_provider: Provider, web_provider: Provider,
                 removal_delay: Optional[int] = None,
                 fast_takedown: bool = False,
                 cert: Optional[CertPlan] = None,
                 ns_change: Optional[NSChangePlan] = None,
                 held: bool = False, lame: bool = False,
                 campaign_id: Optional[str] = None,
                 has_history: bool = False) -> None:
        self.domain = domain
        self.tld = tld
        self.created_at = created_at
        self.profile = profile
        self.registrar = registrar
        self.dns_provider = dns_provider
        self.web_provider = web_provider
        #: None: survives the window.  Seconds after created_at otherwise.
        self.removal_delay = removal_delay
        self.fast_takedown = fast_takedown
        self.cert = cert
        self.ns_change = ns_change
        self.held = held
        self.lame = lame
        self.campaign_id = campaign_id
        #: The name was registered (and dropped) before — it has zone-file
        #: history in DZDB even though this registration is new.
        self.has_history = has_history

    @property
    def removed_at(self) -> Optional[int]:
        if self.removal_delay is None:
            return None
        return self.created_at + self.removal_delay


@dataclass(frozen=True)
class GhostCertPlan:
    """A certificate for a domain that is *not currently registered*.

    The CA holds a DV token from the domain's previous life (within the
    398-day reuse window), so issuance succeeds without the domain
    existing — §4.2's cause (iii).
    """

    domain: str
    tld: str
    #: When the certificate is requested.
    requested_at: int
    #: When the (historical) validation happened.
    validated_at: int
    #: Historical zone presence for DZDB seeding.
    first_seen: int
    last_seen: int
    #: A few ghosts escape DZDB (collection gaps) — the paper found 97 %
    #: coverage, not 100 %.
    in_dzdb: bool = True
    #: CA (by :data:`~repro.ct.ca.CA_PROFILES` index) already pinned by
    #: the planner.  None: the build draws one from the shared
    #: ``capick`` stream, in canonical shard order.
    ca_index: Optional[int] = None


@dataclass
class Campaign:
    """A bulk registration burst by one actor."""

    campaign_id: str
    profile: ActorProfile
    tld: str
    start_at: int
    size: int
    #: Mean seconds between consecutive registrations in the burst.
    mean_gap: int = 3 * MINUTE

    def arrival_times(self, rng: RngStream) -> List[int]:
        """Exponential inter-arrivals from the campaign start."""
        times: List[int] = []
        ts = self.start_at
        for _ in range(self.size):
            times.append(int(ts))
            ts += max(1, rng.exponential(self.mean_gap))
        return times

    def shared_infrastructure(self, rng: RngStream) -> Tuple[Registrar, Provider, Provider]:
        """Campaigns reuse one registrar + provider pair across domains."""
        registrar = self.profile.registrar_mix.pick(rng)
        dns_provider = self.profile.dns_mix.pick(rng)
        web_provider = self.profile.web_mix.pick(rng)
        return registrar, dns_provider, web_provider


def plan_campaign(campaign: Campaign, namegen: NameGenerator,
                  rng: RngStream) -> List[RegistrationPlan]:
    """Expand a campaign into concrete registration plans.

    Removal and certificate decisions stay with the scenario builder —
    campaigns fix *who/where/when*, not fate.
    """
    registrar, dns_provider, web_provider = campaign.shared_infrastructure(rng)
    plans: List[RegistrationPlan] = []
    for ts in campaign.arrival_times(rng):
        domain = namegen.by_style(campaign.profile.name_style, campaign.tld,
                                  campaign_tag=campaign.campaign_id)
        plans.append(RegistrationPlan(
            domain=domain, tld=campaign.tld, created_at=ts,
            profile=campaign.profile, registrar=registrar,
            dns_provider=dns_provider, web_provider=web_provider,
            campaign_id=campaign.campaign_id,
        ))
    return plans
