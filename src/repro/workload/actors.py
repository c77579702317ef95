"""Registrant actor profiles: who registers domains and how they behave.

Each profile bundles the correlated choices a registrant population
makes — naming style, registrar mix, DNS/web hosting mixes, certificate
automation, and (for abusive actors) the abuse kind that drives
registrar takedowns.  The infrastructure skews are what make Tables 3-5
come out of the *measurement* rather than being painted on: transient
domains land on Cloudflare-heavy mixes because the bulk-abuse profiles
prefer free automated TLS, exactly the paper's reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.netsim.hosting import (
    LEGIT_DNS_MIX,
    LEGIT_WEB_MIX,
    ProviderMix,
    TRANSIENT_DNS_MIX,
    TRANSIENT_WEB_MIX,
)
from repro.registry.lifecycle import AbuseKind
from repro.registry.registrar import (
    NORMAL_REGISTRAR_MIX,
    RegistrarMix,
    TRANSIENT_REGISTRAR_MIX,
)
from repro.simtime.clock import HOUR, MINUTE
from repro.simtime.rng import RngStream, WeightedSampler


@dataclass(frozen=True)
class CertBehaviour:
    """How quickly (if ever) this population obtains certificates.

    The early-cert *probability* is owned by per-TLD calibration; the
    profile contributes a multiplicative affinity and the delay shape.
    Delays are measured from zone publication (a CA cannot validate
    before the delegation exists).
    """

    affinity: float = 1.0
    #: Probability the cert path is fully automated (ACME on setup).
    auto_prob: float = 0.55
    auto_median: int = 7 * MINUTE
    auto_sigma: float = 0.8
    manual_median: int = 3 * HOUR
    manual_sigma: float = 0.9

    def sample_delay(self, rng: RngStream) -> int:
        """Cert-request delay after zone publication, seconds."""
        if rng.bernoulli(self.auto_prob):
            delay = rng.lognormal_from_median(self.auto_median, self.auto_sigma)
            return max(30, int(delay))
        delay = rng.truncated(
            lambda: rng.lognormal_from_median(self.manual_median, self.manual_sigma),
            low=10 * MINUTE, high=20 * HOUR)
        return int(delay)


@dataclass(frozen=True)
class ActorProfile:
    """One registrant population."""

    name: str
    name_style: str
    registrar_mix: RegistrarMix
    dns_mix: ProviderMix
    web_mix: ProviderMix
    cert: CertBehaviour
    abuse_kind: Optional[AbuseKind] = None
    #: Probability the registrant uses a wildcard/SAN-heavy certificate.
    san_rich_prob: float = 0.1

    @property
    def is_malicious(self) -> bool:
        return self.abuse_kind is not None


#: Ordinary registrants: small businesses, individuals, projects.
LEGIT = ActorProfile(
    name="legit",
    name_style="dictionary",
    registrar_mix=NORMAL_REGISTRAR_MIX,
    dns_mix=LEGIT_DNS_MIX,
    web_mix=LEGIT_WEB_MIX,
    cert=CertBehaviour(affinity=1.0, auto_prob=0.44,
                       manual_median=4 * HOUR),
    san_rich_prob=0.15,
)

#: Domain investors: large parked portfolios, certificates are rare.
SPECULATOR = ActorProfile(
    name="speculator",
    name_style="parked",
    registrar_mix=NORMAL_REGISTRAR_MIX,
    dns_mix=LEGIT_DNS_MIX,
    web_mix=LEGIT_WEB_MIX,
    cert=CertBehaviour(affinity=0.45, auto_prob=0.75),
    san_rich_prob=0.02,
)

#: Phishing campaigns: typosquats, automated TLS (HTTPS is part of the
#: lure), Cloudflare-heavy hosting.
PHISHER = ActorProfile(
    name="phisher",
    name_style="typosquat",
    registrar_mix=TRANSIENT_REGISTRAR_MIX,
    dns_mix=TRANSIENT_DNS_MIX,
    web_mix=TRANSIENT_WEB_MIX,
    cert=CertBehaviour(affinity=1.1, auto_prob=0.9, auto_median=5 * MINUTE),
    abuse_kind=AbuseKind.PHISHING,
    san_rich_prob=0.05,
)

#: Bulk spam/malware registrations: DGA-style names, scripted setup.
BULK_SPAMMER = ActorProfile(
    name="bulk_spammer",
    name_style="dga",
    registrar_mix=TRANSIENT_REGISTRAR_MIX,
    dns_mix=TRANSIENT_DNS_MIX,
    web_mix=TRANSIENT_WEB_MIX,
    cert=CertBehaviour(affinity=0.9, auto_prob=0.85, auto_median=6 * MINUTE),
    abuse_kind=AbuseKind.SPAM,
    san_rich_prob=0.02,
)

#: Malware distribution / C2 infrastructure.
MALWARE_OP = ActorProfile(
    name="malware_op",
    name_style="dga",
    registrar_mix=TRANSIENT_REGISTRAR_MIX,
    dns_mix=TRANSIENT_DNS_MIX,
    web_mix=TRANSIENT_WEB_MIX,
    cert=CertBehaviour(affinity=0.8, auto_prob=0.8),
    abuse_kind=AbuseKind.MALWARE,
    san_rich_prob=0.02,
)

#: Payment-fraud registrations (stolen cards; often caught in hours).
FRAUDSTER = ActorProfile(
    name="fraudster",
    name_style="bulk",
    registrar_mix=TRANSIENT_REGISTRAR_MIX,
    dns_mix=TRANSIENT_DNS_MIX,
    web_mix=TRANSIENT_WEB_MIX,
    cert=CertBehaviour(affinity=1.0, auto_prob=0.9, auto_median=5 * MINUTE),
    abuse_kind=AbuseKind.FRAUD,
    san_rich_prob=0.03,
)

#: Abuse-kind mixture for the fast-takedown (transient-class) stream.
FAST_MALICIOUS_PROFILES: Tuple[Tuple[ActorProfile, float], ...] = (
    (PHISHER, 0.40), (FRAUDSTER, 0.30), (BULK_SPAMMER, 0.20),
    (MALWARE_OP, 0.10),
)

#: Mixture for slow-takedown (early-removed) malicious registrations.
SLOW_MALICIOUS_PROFILES: Tuple[Tuple[ActorProfile, float], ...] = (
    (PHISHER, 0.35), (BULK_SPAMMER, 0.35), (MALWARE_OP, 0.20),
    (FRAUDSTER, 0.10),
)

#: Mixture for ordinary long-lived registrations.
BENIGN_PROFILES: Tuple[Tuple[ActorProfile, float], ...] = (
    (LEGIT, 0.75), (SPECULATOR, 0.25),
)


#: Samplers memoised per mixture tuple, keyed by identity.  The value
#: keeps a strong reference to the key object so its id() can never be
#: recycled; mixtures are module constants, so the map stays tiny.
_MIXTURE_SAMPLERS: dict = {}


def profile_sampler(
        mixture: Tuple[Tuple[ActorProfile, float], ...]) -> WeightedSampler:
    """The memoised sampler for a mixture (hoist it in hot loops)."""
    entry = _MIXTURE_SAMPLERS.get(id(mixture))
    if entry is None or entry[0] is not mixture:
        entry = (mixture, WeightedSampler.from_pairs(mixture))
        if len(_MIXTURE_SAMPLERS) > 256:
            _MIXTURE_SAMPLERS.clear()
        _MIXTURE_SAMPLERS[id(mixture)] = entry
    return entry[1]


def pick_profile(rng: RngStream,
                 mixture: Tuple[Tuple[ActorProfile, float], ...]) -> ActorProfile:
    return profile_sampler(mixture).pick(rng)
