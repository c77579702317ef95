"""Registrars: market shares and abuse-response behaviour.

Table 3 of the paper gives the registrar distribution of *transient*
domains (GoDaddy 19.4 %, Hostinger 15.2 %, ...).  Private conversations
with two top registrars (§4.3) established that early removals are
driven by abuse handling, account suspension, and payment fraud, with
domain tasting "exceptionally rare".

Each :class:`Registrar` therefore carries a takedown-delay model: how
long after registration a malicious domain survives before the
registrar pulls it.  Fast takedowns (hours) create the transient
population with the Figure 2 lifetime CDF; slower ones (days-weeks)
create the "early-removed" population of §4.3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.registry.lifecycle import RemovalReason
from repro.simtime.clock import DAY, HOUR, MINUTE
from repro.simtime.rng import RngStream, WeightedSampler

#: Removal-reason distributions (constants — hoisted samplers keep the
#: per-takedown draw cheap while reproducing ``weighted_choice`` exactly).
_FAST_REASONS = WeightedSampler(
    [RemovalReason.PAYMENT_FRAUD, RemovalReason.ACCOUNT_SUSPENSION,
     RemovalReason.ABUSE, RemovalReason.DOMAIN_TASTING,
     RemovalReason.RIGHT_OF_CANCELLATION],
    [0.40, 0.30, 0.27, 0.02, 0.01])
_SLOW_REASONS = WeightedSampler(
    [RemovalReason.ABUSE, RemovalReason.ACCOUNT_SUSPENSION], [0.8, 0.2])


@dataclass(frozen=True)
class TakedownModel:
    """How quickly a registrar removes a malicious registration.

    * With probability ``fast_prob`` the domain is caught by automated
      checks (payment fraud scoring, bulk-pattern detection) and removed
      within hours: delay ~ LogNormal(median=``fast_median``,
      sigma=``fast_sigma``) truncated to (5 min, 24 h).  The paper's
      Figure 2 (transient lifetimes, >50 % under 6 h) is the image of
      this branch.
    * Otherwise removal waits for abuse reports: delay ~
      LogNormal(median=``slow_median``) in days, creating early-removed
      domains that *do* reach zone snapshots.
    """

    fast_prob: float = 0.5
    fast_median: int = int(7.0 * HOUR)
    fast_sigma: float = 0.85
    slow_median: int = 12 * DAY
    slow_sigma: float = 0.9

    def sample_delay(self, rng: RngStream) -> Tuple[int, bool]:
        """Return (delay seconds, was_fast)."""
        if rng.bernoulli(self.fast_prob):
            delay = rng.truncated(
                lambda: rng.lognormal_from_median(self.fast_median, self.fast_sigma),
                low=5 * MINUTE, high=DAY - 30 * MINUTE)
            return int(delay), True
        delay = rng.truncated(
            lambda: rng.lognormal_from_median(self.slow_median, self.slow_sigma),
            low=DAY, high=80 * DAY)
        return int(delay), False

    def sample_reason(self, rng: RngStream, was_fast: bool) -> RemovalReason:
        return (_FAST_REASONS if was_fast else _SLOW_REASONS).pick(rng)


@dataclass(frozen=True)
class Registrar:
    """One ICANN-accredited registrar."""

    name: str
    iana_id: int
    takedown: TakedownModel = TakedownModel()

    def __post_init__(self) -> None:
        if self.iana_id <= 0:
            raise ConfigError(f"bad IANA id for {self.name}")


#: Registrars named in Table 3, with their real IANA ids.
GODADDY = Registrar("GoDaddy", 146)
HOSTINGER = Registrar("Hostinger", 1636)
NAMECHEAP = Registrar("NameCheap", 1068)
SQUARESPACE = Registrar("Squarespace", 895)
PDR = Registrar("Public Domain Registry", 303)
IONOS = Registrar("IONOS", 83)
METAREGISTRAR = Registrar("Metaregistrar", 1914)
NAMESILO = Registrar("NameSilo", 1479)
NETWORK_SOLUTIONS = Registrar("Network Solutions, LLC", 2)
TUCOWS = Registrar("Tucows", 69)
# Long tail.
GANDI = Registrar("Gandi", 81)
OVH_SAS = Registrar("OVH sas", 433)
ALIBABA_REG = Registrar("Alibaba Cloud", 420)
DYNADOT = Registrar("Dynadot", 472)
PORKBUN = Registrar("Porkbun", 1861)
REGRU = Registrar("Registrar of Domain Names REG.RU", 1606)
SAV = Registrar("Sav.com", 609)
WEBNIC = Registrar("WebNIC", 460)

ALL_REGISTRARS: Tuple[Registrar, ...] = (
    GODADDY, HOSTINGER, NAMECHEAP, SQUARESPACE, PDR, IONOS, METAREGISTRAR,
    NAMESILO, NETWORK_SOLUTIONS, TUCOWS, GANDI, OVH_SAS, ALIBABA_REG,
    DYNADOT, PORKBUN, REGRU, SAV, WEBNIC,
)

_BY_NAME: Dict[str, Registrar] = {r.name: r for r in ALL_REGISTRARS}


def registrar_by_name(name: str) -> Registrar:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(f"unknown registrar: {name!r}") from None


@dataclass(frozen=True)
class RegistrarMix:
    """Weighted registrar distribution for a registrant population."""

    weights: Tuple[Tuple[Registrar, float], ...]

    def __post_init__(self) -> None:
        # Derived cache, not a field — see ProviderMix for the pattern.
        object.__setattr__(self, "_sampler", WeightedSampler.from_pairs(self.weights))

    def pick(self, rng: RngStream) -> Registrar:
        return self._sampler.pick(rng)


#: Registrar mix of the *transient/malicious* population — Table 3
#: percentages (Others split across the long tail).
TRANSIENT_REGISTRAR_MIX = RegistrarMix(weights=(
    (GODADDY, 0.1939), (HOSTINGER, 0.152), (NAMECHEAP, 0.099),
    (SQUARESPACE, 0.067), (PDR, 0.062), (IONOS, 0.056),
    (METAREGISTRAR, 0.044), (NAMESILO, 0.044), (NETWORK_SOLUTIONS, 0.039),
    (TUCOWS, 0.031),
    # "Others": 21.3 % across the tail.
    (GANDI, 0.030), (OVH_SAS, 0.028), (ALIBABA_REG, 0.028),
    (DYNADOT, 0.027), (PORKBUN, 0.027), (REGRU, 0.025),
    (SAV, 0.025), (WEBNIC, 0.023),
))

#: Mix for ordinary registrations: market-leader heavy, thinner tail.
NORMAL_REGISTRAR_MIX = RegistrarMix(weights=(
    (GODADDY, 0.26), (NAMECHEAP, 0.14), (TUCOWS, 0.09), (SQUARESPACE, 0.08),
    (HOSTINGER, 0.06), (IONOS, 0.06), (PDR, 0.05), (NETWORK_SOLUTIONS, 0.05),
    (NAMESILO, 0.04), (GANDI, 0.04), (OVH_SAS, 0.03), (ALIBABA_REG, 0.03),
    (DYNADOT, 0.025), (PORKBUN, 0.025), (REGRU, 0.02), (SAV, 0.02),
    (WEBNIC, 0.02), (METAREGISTRAR, 0.01),
))
