"""Certificate authorities: domain validation and DV-token reuse.

Issuance follows the CA/Browser Forum baseline requirements the paper
leans on (§3 footnote 2, §4.2):

* Before issuing, the CA must demonstrate control of the domain —
  modelled as the domain *resolving in its TLD zone* at validation time
  (a registration not yet published by a provisioning run cannot
  validate, which couples detection latency to zone cadence).
* A successful validation yields a **DV token** the CA may reuse for up
  to 398 days.  Within that window the CA can legitimately issue a
  certificate *without re-checking the domain exists* — GlobalSign,
  Sectigo and Cloudflare confirmed to the authors that this explains
  certificates for non-existent domains.  These "ghost" certificates
  are exactly what inflates the RDAP failure rate of transient
  candidates to ≈34 %.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.ct.certificate import Certificate, make_precert
from repro.ct.ctlog import CTLog, LogEntry
from repro.dnscore.interned import intern_name
from repro.errors import ValidationError
from repro.simtime.clock import DAY
from repro.simtime.rng import WeightedSampler


#: DV cached-validation reuse limit (CA/B BR §4.2.1): 398 days.
DV_TOKEN_VALIDITY = 398 * DAY


class DVToken:
    """A cached domain-validation result held by one CA."""

    __slots__ = ("domain", "validated_at")

    def __init__(self, domain: str, validated_at: int) -> None:
        self.domain = domain
        self.validated_at = validated_at

    def valid_at(self, ts: int) -> bool:
        return self.validated_at <= ts <= self.validated_at + DV_TOKEN_VALIDITY


class IssuanceRecord:
    """Audit trail of one issuance, returned to the requester.

    The CA keeps no copy: the certificates themselves live in the CT
    logs, and a copy per issuance would grow with the world.
    """

    __slots__ = ("certificate", "requested_at", "issued_at",
                 "fresh_validation", "log_entries")

    def __init__(self, certificate: Certificate, requested_at: int,
                 issued_at: int, fresh_validation: bool,
                 log_entries: Tuple[LogEntry, ...]) -> None:
        self.certificate = certificate
        self.requested_at = requested_at
        self.issued_at = issued_at
        self.fresh_validation = fresh_validation
        self.log_entries = log_entries


class CertificateAuthority:
    """One CA issuing DV certificates and logging precerts to CT.

    ``existence_oracle(domain, ts)`` answers "does this domain resolve
    in its TLD zone at ``ts``" — in scenarios it is wired to
    :meth:`repro.registry.RegistryGroup.find_lifecycle` + zone state.
    ``serials`` numbers the certificates issued; a world passes one
    counter to all its CAs, so serials depend only on the world.
    Without one the CA numbers its own issuances from 1.
    """

    def __init__(self, name: str,
                 existence_oracle: Callable[[str, int], bool],
                 logs: Iterable[CTLog],
                 validation_delay: int = 5,
                 log_submission_delay: int = 2,
                 serials: Optional[Iterator[int]] = None) -> None:
        self.name = name
        self._serials = serials if serials is not None else itertools.count(1)
        self._exists = existence_oracle
        self.logs: List[CTLog] = list(logs)
        if not self.logs:
            raise ValidationError(f"CA {name} has no CT logs to submit to")
        self.validation_delay = validation_delay
        self.log_submission_delay = log_submission_delay
        self._tokens: Dict[str, DVToken] = {}
        self.rejections = 0

    # -- DV token management ------------------------------------------------------

    def seed_token(self, domain: str, validated_at: int) -> None:
        """Install a historical DV token (a past validation).

        Scenario builders use this to model domains validated during a
        *previous* registration — the precondition for ghost issuance.
        """
        domain = intern_name(domain)
        self._tokens[domain] = DVToken(domain, validated_at)

    def token_for(self, domain: str) -> Optional[DVToken]:
        # Tokens are keyed by the interned (canonical) name, so
        # lookups canonicalise too — any spelling round-trips.
        return self._tokens.get(intern_name(domain))

    def tokens(self) -> List[DVToken]:
        """All cached DV tokens (world fingerprinting, audits)."""
        return list(self._tokens.values())

    def has_valid_token(self, domain: str, ts: int) -> bool:
        token = self._tokens.get(intern_name(domain))
        return token is not None and token.valid_at(ts)

    # -- issuance -------------------------------------------------------------------

    def request_certificate(self, domain: str, requested_at: int,
                            extra_sans: Iterable[str] = (),
                            validity: int = 90 * DAY) -> IssuanceRecord:
        """Validate (or reuse a token) and issue a precertificate.

        Raises :class:`~repro.errors.ValidationError` when the domain
        neither resolves nor has a reusable token.
        """
        domain = intern_name(domain)
        fresh = False
        issued_at = requested_at
        if self._exists(domain, requested_at):
            # Fresh validation: HTTP-01/DNS-01 round trip.
            issued_at = requested_at + self.validation_delay
            self._tokens[domain] = DVToken(domain, issued_at)
            fresh = True
        elif self.has_valid_token(domain, requested_at):
            # Reused validation — issuance without existence check.
            issued_at = requested_at
        else:
            self.rejections += 1
            raise ValidationError(
                f"{self.name}: cannot validate control of {domain}")
        certificate = make_precert(
            serial=next(self._serials), domain=domain, issuer=self.name,
            issued_at=issued_at, extra_sans=extra_sans, validity=validity,
            reused_validation=not fresh)
        entries = tuple(
            log.submit(certificate, issued_at + self.log_submission_delay)
            for log in self.logs)
        return IssuanceRecord(certificate=certificate,
                              requested_at=requested_at,
                              issued_at=issued_at,
                              fresh_validation=fresh,
                              log_entries=entries)


@dataclass(frozen=True)
class CAProfile:
    """Static description of a CA for scenario building."""

    name: str
    #: Share of issuance volume (Let's Encrypt dominates DV issuance).
    market_share: float
    #: Mean delay from "owner sets up hosting" to cert request, seconds.
    #: Automated ACME integrations request within seconds.
    automation_level: float  # 0..1, 1 = fully automated


#: The CAs named in the paper (§4.2) plus the DV volume leaders.
CA_PROFILES: Tuple[CAProfile, ...] = (
    CAProfile("Let's Encrypt", market_share=0.52, automation_level=0.95),
    CAProfile("Google Trust Services", market_share=0.15, automation_level=0.9),
    CAProfile("Cloudflare", market_share=0.12, automation_level=0.98),
    CAProfile("Sectigo", market_share=0.09, automation_level=0.6),
    CAProfile("GlobalSign", market_share=0.06, automation_level=0.5),
    CAProfile("DigiCert", market_share=0.06, automation_level=0.4),
)


def pick_ca(rng, cas: List[CertificateAuthority],
            profiles: Tuple[CAProfile, ...] = CA_PROFILES) -> CertificateAuthority:
    """Weighted CA choice by market share (aligned by index)."""
    weights = [p.market_share for p in profiles[:len(cas)]]
    return rng.weighted_choice(cas, weights)


def ca_index_sampler(count: Optional[int] = None,
                     profiles: Tuple[CAProfile, ...] = CA_PROFILES):
    """Market-share sampler over CA *indices* into ``profiles``.

    Args:
        count: number of live CAs (defaults to all profiles).
        profiles: the static CA descriptions supplying the weights.

    Returns:
        A :class:`~repro.simtime.rng.WeightedSampler` whose ``pick``
        consumes one draw and yields an index — draw-identical to
        sampling the CA objects directly, but the sampler (and its
        picks) contain no CA state, so worker processes can decide
        "which CA holds this DV token" without holding a CA: indices
        travel as plain ints and the parent resolves them against its
        live CA list.
    """
    n = len(profiles) if count is None else count
    return WeightedSampler(range(n), [p.market_share for p in profiles[:n]])
