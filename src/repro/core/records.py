"""Record types flowing through the DarkDNS pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.heap import FrozenSlots
from repro.registry.rdap import RDAPResult


@dataclass(frozen=True)
class Candidate(FrozenSlots):
    """Step-1 output: a registrable domain seen in CT but absent from
    the latest published zone snapshot."""

    __slots__ = ("domain", "tld", "ct_seen_at", "cert_serial", "issuer",
                 "log_id", "reused_validation")

    domain: str
    tld: str
    #: Certstream receive time — the observation clock (§4.1 fn. 4).
    ct_seen_at: int
    cert_serial: int
    issuer: str
    log_id: str
    #: True when the certificate was issued on a cached DV token.
    reused_validation: bool


@dataclass(frozen=True)
class MonitorReport(FrozenSlots):
    """Step-3 output: 48 hours of 10-minute probes, summarised.

    ``last_ns_ok`` is the last probe instant at which the TLD authority
    still served the delegation — the liveness signal used to estimate
    transient lifetimes (Fig. 2).
    """

    __slots__ = ("domain", "monitor_start", "monitor_end", "probe_interval",
                 "probes", "ever_resolved", "last_ns_ok", "ns_sets",
                 "first_a", "first_aaaa", "ns_changed")

    domain: str
    monitor_start: int
    monitor_end: int
    probe_interval: int
    probes: int
    ever_resolved: bool
    last_ns_ok: Optional[int]
    #: Distinct NS RRsets observed, in first-observation order.
    ns_sets: Tuple[FrozenSet[str], ...]
    first_a: Tuple[str, ...]
    first_aaaa: Tuple[str, ...]
    ns_changed: bool

    @property
    def first_ns_set(self) -> Optional[FrozenSet[str]]:
        return self.ns_sets[0] if self.ns_sets else None

    def observed_removal(self) -> bool:
        """Did the monitor watch the delegation disappear?"""
        return self.ever_resolved and (self.last_ns_ok is not None
                                       and self.last_ns_ok < self.monitor_end
                                       - self.probe_interval)


@dataclass(frozen=True)
class ValidationVerdict(FrozenSlots):
    """Step-4 output: RDAP cross-validation of one candidate."""

    __slots__ = ("domain", "rdap_ok", "detection_delay", "misclassified",
                 "consistent_24h")

    domain: str
    rdap_ok: bool
    #: CT observation minus RDAP creation (None without RDAP data).
    detection_delay: Optional[int]
    #: RDAP says the domain was created long before the CT observation.
    misclassified: bool
    #: |delay| within the paper's 24-hour consistency bound.
    consistent_24h: bool


@dataclass
class PipelineResult:
    """Everything one pipeline run produced, keyed by domain."""

    window_start: int
    window_end: int
    candidates: Dict[str, Candidate] = field(default_factory=dict)
    rdap: Dict[str, RDAPResult] = field(default_factory=dict)
    monitors: Dict[str, MonitorReport] = field(default_factory=dict)
    verdicts: Dict[str, ValidationVerdict] = field(default_factory=dict)
    #: Candidates never seen in any snapshot in the window (±slack).
    transient_candidates: Set[str] = field(default_factory=set)
    #: Transient candidates surviving RDAP validation (§4.2's 42 358).
    confirmed_transients: Set[str] = field(default_factory=set)
    #: Transient candidates dropped for missing RDAP data.
    rdap_failed_transients: Set[str] = field(default_factory=set)
    #: Transient candidates dropped as not newly registered.
    misclassified_transients: Set[str] = field(default_factory=set)
    #: Raw counts for reporting.
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def detected_count(self) -> int:
        return len(self.candidates)

    def rdap_failure_rate(self, domains: Optional[Set[str]] = None) -> float:
        """Share of (a subset of) candidates whose RDAP fetch failed."""
        pool = domains if domains is not None else set(self.candidates)
        if not pool:
            return 0.0
        failed = sum(1 for d in pool
                     if d in self.rdap and not self.rdap[d].ok)
        return failed / len(pool)

    def detection_delays(self) -> Dict[str, int]:
        """Per-domain (CT − RDAP-creation) for RDAP-resolved candidates."""
        out: Dict[str, int] = {}
        for domain, verdict in self.verdicts.items():
            if verdict.detection_delay is not None:
                out[domain] = verdict.detection_delay
        return out
