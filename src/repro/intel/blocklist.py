"""Blocklist models — the ten lists of §4.3.

The paper polls ten public blocklists daily (1 Nov 2023 → 29 Apr 2024)
and asks, for every early-removed and transient domain, *whether* and
*when* it was flagged relative to its registration and deletion.  The
headline: blocklists flag only 5 % of transient domains, and 94 % of
those flags land **after the domain is already gone** — blocklists are
reactive, driven by reports of in-the-wild abuse, so domains that die
in hours outrun them.

Each :class:`Blocklist` model captures that mechanism:

* a per-kind coverage probability (a phishing list rarely flags
  malware-only domains);
* a report lag drawn from a lognormal in *days* — flags are evaluated
  against the daily polling grid, like the paper's collector;
* an attenuation factor once the domain is deleted — evidence dries up
  when the campaign stops, so lists flag dead domains at a reduced
  rate, not never (94 % of transient flags are post-deletion precisely
  because *some* reports still trickle in);
* a tiny probability the name is *already listed* before registration
  (re-registration of a previously abusive name).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.registry.lifecycle import AbuseKind, DomainLifecycle
from repro.simtime.clock import BLOCKLIST_WINDOW, DAY, HOUR, Window, day_floor
from repro.simtime.rng import RngStream


@dataclass(frozen=True)
class BlocklistEntry:
    """One (list, domain) flag event."""

    list_name: str
    domain: str
    flagged_at: int


@dataclass(frozen=True)
class Blocklist:
    """One public blocklist's detection behaviour."""

    name: str
    #: Abuse kinds this list covers and the per-kind flag probability.
    coverage: Tuple[Tuple[AbuseKind, float], ...]
    #: Median report lag (registration → flag) and its log-sd, seconds.
    lag_median: int = int(2.5 * DAY)
    lag_sigma: float = 1.0
    #: Multiplier on flag probability when the lag lands after deletion.
    post_deletion_factor: float = 0.25
    #: Probability the name was already listed before registration.
    pre_listed_prob: float = 0.0002

    def coverage_for(self, kind: Optional[AbuseKind]) -> float:
        if kind is None:
            return 0.0
        for covered, prob in self.coverage:
            if covered is kind:
                return prob
        return 0.0

    def evaluate(self, lifecycle: DomainLifecycle,
                 rng: RngStream,
                 window: Window = BLOCKLIST_WINDOW) -> Optional[BlocklistEntry]:
        """Decide if/when this list flags the domain.

        Deterministic per (list, domain): the caller hands a child RNG
        stream derived from both names.
        """
        if not lifecycle.is_malicious:
            return None
        # Pre-registration listing (re-registered abusive name).
        if rng.bernoulli(self.pre_listed_prob):
            flagged_at = lifecycle.created_at - int(
                rng.uniform(5 * DAY, 120 * DAY))
            return BlocklistEntry(self.name, lifecycle.domain,
                                  max(flagged_at, window.start))
        prob = self.coverage_for(lifecycle.abuse_kind)
        if prob <= 0.0:
            return None
        lag = int(rng.lognormal_from_median(self.lag_median, self.lag_sigma))
        flagged_at = lifecycle.created_at + lag
        # Daily polling grid: the collector sees flags at day granularity.
        flagged_at = day_floor(flagged_at) + 12 * HOUR
        if flagged_at >= window.end:
            return None
        if lifecycle.removed_at is not None and flagged_at >= lifecycle.removed_at:
            prob *= self.post_deletion_factor
        if not rng.bernoulli(prob):
            return None
        return BlocklistEntry(self.name, lifecycle.domain, flagged_at)


def _cov(*pairs: Tuple[AbuseKind, float]) -> Tuple[Tuple[AbuseKind, float], ...]:
    return tuple(pairs)


#: The ten lists the paper polls (§4.3), with kind affinities.
DEFAULT_BLOCKLISTS: Tuple[Blocklist, ...] = (
    Blocklist("DBL", _cov((AbuseKind.SPAM, 0.080), (AbuseKind.PHISHING, 0.040),
                          (AbuseKind.FRAUD, 0.024)),
              lag_median=int(1.5 * DAY)),
    Blocklist("PhishTank", _cov((AbuseKind.PHISHING, 0.048)),
              lag_median=int(2 * DAY)),
    Blocklist("PhishingArmy", _cov((AbuseKind.PHISHING, 0.040)),
              lag_median=int(2.5 * DAY)),
    Blocklist("Cybercrime-tracker", _cov((AbuseKind.MALWARE, 0.024),
                                         (AbuseKind.FRAUD, 0.016)),
              lag_median=int(4 * DAY)),
    Blocklist("Toulouse", _cov((AbuseKind.MALWARE, 0.024),
                               (AbuseKind.FRAUD, 0.016),
                               (AbuseKind.SPAM, 0.016)),
              lag_median=int(5 * DAY)),
    Blocklist("DigitalSide", _cov((AbuseKind.MALWARE, 0.024)),
              lag_median=int(3 * DAY)),
    Blocklist("OpenPhish", _cov((AbuseKind.PHISHING, 0.040)),
              lag_median=int(2 * DAY)),
    Blocklist("VXVault", _cov((AbuseKind.MALWARE, 0.016)),
              lag_median=int(4 * DAY)),
    Blocklist("Ponmocup", _cov((AbuseKind.MALWARE, 0.016)),
              lag_median=int(6 * DAY)),
    Blocklist("Quidsup", _cov((AbuseKind.SPAM, 0.024), (AbuseKind.FRAUD, 0.016)),
              lag_median=int(5 * DAY)),
)


class BlocklistPanel:
    """The collector's view across all ten lists."""

    def __init__(self, lists: Iterable[Blocklist] = DEFAULT_BLOCKLISTS,
                 seed: int = 0, window: Window = BLOCKLIST_WINDOW) -> None:
        self.lists = tuple(lists)
        self.seed = seed
        self.window = window
        self._cache: Dict[str, List[BlocklistEntry]] = {}

    def entries_for(self, lifecycle: DomainLifecycle) -> List[BlocklistEntry]:
        """All flag events for one domain (cached, deterministic)."""
        found = self._cache.get(lifecycle.domain)
        if found is not None:
            return found
        entries: List[BlocklistEntry] = []
        for blocklist in self.lists:
            rng = RngStream(self.seed, "blocklist", blocklist.name,
                            lifecycle.domain)
            entry = blocklist.evaluate(lifecycle, rng, self.window)
            if entry is not None:
                entries.append(entry)
        entries.sort(key=lambda e: e.flagged_at)
        self._cache[lifecycle.domain] = entries
        return entries

    def first_flag(self, lifecycle: DomainLifecycle) -> Optional[BlocklistEntry]:
        entries = self.entries_for(lifecycle)
        return entries[0] if entries else None

    def is_flagged(self, lifecycle: DomainLifecycle) -> bool:
        return bool(self.entries_for(lifecycle))
