"""The commercial passive-DNS NOD feed (DomainTools SIE stand-in).

§4.4 compares the paper's CT-based public feed against one day of the
SIE *Newly Observed Domains* feed.  NOD is powered by passive DNS: a
domain enters the feed when sensor-covered resolvers first see queries
for it.  That gives it a different blind spot than CT — no certificate
needed, but somebody must *look up* the domain inside the sensor
footprint.

The model assigns each domain a NOD detection (and first-seen time)
conditioned on whether the CT channel also sees it, with separate
conditional probabilities for ordinary NRDs and for transient-class
domains.  The defaults solve the paper's reported marginals:

* NRDs: NOD detects ≈5 % more than the CT method; the intersection is
  ≈60 % of the union.
* Transients: NOD detects ≈10 % more; only ≈33 % of the union is seen
  by both — the two feeds are substantially disjoint, which is the
  paper's argument for combining them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set

from repro.registry.lifecycle import DomainLifecycle
from repro.simtime.clock import DAY, MINUTE
from repro.simtime.rng import stable_hash01


@dataclass(frozen=True)
class NODConfig:
    """Conditional detection probabilities (see module docstring).

    ``p_nrd_given_ct``: P(NOD sees an NRD | CT feed saw it), etc.  The
    defaults are derived in ``docs`` of :mod:`repro.analysis.visibility`
    from the paper's overlap arithmetic.
    """

    p_nrd_given_ct: float = 0.77
    p_nrd_given_no_ct: float = 0.20
    p_transient_given_ct: float = 0.52
    p_transient_given_no_ct: float = 0.25
    #: First-seen delay after zone publication: fast for domains that
    #: get traffic immediately, hours otherwise.
    min_delay: int = 2 * MINUTE
    median_delay: int = 40 * MINUTE


class NODFeed:
    """Per-domain NOD detection decisions, deterministic by domain name."""

    def __init__(self, config: NODConfig = NODConfig(), salt: str = "nod") -> None:
        self.config = config
        self.salt = salt

    def _prob(self, ct_detected: bool, transient_class: bool) -> float:
        cfg = self.config
        if transient_class:
            return cfg.p_transient_given_ct if ct_detected else cfg.p_transient_given_no_ct
        return cfg.p_nrd_given_ct if ct_detected else cfg.p_nrd_given_no_ct

    def detects(self, lifecycle: DomainLifecycle, ct_detected: bool,
                transient_class: Optional[bool] = None) -> bool:
        """Does the NOD feed ever list this domain?

        Detection requires the delegation to have been published (passive
        DNS cannot see a domain that never resolved) and the sensor draw
        to succeed.
        """
        if lifecycle.zone_added_at is None:
            return False
        if transient_class is None:
            transient_class = lifecycle.removed_within_a_day
        prob = self._prob(ct_detected, transient_class)
        draw = stable_hash01(lifecycle.domain, self.salt)
        if draw >= prob:
            return False
        # The first query must land while the domain still resolves.
        first_seen = self.first_seen(lifecycle)
        if first_seen is None:
            return False
        return True

    def first_seen(self, lifecycle: DomainLifecycle) -> Optional[int]:
        """Passive-DNS first-seen timestamp, or None if unresolvable.

        Lognormal-ish delay after zone publication, clipped to the
        domain's zone lifetime — a query cannot be observed after the
        delegation is gone.
        """
        if lifecycle.zone_added_at is None:
            return None
        u = stable_hash01(lifecycle.domain, self.salt + "-delay")
        # Map u in [0,1) onto a heavy-tailed delay: median at
        # ``median_delay``, x4 at u=0.9 (deterministic quantile trick).
        scale = (u / (1 - u)) if u < 0.999 else 999.0
        delay = self.config.min_delay + int(self.config.median_delay * scale)
        first_seen = lifecycle.zone_added_at + delay
        if (lifecycle.zone_removed_at is not None
                and first_seen >= lifecycle.zone_removed_at):
            # Squeeze into the live interval when possible (sensors tend
            # to see actively used domains quickly), else undetected.
            live = lifecycle.zone_removed_at - lifecycle.zone_added_at
            if live <= self.config.min_delay:
                return None
            first_seen = lifecycle.zone_added_at + max(
                self.config.min_delay, int(live * u))
            if first_seen >= lifecycle.zone_removed_at:
                return None
        return first_seen

    def feed_for_day(self, lifecycles: Iterable[DomainLifecycle],
                     day_start: int,
                     ct_detected: Set[str]) -> Dict[str, int]:
        """The NOD feed file for one day: domain → first-seen ts.

        Mirrors the §4.4 comparison setup: only domains whose RDAP
        creation date falls on the comparison day are considered.
        """
        out: Dict[str, int] = {}
        day_end = day_start + DAY
        for lifecycle in lifecycles:
            if not day_start <= lifecycle.created_at < day_end:
                continue
            if not self.detects(lifecycle, lifecycle.domain in ct_detected):
                continue
            first_seen = self.first_seen(lifecycle)
            if first_seen is not None:
                out[lifecycle.domain] = first_seen
        return out
