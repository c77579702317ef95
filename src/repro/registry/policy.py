"""Per-TLD operational policy.

The paper's Figure 1 shows detection latency differing across TLDs and
attributes it to *zone update cadence*: Verisign updates .com/.net about
every 60 seconds, while other gTLD registries run provisioning batches
every 15--30 minutes (§4.1).  ccTLDs (like .nl) do not participate in
CZDS at all.  :class:`TLDPolicy` captures those knobs, plus CZDS
snapshot timing and RDAP behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.simtime.clock import DAY, HOUR, MINUTE
from repro.simtime.rng import stable_hash01


@dataclass(frozen=True)
class TLDPolicy:
    """Operational parameters of one TLD registry."""

    tld: str
    #: Seconds between zone provisioning runs (SOA serial bumps).
    zone_update_interval: int
    #: Does the registry share daily snapshots through CZDS?
    czds_participant: bool = True
    #: Daily snapshot capture offset from 00:00 UTC, seconds.
    snapshot_offset: int = 0
    #: Typical delay between snapshot capture and CZDS publication.
    publication_delay_mean: int = 2 * HOUR
    #: Probability a given day's snapshot is published days late.
    late_publication_prob: float = 0.01
    #: How late a late snapshot is, seconds (paper allows ±3 days slack).
    late_publication_delay: int = 2 * DAY
    #: Seconds after registration until RDAP exposes the object.
    rdap_sync_lag_mean: int = 3 * MINUTE
    #: RDAP queries allowed per client IP per hour (CentralNic-style).
    rdap_rate_limit_per_hour: int = 7200
    #: Baseline probability an RDAP query fails server-side (rate-limit
    #: bursts, 5xx, connection errors — the paper's ≈3 % NRD failures).
    rdap_server_error_prob: float = 0.028

    def __post_init__(self) -> None:
        if self.zone_update_interval <= 0:
            raise ConfigError(f".{self.tld}: zone_update_interval must be > 0")
        if not 0 <= self.snapshot_offset < DAY:
            raise ConfigError(f".{self.tld}: snapshot_offset outside [0, 1d)")
        if not 0.0 <= self.late_publication_prob <= 1.0:
            raise ConfigError(f".{self.tld}: bad late_publication_prob")
        # The phase is pure in (tld, interval); precomputing it keeps the
        # per-registration tick arithmetic hash-free.
        object.__setattr__(self, "_tick_phase", int(
            stable_hash01(self.tld, "tickphase") * self.zone_update_interval))

    # -- zone tick arithmetic --------------------------------------------------

    def tick_phase(self) -> int:
        """Deterministic per-TLD phase so registries don't tick in sync."""
        return self._tick_phase

    def next_zone_tick(self, ts: int) -> int:
        """First provisioning run at or after ``ts``.

        A registration at ``ts`` becomes visible in DNS (and to CAs
        performing domain validation) at this instant.
        """
        interval = self.zone_update_interval
        phase = self._tick_phase
        elapsed = ts - phase
        runs = -(-elapsed // interval)  # ceil
        return phase + runs * interval

    def tick_index(self, ts: int) -> int:
        """How many provisioning runs happened up to and including ``ts``."""
        interval = self.zone_update_interval
        phase = self._tick_phase
        if ts < phase:
            return 0
        return (ts - phase) // interval + 1

    def snapshot_capture_time(self, day_start: int) -> int:
        """When the snapshot of the day starting at ``day_start`` is taken."""
        return day_start + self.snapshot_offset


def _offset_for(tld: str) -> int:
    """Stable pseudo-random snapshot offset in [0h, 6h)."""
    return int(stable_hash01(tld, "snapoffset") * 6 * HOUR)


def gtld(tld: str, update_interval: int, **overrides) -> TLDPolicy:
    params = dict(tld=tld, zone_update_interval=update_interval,
                  czds_participant=True, snapshot_offset=_offset_for(tld))
    params.update(overrides)
    return TLDPolicy(**params)


def cctld(tld: str, update_interval: int = 30 * MINUTE, **overrides) -> TLDPolicy:
    """ccTLDs do not share zone files through CZDS (paper §2, §4.4)."""
    params = dict(tld=tld, zone_update_interval=update_interval,
                  czds_participant=False, snapshot_offset=_offset_for(tld))
    params.update(overrides)
    return TLDPolicy(**params)


#: Verisign-operated zones update every ~60 s; other gTLDs every 15-30 min
#: (paper §4.1).  Intervals for non-Verisign TLDs are spread determini-
#: stically across [15, 30] minutes.
def _spread_interval(tld: str) -> int:
    return 15 * MINUTE + int(stable_hash01(tld, "updint") * 15 * MINUTE)


_GTLDS: Tuple[str, ...] = (
    "com", "net", "org", "xyz", "shop", "online", "bond", "top", "site",
    "store", "fun", "icu", "info", "biz", "live", "club", "vip", "lol",
    "cfd", "sbs", "click", "pro",
)

DEFAULT_POLICIES: Dict[str, TLDPolicy] = {}
for _tld in _GTLDS:
    if _tld in ("com", "net"):
        DEFAULT_POLICIES[_tld] = gtld(_tld, MINUTE)
    else:
        DEFAULT_POLICIES[_tld] = gtld(_tld, _spread_interval(_tld))
#: The ground-truth ccTLD of §4.4 (".nl" stands in for the mid-size
#: European registry), plus neighbours used in examples.
for _tld in ("nl", "de", "be", "eu"):
    DEFAULT_POLICIES[_tld] = cctld(_tld)


def policy_for(tld: str) -> TLDPolicy:
    try:
        return DEFAULT_POLICIES[tld]
    except KeyError:
        raise ConfigError(f"no default policy for TLD {tld!r}") from None
