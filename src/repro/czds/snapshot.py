"""Zone snapshot capture and publication schedules.

CZDS shares one snapshot per zone per day; capture happens at a
registry-specific hour, and *publication* trails capture by hours — or,
occasionally, days ("zone file publication may be delayed by days",
paper §3).  Both clocks matter:

* **capture time** decides which domains are in the file — a domain
  registered and removed between captures is invisible forever;
* **publication time** decides what the *pipeline* can filter against —
  a late file widens the step-1 candidate stream and adds tail latency.

:class:`SnapshotSchedule` generates the (capture, publish) pairs for one
TLD over a window; the cadence is configurable so the Rapid-Zone-Update
ablation can sweep it from 24 h down to 5 min.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError
from repro.registry.policy import TLDPolicy
from repro.simtime.clock import DAY, Window, day_floor
from repro.simtime.rng import stable_hash01


@dataclass(frozen=True)
class SnapshotMeta:
    """Capture/publication metadata of one snapshot."""

    tld: str
    capture_ts: int
    publish_ts: int
    index: int

    @property
    def publication_delay(self) -> int:
        return self.publish_ts - self.capture_ts


class SnapshotSchedule:
    """Deterministic snapshot timing for one TLD over a window."""

    def __init__(self, policy: TLDPolicy, window: Window,
                 interval: int = DAY,
                 lead_in: int = DAY) -> None:
        if interval <= 0:
            raise ConfigError("snapshot interval must be positive")
        self.policy = policy
        self.tld = policy.tld
        self.window = window
        self.interval = interval
        #: One pre-window snapshot establishes the diff baseline.
        self.lead_in = lead_in
        self._metas: Optional[List[SnapshotMeta]] = None
        self._capture_times: Optional[List[int]] = None

    def _publication_delay(self, capture_ts: int) -> int:
        """Deterministic per-snapshot publication delay."""
        u = stable_hash01(f"{self.tld}|{capture_ts}", "pubdelay")
        if u < self.policy.late_publication_prob:
            # A late file: the paper compensates with ±3 days slack.
            extra = stable_hash01(f"{self.tld}|{capture_ts}", "pubdelay-late")
            return self.policy.late_publication_delay + int(extra * DAY)
        # Exponential-ish spread around the mean, never instantaneous.
        mean = self.policy.publication_delay_mean
        return max(10 * 60, int(mean * (0.25 + 1.5 * u)))

    def metas(self) -> List[SnapshotMeta]:
        """All snapshots (including the lead-in baseline), capture order."""
        if self._metas is not None:
            return self._metas
        metas: List[SnapshotMeta] = []
        start = day_floor(self.window.start - self.lead_in)
        first_capture = start + self.policy.snapshot_offset % min(self.interval, DAY)
        ts = first_capture
        index = 0
        while ts < self.window.end:
            metas.append(SnapshotMeta(
                tld=self.tld, capture_ts=ts,
                publish_ts=ts + self._publication_delay(ts), index=index))
            ts += self.interval
            index += 1
        self._metas = metas
        return metas

    def capture_times(self) -> List[int]:
        """Sorted capture instants (cached — hot in membership checks)."""
        if self._capture_times is None:
            self._capture_times = [m.capture_ts for m in self.metas()]
        return self._capture_times

    def baseline(self) -> SnapshotMeta:
        return self.metas()[0]

    def _publish_index(self) -> Tuple[List[int], List[SnapshotMeta]]:
        """Sorted publish times with prefix-max capture metas (cached)."""
        cached = getattr(self, "_pub_index", None)
        if cached is not None:
            return cached
        ordered = sorted(self.metas(), key=lambda m: (m.publish_ts, m.capture_ts))
        publish_times: List[int] = []
        best_so_far: List[SnapshotMeta] = []
        best: Optional[SnapshotMeta] = None
        for meta in ordered:
            if best is None or meta.capture_ts > best.capture_ts:
                best = meta
            publish_times.append(meta.publish_ts)
            best_so_far.append(best)
        self._pub_index = (publish_times, best_so_far)
        return self._pub_index

    def latest_published(self, ts: int) -> Optional[SnapshotMeta]:
        """The most recent snapshot whose *file is available* at ``ts``.

        "Most recent" means newest capture among published files: a
        late-published old file never shadows a newer one already out.
        """
        publish_times, best_so_far = self._publish_index()
        idx = bisect_right(publish_times, ts)
        if idx == 0:
            return None
        return best_so_far[idx - 1]

    def first_capture_at_or_after(self, ts: int) -> Optional[SnapshotMeta]:
        for meta in self.metas():
            if meta.capture_ts >= ts:
                return meta
        return None

    def captures_between(self, start: int, end: int) -> List[SnapshotMeta]:
        """Snapshots captured in ``[start, end)``."""
        return [m for m in self.metas() if start <= m.capture_ts < end]
