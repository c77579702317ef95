"""The zone snapshot archive — the collector's accumulated CZDS files.

Exposes the two views the pipeline and the analyses need:

* the **pipeline view** (:meth:`in_latest_published`): is this domain in
  the newest snapshot file available right now?  (Step 1's filter.)
* the **analyst view** (:meth:`first_appearance`,
  :meth:`appears_within`): when, if ever, did a domain surface in the
  zone files?  (Zone-NRD extraction for Table 1; the ±3-day transient
  exclusion rule of §4.2.)

Membership is computed *analytically* from registry ground truth — a
domain is in the snapshot captured at time `c` iff its delegation was
published at `c` — which is exactly what materialising every file would
yield, without holding 92 × zone-size sets in memory.
:meth:`materialize` builds real :class:`~repro.dnscore.zone.ZoneVersion`
objects for tests and small scenarios, and a property test pins the two
implementations together.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional

from repro.dnscore import name as dnsname
from repro.dnscore.zone import ZoneVersion
from repro.dnscore.zonediff import DiffSequence
from repro.errors import ConfigError
from repro.czds.snapshot import SnapshotSchedule
from repro.registry.lifecycle import DomainLifecycle
from repro.registry.registry import RegistryGroup
from repro.simtime.clock import DAY, Window


class SnapshotArchive:
    """All snapshot files the collector has for a set of TLDs."""

    def __init__(self, registries: RegistryGroup, window: Window,
                 interval: int = DAY,
                 covered_tlds: Optional[Iterable[str]] = None) -> None:
        self.registries = registries
        self.window = window
        self.interval = interval
        self._schedules: Dict[str, SnapshotSchedule] = {}
        covered = (set(covered_tlds) if covered_tlds is not None
                   else {r.tld for r in registries if r.policy.czds_participant})
        for registry in registries:
            if registry.tld in covered:
                self._schedules[registry.tld] = SnapshotSchedule(
                    registry.policy, window, interval=interval)

    # -- coverage -------------------------------------------------------------

    @property
    def covered_tlds(self) -> List[str]:
        return sorted(self._schedules)

    def covers(self, tld: str) -> bool:
        return tld in self._schedules

    def schedule(self, tld: str) -> SnapshotSchedule:
        try:
            return self._schedules[tld]
        except KeyError:
            raise ConfigError(f"no snapshots collected for .{tld}") from None

    # -- pipeline view -----------------------------------------------------------

    def in_latest_published(self, domain: str, ts: int) -> bool:
        """Step-1 filter: does the newest *available* file list the domain?

        Uncovered TLDs (ccTLDs outside the collection) return False —
        nothing to filter against, every cert looks new.
        """
        # normalize returns the interned Name: identity for the
        # pre-interned pipeline path, and the TLD is a cached slot.
        norm = dnsname.normalize(domain)
        schedule = self._schedules.get(norm.tld)
        if schedule is None:
            return False
        meta = schedule.latest_published(ts)
        if meta is None:
            return False
        lifecycle = self.registries.find_lifecycle(norm)
        if lifecycle is None:
            return False
        return lifecycle.in_zone_at(meta.capture_ts)

    # -- analyst view -----------------------------------------------------------------

    def capture_membership(self, lifecycle: DomainLifecycle) -> List[int]:
        """Capture times of every snapshot that contains the domain.

        O(1) segments instead of O(#snapshots) membership checks: the
        delegation interval [zone_added_at, zone_removed_at) is
        intersected with the capture grid.
        """
        schedule = self._schedules.get(lifecycle.tld)
        if schedule is None or lifecycle.zone_added_at is None:
            return []
        captures = schedule.capture_times()
        lo = bisect_left(captures, lifecycle.zone_added_at)
        hi = (bisect_left(captures, lifecycle.zone_removed_at)
              if lifecycle.zone_removed_at is not None else len(captures))
        return captures[lo:hi]

    def first_appearance(self, lifecycle: DomainLifecycle) -> Optional[int]:
        """Capture time of the first file containing the domain, if any."""
        membership = self.capture_membership(lifecycle)
        return membership[0] if membership else None

    def appears_ever(self, lifecycle: DomainLifecycle) -> bool:
        return bool(self.capture_membership(lifecycle))

    def is_zone_nrd(self, lifecycle: DomainLifecycle) -> bool:
        """Did this domain appear as *new* in the snapshot diffs?

        True when its first appearance is after the baseline snapshot —
        i.e. a zone-file analyst running daily diffs would have flagged
        it.  (Table 1's Zone NRD column counts these.)
        """
        first = self.first_appearance(lifecycle)
        if first is None:
            return False
        return first > self.schedule(lifecycle.tld).baseline().capture_ts

    # -- materialisation (tests / small scenarios) ---------------------------------

    def materialize(self, tld: str) -> Iterator[ZoneVersion]:
        """Build the actual snapshot files for one zone, capture order."""
        registry = self.registries.get(tld)
        for meta in self.schedule(tld).metas():
            yield registry.zone_version_at(meta.capture_ts)

    def diff_sequence(self, tld: str) -> DiffSequence:
        """Feed all materialised snapshots through zone-diff extraction."""
        sequence = DiffSequence(tld)
        for version in self.materialize(tld):
            sequence.feed(version)
        return sequence
