"""Ground-truth labelling of lifecycles against the snapshot archive.

The paper's population definitions, computed from the registry view:

* **zone NRD** — appeared as new in the daily snapshot diffs (Table 1's
  denominator);
* **transient (truth)** — registered in the window, deleted, and never
  captured by any snapshot (§4.2's definition, which the pipeline can
  only lower-bound);
* **early-removed** — an NRD deleted before the end of the analysis
  period, but *captured* by snapshots (§4.3's 555 491 population).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.czds.archive import SnapshotArchive
from repro.registry.lifecycle import DomainLifecycle
from repro.registry.registry import RegistryGroup
from repro.simtime.clock import Window


@dataclass
class GroundTruth:
    """Label index over a scenario's lifecycles."""

    registries: RegistryGroup
    archive: SnapshotArchive
    window: Window

    def registrations(self) -> Iterator[DomainLifecycle]:
        """All lifecycles created inside the analysis window."""
        for registry in self.registries:
            for lifecycle in registry.lifecycles():
                if lifecycle.created_at in self.window:
                    yield lifecycle

    # -- population predicates -----------------------------------------------------

    def is_zone_nrd(self, lifecycle: DomainLifecycle) -> bool:
        return self.archive.is_zone_nrd(lifecycle)

    def is_true_transient(self, lifecycle: DomainLifecycle) -> bool:
        """Created in-window, deleted, never captured by a snapshot."""
        if lifecycle.created_at not in self.window:
            return False
        if lifecycle.removed_at is None:
            return False
        if lifecycle.held:
            # Held domains never reach the zone but are not transient
            # registrations — they persist in RDAP.
            return False
        return not self.archive.appears_ever(lifecycle)

    def is_early_removed(self, lifecycle: DomainLifecycle,
                         cutoff: Optional[int] = None) -> bool:
        """An NRD captured by snapshots but deleted before ``cutoff``
        (default: end of the analysis window)."""
        cutoff = cutoff if cutoff is not None else self.window.end
        if lifecycle.created_at not in self.window:
            return False
        if lifecycle.removed_at is None or lifecycle.removed_at >= cutoff:
            return False
        return self.archive.appears_ever(lifecycle)

    # -- population sets ------------------------------------------------------------

    def zone_nrds(self) -> List[DomainLifecycle]:
        return [lc for lc in self.registrations() if self.is_zone_nrd(lc)]

    def true_transients(self) -> List[DomainLifecycle]:
        return [lc for lc in self.registrations() if self.is_true_transient(lc)]

    def early_removed(self, cutoff: Optional[int] = None) -> List[DomainLifecycle]:
        return [lc for lc in self.registrations()
                if self.is_early_removed(lc, cutoff)]

    def malicious(self) -> List[DomainLifecycle]:
        return [lc for lc in self.registrations() if lc.is_malicious]

    # -- aggregates -------------------------------------------------------------------

    def zone_nrd_counts_by_tld(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for lifecycle in self.zone_nrds():
            counts[lifecycle.tld] = counts.get(lifecycle.tld, 0) + 1
        return counts

    def transient_counts_by_tld(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for lifecycle in self.true_transients():
            counts[lifecycle.tld] = counts.get(lifecycle.tld, 0) + 1
        return counts

    def cctld_registry_view(self, tld: str) -> Dict[str, int]:
        """The §4.4 registry ground truth for one ccTLD.

        Returns counts: registrations, deleted under 24 h, and deleted
        under 24 h without ever being captured in a zone snapshot.
        """
        registry = self.registries.get(tld)
        regs = registry.registrations_in(self.window.start, self.window.end)
        under_day = [lc for lc in regs if lc.removed_within_a_day]
        never_snap = [lc for lc in under_day
                      if not self.archive.covers(tld)
                      or not self.archive.appears_ever(lc)]
        return {
            "registrations": len(regs),
            "deleted_under_24h": len(under_day),
            "never_in_snapshots": len(never_snap),
        }
