"""Zone snapshot diffing — the CZDS consumer's view of registrations.

The paper's baseline for "newly registered domains" is the diff between
two consecutive daily zone snapshots (Table 1's *Zone NRD* column).
:class:`ZoneDelta` captures one such diff; :class:`DiffSequence`
accumulates NRD first-seen times across a whole window of snapshots,
which is exactly the data structure the visibility-gap analyses consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set

from repro.dnscore.zone import ZoneVersion, domains_added, domains_removed, nameserver_changes
from repro.errors import ZoneError


@dataclass(frozen=True)
class ZoneDelta:
    """Difference between two snapshots of the same zone."""

    tld: str
    old_serial: int
    new_serial: int
    old_taken_at: int
    new_taken_at: int
    added: FrozenSet[str]
    removed: FrozenSet[str]
    ns_changed: FrozenSet[str]

    @classmethod
    def between(cls, old: ZoneVersion, new: ZoneVersion) -> "ZoneDelta":
        if old.tld != new.tld:
            raise ZoneError(f"cannot diff different zones: {old.tld} vs {new.tld}")
        return cls(
            tld=old.tld,
            old_serial=old.serial,
            new_serial=new.serial,
            old_taken_at=old.taken_at,
            new_taken_at=new.taken_at,
            added=frozenset(domains_added(old, new)),
            removed=frozenset(domains_removed(old, new)),
            ns_changed=frozenset(nameserver_changes(old, new)),
        )

    @property
    def is_empty(self) -> bool:
        return not (self.added or self.removed or self.ns_changed)

    @property
    def churn(self) -> int:
        """Total changed delegations (adds + removes + NS changes)."""
        return len(self.added) + len(self.removed) + len(self.ns_changed)


class DiffSequence:
    """NRD extraction over an ordered sequence of snapshots of one zone.

    Feeding snapshots in capture order yields :class:`ZoneDelta` objects
    and maintains:

    * ``first_seen`` — snapshot capture time at which each domain first
      appeared in *any* snapshot (the zone-file analyst's notion of
      registration time);
    * ``last_seen`` — capture time of the last snapshot containing it;
    * ``ever_seen`` — union of all snapshot contents.

    A domain that was registered and deleted *between* two snapshot
    captures never enters ``ever_seen`` — that absence is precisely the
    paper's transient-domain blind spot.
    """

    def __init__(self, tld: str) -> None:
        self.tld = tld
        self._previous: Optional[ZoneVersion] = None
        #: Domains of the first snapshot fed: they predate the window.
        self._baseline: Set[str] = set()
        self.first_seen: Dict[str, int] = {}
        self.last_seen: Dict[str, int] = {}
        self.deltas: List[ZoneDelta] = []
        self.snapshots_fed = 0

    @property
    def ever_seen(self) -> Set[str]:
        return set(self.first_seen)

    def feed(self, snapshot: ZoneVersion) -> Optional[ZoneDelta]:
        """Add the next snapshot; returns the delta vs. the previous one.

        The first snapshot establishes the baseline population and
        returns None (its contents are *not* NRDs — they predate the
        window).
        """
        if snapshot.tld != self.tld:
            raise ZoneError(f"snapshot for {snapshot.tld} fed to {self.tld} sequence")
        if self._previous is not None and snapshot.taken_at < self._previous.taken_at:
            raise ZoneError("snapshots must be fed in capture order")
        for domain in snapshot.domains:
            if domain not in self.first_seen:
                self.first_seen[domain] = snapshot.taken_at
            self.last_seen[domain] = snapshot.taken_at
        delta: Optional[ZoneDelta] = None
        if self._previous is not None:
            delta = ZoneDelta.between(self._previous, snapshot)
            self.deltas.append(delta)
        else:
            # Baseline: pre-existing domains are not newly registered.
            self._baseline = snapshot.domains
        self._previous = snapshot
        self.snapshots_fed += 1
        return delta

    def newly_registered(self) -> Dict[str, int]:
        """Domains first seen *after* the baseline snapshot → first-seen ts."""
        baseline = self._baseline
        return {d: ts for d, ts in self.first_seen.items() if d not in baseline}

    def appeared_within(self, domain: str, start: int, end: int) -> bool:
        """Did the domain appear in any snapshot captured in [start, end)?"""
        ts = self.first_seen.get(domain)
        if ts is None:
            return False
        last = self.last_seen.get(domain, ts)
        return ts < end and last >= start
