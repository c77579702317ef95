"""The probe scheduler: a time-ordered queue over lazy probe grids.

The paper's monitor owes each newly observed domain a 10-minute ×
48-hour probe grid — 288 instants per domain, millions of probes at
feed scale.  Materialising every instant up-front would make the queue
as large as the workload; instead the scheduler keeps exactly one
*pending* grid entry per domain (plus any retries) and generates the
next instant only after the current one executes.  Queue depth is
therefore O(active domains), not O(domains × grid).

Ordering is a binary heap on ``(due, band, seq)`` where ``seq`` is a
global admission counter: among entries due at the same instant,
first-queued runs first.  Rate-limit stalls re-enter through
:meth:`defer` in a lower priority band, so a stalled entry yields to
*all* on-time work at its new due instant — including work queued
after the deferral — and that discipline is what keeps one throttled
authority from starving everything else (starvation fairness is
asserted in the test suite).

Per-domain jitter (deterministic, from :func:`stable_hash01`) offsets a
domain's whole grid by up to ``jitter`` seconds so fleet-scale load
does not arrive in lockstep waves.  Jitter defaults to 0 because the
scan ≡ loop equivalence property only holds on the exact grid.

Early termination: :meth:`terminate` marks a domain's fate as resolved
(delegation observed removed, or NXDOMAIN-stable past the configured
streak); its queued entries are dropped lazily on pop.
"""

from __future__ import annotations

import heapq
from typing import Dict, Optional

from repro.dnscore.records import RRType
from repro.errors import ScanError
from repro.simtime.rng import stable_hash01


class ProbeEntry:
    """One unit of schedulable work.

    ``kind is None`` means a *grid* entry (the engine probes every
    still-needed qtype at this instant); a concrete :class:`RRType`
    means a single-probe entry — a retry, or the stalled tail of a
    partially rate-limited instant.  ``nominal`` is the originally
    scheduled due time — deferrals move ``due`` but never ``nominal``,
    so ``executed - nominal`` is the probe lag the metrics report.

    A plain ``__slots__`` class, not a dataclass: the engine creates
    one per grid instant per domain, and that allocation sits on the
    hottest path the scan benchmark measures.
    """

    __slots__ = ("domain", "grid_index", "due", "nominal", "kind", "attempt",
                 "state")

    def __init__(self, domain: str, grid_index: int, due: int, nominal: int,
                 kind: Optional[RRType] = None, attempt: int = 0,
                 state: "Optional[_DomainSchedule]" = None) -> None:
        self.domain = domain
        self.grid_index = grid_index
        self.due = due
        self.nominal = nominal
        self.kind = kind
        self.attempt = attempt
        # The domain's schedule, carried on the entry so the hot path
        # (pop / advance, millions of calls) skips the dict lookup.
        self.state = state


class _DomainSchedule:
    __slots__ = ("start", "jitter", "grid_len", "next_index", "terminated")

    def __init__(self, start: int, jitter: int, grid_len: int) -> None:
        self.start = start
        self.jitter = jitter
        self.grid_len = grid_len
        self.next_index = 0
        self.terminated = False


class ProbeScheduler:
    """Lazy per-domain probe grids merged into one time-ordered queue."""

    def __init__(self, probe_interval: int, duration: int,
                 jitter: int = 0) -> None:
        if probe_interval <= 0:
            raise ScanError(f"probe interval must be positive: {probe_interval}")
        if duration <= 0:
            raise ScanError(f"probe duration must be positive: {duration}")
        if not 0 <= jitter < probe_interval:
            raise ScanError(
                f"jitter must lie in [0, interval): {jitter} vs {probe_interval}")
        self.probe_interval = probe_interval
        self.duration = duration
        self.jitter = jitter
        self._heap: list = []
        self._seq = 0
        self._domains: Dict[str, _DomainSchedule] = {}

    # -- admission -------------------------------------------------------------

    def add_domain(self, domain: str, start: int) -> int:
        """Admit a domain's probe grid beginning at ``start``.

        Returns the number of grid instants the window covers.  Only the
        first instant is queued; the rest generate lazily via
        :meth:`advance`.
        """
        if domain in self._domains:
            raise ScanError(f"{domain} is already scheduled")
        grid_len = -(-self.duration // self.probe_interval)  # ceil
        offset = (int(stable_hash01(domain, "scan-jitter") * self.jitter)
                  if self.jitter else 0)
        state = _DomainSchedule(start, offset, grid_len)
        self._domains[domain] = state
        self._push_grid(domain, state)
        return grid_len

    def _push_grid(self, domain: str, state: _DomainSchedule) -> None:
        due = (state.start + state.next_index * self.probe_interval
               + state.jitter)
        self._push(ProbeEntry(domain, state.next_index, due, due,
                              state=state))

    def _push(self, entry: ProbeEntry, band: int = 0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (entry.due, band, self._seq, entry))

    # -- consumption -----------------------------------------------------------

    def pop(self) -> Optional[ProbeEntry]:
        """Next due entry in (due, admission) order, or None when empty.

        Entries belonging to terminated domains are dropped here rather
        than eagerly removed from the heap.
        """
        while self._heap:
            _, _, _, entry = heapq.heappop(self._heap)
            if entry.state.terminated:
                continue
            return entry
        return None

    def advance(self, domain: str) -> bool:
        """Queue the domain's next grid instant; False when exhausted."""
        return self._advance(domain, self._domains[domain])

    def advance_entry(self, entry: ProbeEntry) -> bool:
        """:meth:`advance` via a popped entry — no domain lookup."""
        return self._advance(entry.domain, entry.state)

    def _advance(self, domain: str, state: _DomainSchedule) -> bool:
        if state.terminated:
            return False
        state.next_index += 1
        if state.next_index >= state.grid_len:
            return False
        self._push_grid(domain, state)
        return True

    def schedule_retry(self, domain: str, kind: RRType, due: int,
                       nominal: int, attempt: int, grid_index: int,
                       band: int = 0) -> None:
        """Queue a single-probe entry (a retry, or — with ``band=1`` —
        the stalled tail of a partially rate-limited instant)."""
        self._push(ProbeEntry(domain, grid_index, due, nominal,
                              kind=kind, attempt=attempt,
                              state=self._domains[domain]), band=band)

    def defer(self, entry: ProbeEntry, new_due: int) -> None:
        """Re-queue a stalled entry at ``new_due``, behind on-time work."""
        if new_due <= entry.due:
            new_due = entry.due + 1
        entry.due = new_due
        self._push(entry, band=1)

    # -- termination / introspection -------------------------------------------

    def terminate(self, domain: str) -> None:
        """Resolve the domain's fate: drop all of its future work."""
        state = self._domains.get(domain)
        if state is not None:
            state.terminated = True

    def grid_size(self, domain: str) -> int:
        return self._domains[domain].grid_len

    def __len__(self) -> int:
        """Queued entries (may include not-yet-dropped terminated ones)."""
        return len(self._heap)

    @property
    def domain_count(self) -> int:
        return len(self._domains)
