"""Zone-update cadence inference by SOA serial probing.

The paper validates its cadence assumption empirically: "we validated
this assumption by probing the zones of Figure 1 for SOA serial
changes, and found consistent timestamps" (§4.1).  This module is that
probe: sample a zone's SOA serial on a fixed grid, locate the instants
where it changes, and estimate the provisioning interval from the gaps.

Because serials only move when a provisioning run *changed something*,
quiet zones under-sample the tick grid; the estimator therefore uses
the GCD-like structure of change gaps rather than their mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.analysis.tables import ExperimentReport, TextTable
from repro.analysis.ecdf import format_duration
from repro.errors import ConfigError
from repro.registry.registry import Registry
from repro.simtime.clock import MINUTE, Window


@dataclass(frozen=True)
class CadenceEstimate:
    """Result of probing one zone."""

    tld: str
    probe_interval: int
    observed_changes: int
    #: Estimated seconds between provisioning runs (None: too quiet).
    estimated_interval: Optional[int]
    true_interval: Optional[int] = None

    @property
    def consistent(self) -> bool:
        """Is the estimate within one probe interval of the truth?"""
        if self.estimated_interval is None or self.true_interval is None:
            return False
        return abs(self.estimated_interval - self.true_interval) \
            <= self.probe_interval


def serial_change_times(serial_at: Callable[[int], int], window: Window,
                        probe_interval: int) -> List[int]:
    """Probe instants at which the zone's serial differs from the
    previous probe (the first observation is not a change)."""
    if probe_interval <= 0:
        raise ConfigError("probe interval must be positive")
    changes: List[int] = []
    previous: Optional[int] = None
    ts = window.start
    while ts < window.end:
        serial = serial_at(ts)
        if previous is not None and serial != previous:
            changes.append(ts)
        previous = serial
        ts += probe_interval
    return changes


def estimate_interval(change_times: Sequence[int],
                      probe_interval: int) -> Optional[int]:
    """Estimate the provisioning interval from serial-change instants.

    Gaps between observed changes are integer multiples of the true
    interval (quiet runs skip the serial bump) plus up to one probe
    interval of grid jitter — the provisioning phase is not aligned to
    the probe grid.  The smallest observed gap therefore brackets the
    true interval to within one probe step, provided the zone was busy
    enough that *some* pair of consecutive runs both changed state.
    Needs ≥3 changes.
    """
    if len(change_times) < 3:
        return None
    gaps = [b - a for a, b in zip(change_times, change_times[1:])]
    smallest = min(gaps)
    if smallest <= 0:
        return None
    return max(smallest, probe_interval)


def probe_registry(registry: Registry, window: Window,
                   probe_interval: int = MINUTE) -> CadenceEstimate:
    """Infer one registry's provisioning cadence from its SOA serials."""
    changes = serial_change_times(registry.serial_at, window, probe_interval)
    return CadenceEstimate(
        tld=registry.tld,
        probe_interval=probe_interval,
        observed_changes=len(changes),
        estimated_interval=estimate_interval(changes, probe_interval),
        true_interval=registry.policy.zone_update_interval)


def cadence_report(estimates: Sequence[CadenceEstimate]) -> ExperimentReport:
    """The §4.1 validation table: estimated vs actual cadence per TLD."""
    report = ExperimentReport(
        experiment="§4.1 SOA cadence probe",
        description="zone update cadence inferred from SOA serial changes")
    table = TextTable(["TLD", "changes seen", "estimated", "actual", "ok"],
                      title="SOA serial probing")
    consistent = 0
    measured = 0
    for estimate in estimates:
        if estimate.estimated_interval is None:
            table.add_row(estimate.tld, estimate.observed_changes,
                          "-", format_duration(estimate.true_interval or 0),
                          "quiet")
            continue
        measured += 1
        consistent += estimate.consistent
        table.add_row(
            estimate.tld, estimate.observed_changes,
            format_duration(estimate.estimated_interval),
            format_duration(estimate.true_interval or 0),
            "yes" if estimate.consistent else "NO")
    report.tables.append(table)
    if measured:
        report.compare("cadence estimates consistent with truth",
                       1.0, consistent / measured, abs_tol=0.15)
    report.notes.append(
        'the paper: "we validated this assumption by probing the zones '
        'of Figure 1 for SOA serial changes, and found consistent '
        'timestamps."')
    return report
