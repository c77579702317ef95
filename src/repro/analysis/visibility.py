"""§4.4 and the RZU ablation: how big is the visibility gap?

Three quantifications:

* **NOD comparison (§4.4a)** — our CT feed vs the passive-DNS NOD feed
  for one day of NRDs (NOD sees ≈5 % more; intersection ≈60 % of the
  union) and for transients (union 855, only 33 % seen by both).
* **ccTLD ground truth (§4.4b)** — the registry's own logs: 714 domains
  deleted <24 h, 334 never captured by snapshots, of which the method
  recovers 99 (29.6 %).
* **RZU sweep (Ablation A)** — re-read one world's zones at snapshot
  cadences from 24 h down to 5 min and watch the transient blind spot
  close; this is the paper's §5 argument made quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro import paperdata
from repro.analysis.ecdf import ECDF, format_duration
from repro.analysis.tables import ExperimentReport, TextTable
from repro.core.records import PipelineResult
from repro.czds.archive import SnapshotArchive
from repro.intel.labels import GroundTruth
from repro.simtime.clock import DAY, HOUR, MINUTE, day_floor
from repro.workload.scenario import ScenarioConfig, World, build_world


# ---------------------------------------------------------------------------
# §4.4a — the NOD feed comparison
# ---------------------------------------------------------------------------

@dataclass
class NODComparison:
    """One-day NRD overlap + whole-window transient overlap."""

    day_start: int
    ours_day: Set[str]
    nod_day: Set[str]
    ours_transient: Set[str]
    nod_transient: Set[str]

    @classmethod
    def from_result(cls, world: World, result: PipelineResult,
                    day_start: Optional[int] = None) -> "NODComparison":
        truth = world.ground_truth
        ct_detected = set(result.candidates)

        if day_start is None:
            # Pick the busiest full day of the window, like the paper
            # picked one day with both feeds available.
            counts: Dict[int, int] = {}
            for domain, rdap in result.rdap.items():
                if rdap.record is not None:
                    counts.setdefault(day_floor(rdap.record.created_at), 0)
                    counts[day_floor(rdap.record.created_at)] += 1
            day_start = max(counts, key=counts.get) if counts else world.window.start

        ours_day = {
            domain for domain, rdap in result.rdap.items()
            if rdap.record is not None
            and day_floor(rdap.record.created_at) == day_start
            and result.candidates[domain].tld != world.cctld_tld
        }
        nod_day: Set[str] = set()
        for registry in world.registries:
            if registry.tld == world.cctld_tld:
                continue
            for lifecycle in registry.lifecycles():
                if day_floor(lifecycle.created_at) != day_start:
                    continue
                if world.nod.detects(lifecycle, lifecycle.domain in ct_detected):
                    nod_day.add(lifecycle.domain)

        # Transients: aggregated over the window (the scaled world's
        # per-day transient counts are too small for a one-day cut).
        cc_suffix = ("." + world.cctld_tld) if world.cctld_tld else None
        ours_transient = set()
        for domain in result.transient_candidates:
            if cc_suffix and domain.endswith(cc_suffix):
                continue  # §4.4a compares gTLD feeds only
            lifecycle = world.registries.find_lifecycle(domain)
            if lifecycle is not None and truth.is_true_transient(lifecycle):
                ours_transient.add(domain)
        nod_transient: Set[str] = set()
        for lifecycle in truth.true_transients():
            if lifecycle.tld == world.cctld_tld:
                continue
            if world.nod.detects(lifecycle, lifecycle.domain in ct_detected,
                                 transient_class=True):
                nod_transient.add(lifecycle.domain)
        return cls(day_start=day_start, ours_day=ours_day, nod_day=nod_day,
                   ours_transient=ours_transient, nod_transient=nod_transient)

    # -- metrics -------------------------------------------------------------

    @property
    def nod_extra_factor(self) -> float:
        return len(self.nod_day) / len(self.ours_day) if self.ours_day else 0.0

    @property
    def overlap_of_union(self) -> float:
        union = self.ours_day | self.nod_day
        if not union:
            return 0.0
        return len(self.ours_day & self.nod_day) / len(union)

    @property
    def transient_union(self) -> Set[str]:
        return self.ours_transient | self.nod_transient

    @property
    def transient_both_share(self) -> float:
        union = self.transient_union
        if not union:
            return 0.0
        return len(self.ours_transient & self.nod_transient) / len(union)

    @property
    def transient_nod_extra_factor(self) -> float:
        if not self.ours_transient:
            return 0.0
        return len(self.nod_transient) / len(self.ours_transient)

    def report(self) -> ExperimentReport:
        report = ExperimentReport(
            experiment="§4.4a NOD comparison",
            description="CT feed vs passive-DNS NOD feed")
        report.compare("NOD/ours NRD factor (one day)",
                       paperdata.NOD_EXTRA_NRD_FACTOR,
                       self.nod_extra_factor, abs_tol=0.12)
        report.compare("NRD overlap share of union",
                       paperdata.NOD_NRD_OVERLAP_OF_UNION,
                       self.overlap_of_union, abs_tol=0.12)
        report.compare("transients seen by both (share of union)",
                       paperdata.NOD_TRANSIENT_BOTH_SHARE,
                       self.transient_both_share, abs_tol=0.12)
        report.compare("NOD/ours transient factor",
                       paperdata.NOD_EXTRA_TRANSIENT_FACTOR,
                       self.transient_nod_extra_factor, abs_tol=0.25)
        table = TextTable(["set", "ours", "NOD", "both", "union"],
                          title="feed overlap")
        table.add_row("NRDs (one day)", len(self.ours_day), len(self.nod_day),
                      len(self.ours_day & self.nod_day),
                      len(self.ours_day | self.nod_day))
        table.add_row("transients (window)", len(self.ours_transient),
                      len(self.nod_transient),
                      len(self.ours_transient & self.nod_transient),
                      len(self.transient_union))
        report.tables.append(table)
        report.notes.append(
            "the two feeds are substantially disjoint — combining them "
            "narrows but does not close the gap (paper §4.4).")
        return report


# ---------------------------------------------------------------------------
# §4.4b — the ccTLD registry ground truth
# ---------------------------------------------------------------------------

@dataclass
class CCTLDComparison:
    """Registry-view ground truth vs what the method recovered."""

    tld: str
    registry_view: Dict[str, int]
    detected_transients: int

    @classmethod
    def from_result(cls, world: World, result: PipelineResult) -> "CCTLDComparison":
        tld = world.cctld_tld
        if tld is None:
            raise ValueError("world was built without a ccTLD")
        view = world.ground_truth.cctld_registry_view(tld)
        detected = sum(
            1 for domain in result.transient_candidates
            if domain.endswith("." + tld)
            and world.registries.find_lifecycle(domain) is not None)
        return cls(tld=tld, registry_view=view, detected_transients=detected)

    @property
    def detection_rate(self) -> float:
        never = self.registry_view.get("never_in_snapshots", 0)
        return self.detected_transients / never if never else 0.0

    def report(self) -> ExperimentReport:
        report = ExperimentReport(
            experiment="§4.4b ccTLD ground truth",
            description=f"registry view of .{self.tld} vs method detection")
        paper_never_share = (paperdata.CCTLD_NEVER_IN_SNAPSHOTS
                             / paperdata.CCTLD_DELETED_UNDER_24H)
        deleted = self.registry_view["deleted_under_24h"]
        never = self.registry_view["never_in_snapshots"]
        report.compare("never-in-snapshots share of <24h deletions",
                       paper_never_share,
                       never / deleted if deleted else 0.0, abs_tol=0.15)
        report.compare("method detection rate of registry transients",
                       paperdata.CCTLD_DETECTION_RATE,
                       self.detection_rate, abs_tol=0.12)
        table = TextTable(["quantity", "paper (.nl)", "measured"],
                          title="registry ground truth")
        table.add_row("deleted < 24h", paperdata.CCTLD_DELETED_UNDER_24H, deleted)
        table.add_row("never in snapshots", paperdata.CCTLD_NEVER_IN_SNAPSHOTS,
                      never)
        table.add_row("detected by method", paperdata.CCTLD_DETECTED_BY_METHOD,
                      self.detected_transients)
        report.tables.append(table)
        report.notes.append(
            "even with the best public data the method sees ~30% of "
            "intra-day registrations — the paper's core blind-spot claim.")
        return report


# ---------------------------------------------------------------------------
# Ablation A — Rapid Zone Update cadence sweep
# ---------------------------------------------------------------------------

#: Default cadences: daily (CZDS), 12 h, 1 h, 15 min, 5 min (Verisign's
#: historical RZU cadence).
DEFAULT_CADENCES: Tuple[int, ...] = (DAY, 12 * HOUR, HOUR, 15 * MINUTE,
                                     5 * MINUTE)


@dataclass
class CadencePoint:
    """Visibility metrics at one snapshot cadence."""

    cadence: int
    true_transients: int
    fast_takedowns: int
    median_capture_latency: Optional[float]

    @property
    def invisible_share(self) -> float:
        if not self.fast_takedowns:
            return 0.0
        return self.true_transients / self.fast_takedowns


def rzu_sweep(config: ScenarioConfig,
              cadences: Tuple[int, ...] = DEFAULT_CADENCES) -> List[CadencePoint]:
    """Build the world once and measure the gap at each snapshot cadence.

    Only the *consumer-side* snapshot interval changes between points:
    registrations, takedowns and certificates are one world's, so each
    cadence is its own :class:`SnapshotArchive` (and ground truth) over
    the same registries — exactly what a rebuild at that cadence would
    hold — and the sweep isolates the value of rapid zone updates.
    """
    world = build_world(config)
    fast_takedowns = world.stats.get("fast_takedowns", 0)
    points: List[CadencePoint] = []
    for cadence in cadences:
        archive = SnapshotArchive(world.registries, world.archive.window,
                                  interval=cadence,
                                  covered_tlds=world.archive.covered_tlds)
        truth = GroundTruth(world.registries, archive, world.window)
        transients = truth.true_transients()
        latencies: List[int] = []
        for lifecycle in truth.registrations():
            first = archive.first_appearance(lifecycle)
            if first is not None:
                latencies.append(first - lifecycle.created_at)
        ecdf = ECDF(latencies)
        points.append(CadencePoint(
            cadence=cadence,
            true_transients=len(transients),
            fast_takedowns=fast_takedowns,
            median_capture_latency=None if ecdf.is_empty else ecdf.median))
    return points


def rzu_report(points: List[CadencePoint]) -> ExperimentReport:
    report = ExperimentReport(
        experiment="Ablation A — Rapid Zone Updates",
        description="snapshot cadence vs transient blind spot (paper §5)")
    table = TextTable(
        ["cadence", "invisible (true transients)", "share of fast takedowns",
         "median capture latency"],
        title="the blind spot closes as snapshots speed up")
    for point in points:
        table.add_row(
            format_duration(point.cadence), point.true_transients,
            f"{100 * point.invisible_share:.1f}%",
            "-" if point.median_capture_latency is None
            else format_duration(point.median_capture_latency))
    report.tables.append(table)
    if len(points) >= 2:
        daily = points[0]
        fastest = points[-1]
        reduction = (1 - fastest.true_transients / daily.true_transients
                     if daily.true_transients else 0.0)
        report.compare("blind-spot reduction at RZU cadence (>90%)",
                       0.95, reduction, abs_tol=0.06)
    report.notes.append(
        "Verisign's historical RZU service shipped 5-minute updates; at "
        "that cadence nearly every transient registration becomes visible "
        "to defenders.")
    return report
