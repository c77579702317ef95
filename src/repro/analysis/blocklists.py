"""§4.3: do blocklists catch early-removed and transient domains?

The paper polls ten blocklists daily through 29 Apr 2024 and reports:

* of 555 491 early-removed NRDs, 6.6 % were flagged by ≥1 list —
  92 % while the domain was still active, 3 % before its registration
  date, 5 % only after deletion;
* of 42 358 confirmed transients, 5 % were flagged — 5 % on their
  registration day, 1 % before registration, and **94 % only after the
  domain was already deleted**.

The timing classification below mirrors that bucketing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import paperdata
from repro.analysis.tables import ExperimentReport, TextTable
from repro.core.records import PipelineResult
from repro.intel.blocklist import BlocklistPanel
from repro.registry.lifecycle import DomainLifecycle
from repro.simtime.clock import day_floor
from repro.workload.scenario import World


@dataclass
class FlagTiming:
    """Counts of first-flag timing relative to the domain's life."""

    total: int = 0
    flagged: int = 0
    before_registration: int = 0
    registration_day: int = 0
    while_active: int = 0
    after_deletion: int = 0

    @property
    def flagged_share(self) -> float:
        return self.flagged / self.total if self.total else 0.0

    def share_of_flagged(self, bucket: str) -> float:
        if not self.flagged:
            return 0.0
        return getattr(self, bucket) / self.flagged


def _classify(panel: BlocklistPanel, lifecycle: DomainLifecycle,
              timing: FlagTiming) -> None:
    timing.total += 1
    entry = panel.first_flag(lifecycle)
    if entry is None:
        return
    timing.flagged += 1
    flagged_at = entry.flagged_at
    if flagged_at < lifecycle.created_at:
        if day_floor(flagged_at) == day_floor(lifecycle.created_at):
            timing.registration_day += 1
        else:
            timing.before_registration += 1
    elif lifecycle.removed_at is not None and flagged_at >= lifecycle.removed_at:
        # Same-day flags on the registration day count separately for
        # transients (their deletion often happens the same day).
        if day_floor(flagged_at) == day_floor(lifecycle.created_at):
            timing.registration_day += 1
        else:
            timing.after_deletion += 1
    else:
        if day_floor(flagged_at) == day_floor(lifecycle.created_at):
            timing.registration_day += 1
        else:
            timing.while_active += 1


@dataclass
class BlocklistAnalysis:
    """§4.3 computed over one pipeline run."""

    early_removed: FlagTiming
    transient: FlagTiming

    @classmethod
    def from_result(cls, world: World, result: PipelineResult) -> "BlocklistAnalysis":
        panel = world.blocklists
        truth = world.ground_truth
        early = FlagTiming()
        transient = FlagTiming()
        cutoff = world.window.end
        cc_suffix = ("." + world.cctld_tld) if world.cctld_tld else None
        for domain in result.candidates:
            if cc_suffix and domain.endswith(cc_suffix):
                continue  # §4.3 covers the gTLD populations
            lifecycle = world.registries.find_lifecycle(domain)
            if lifecycle is None:
                continue
            if domain in result.confirmed_transients:
                _classify(panel, lifecycle, transient)
            elif truth.is_early_removed(lifecycle, cutoff):
                _classify(panel, lifecycle, early)
        return cls(early_removed=early, transient=transient)

    def report(self) -> ExperimentReport:
        report = ExperimentReport(
            experiment="§4.3 Blocklists",
            description="blocklist coverage and timing for early-removed "
                        "and transient domains")
        report.compare("early-removed flagged share",
                       paperdata.EARLY_REMOVED_FLAGGED,
                       self.early_removed.flagged_share, abs_tol=0.03)
        report.compare("early-removed flagged while active",
                       paperdata.EARLY_REMOVED_FLAG_TIMING["active"],
                       self.early_removed.share_of_flagged("while_active")
                       + self.early_removed.share_of_flagged("registration_day"),
                       abs_tol=0.15)
        report.compare("transient flagged share",
                       paperdata.TRANSIENT_FLAGGED,
                       self.transient.flagged_share, abs_tol=0.04)
        report.compare("transient flagged only after deletion",
                       paperdata.TRANSIENT_FLAG_TIMING["after_delete"],
                       self.transient.share_of_flagged("after_deletion"),
                       abs_tol=0.15)
        table = TextTable(
            ["population", "n", "flagged", "before-reg", "reg-day",
             "active", "post-delete"],
            title="first-flag timing")
        for label, timing in (("early-removed", self.early_removed),
                              ("transient", self.transient)):
            table.add_row(
                label, timing.total,
                f"{100 * timing.flagged_share:.1f}%",
                timing.before_registration, timing.registration_day,
                timing.while_active, timing.after_deletion)
        report.tables.append(table)
        report.notes.append(
            "blocklists are reactive: transient domains die in hours while "
            "report pipelines take days, so nearly all transient flags land "
            "post-mortem — the paper's core §4.3 finding.")
        return report
