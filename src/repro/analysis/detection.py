"""Figure 1 and §4.1: detection speed and NS-infrastructure stability.

Figure 1 plots the CDF of (Certstream observation time − RDAP creation
time) per TLD.  The paper's reference points: ≈30 % of domains detected
within 15 minutes, 50 % within 45 minutes, <2 % beyond a day; .com/.net
curves sit left of slower-cadence gTLDs.

§4.1 also reports that 97.5 % of NRDs kept their initial NS
infrastructure through their first 24 hours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro import paperdata
from repro.analysis.ecdf import ECDF, format_duration
from repro.analysis.tables import ExperimentReport, TextTable
from repro.core.records import PipelineResult
from repro.simtime.clock import HOUR, MINUTE
from repro.workload.scenario import World


@dataclass
class DetectionAnalysis:
    """Fig 1 + §4.1 computed from one pipeline result."""

    overall: ECDF
    per_tld: Dict[str, ECDF]
    ns_kept_24h: float
    ns_changed_24h: float

    @classmethod
    def from_result(cls, world: World, result: PipelineResult,
                    top_tlds: int = 10) -> "DetectionAnalysis":
        delays_all: List[int] = []
        delays_by_tld: Dict[str, List[int]] = {}
        for domain, verdict in result.verdicts.items():
            if verdict.detection_delay is None:
                continue
            candidate = result.candidates[domain]
            if candidate.tld == world.cctld_tld:
                continue  # the paper's Fig 1 covers CZDS gTLDs
            delays_all.append(verdict.detection_delay)
            delays_by_tld.setdefault(candidate.tld, []).append(
                verdict.detection_delay)
        biggest = sorted(delays_by_tld, key=lambda t: -len(delays_by_tld[t]))
        per_tld = {tld: ECDF(delays_by_tld[tld]) for tld in biggest[:top_tlds]}

        # §4.1: NS stability over the first 24 h of zone life, judged
        # from the monitor's observations of real NRD candidates.
        kept = changed = 0
        for domain, candidate in result.candidates.items():
            if candidate.tld == world.cctld_tld:
                continue
            lifecycle = world.registries.find_lifecycle(domain)
            if lifecycle is None or lifecycle.zone_added_at is None:
                continue
            if lifecycle.ns_changed_within(24 * HOUR):
                changed += 1
            else:
                kept += 1
        total = kept + changed
        return cls(
            overall=ECDF(delays_all),
            per_tld=per_tld,
            ns_kept_24h=(kept / total) if total else 0.0,
            ns_changed_24h=(changed / total) if total else 0.0,
        )

    def report(self) -> ExperimentReport:
        report = ExperimentReport(
            experiment="Figure 1",
            description="CDF of detection delay: CT observation vs RDAP creation")
        for threshold, expected in paperdata.FIG1_POINTS:
            report.compare(
                f"P(delay <= {format_duration(threshold)})", expected,
                self.overall.prob_at(threshold), abs_tol=0.10)
        if not self.overall.is_empty:
            report.compare("median delay (minutes)",
                           45.0, self.overall.median / MINUTE, rel_tol=0.5)
        table = TextTable(["tick"] + sorted(self.per_tld) + ["All"],
                          title="CDF per TLD over the paper's grid")
        for tick in paperdata.FIG1_GRID:
            row = [format_duration(tick)]
            for tld in sorted(self.per_tld):
                row.append(f"{self.per_tld[tld].prob_at(tick):.3f}")
            row.append(f"{self.overall.prob_at(tick):.3f}")
            table.add_row(*row)
        report.tables.append(table)
        # Verisign-cadence TLDs should detect faster than slow-cadence
        # ones at the 15-minute mark (the paper's per-TLD observation).
        fast = [self.per_tld[t].prob_at(15 * MINUTE)
                for t in ("com", "net") if t in self.per_tld]
        slow = [self.per_tld[t].prob_at(15 * MINUTE)
                for t in self.per_tld if t not in ("com", "net")]
        if fast and slow:
            report.compare("com/net vs others early-detection advantage (>1x)",
                           1.0,
                           (sum(fast) / len(fast))
                           / max(1e-9, sum(slow) / len(slow)),
                           rel_tol=10.0)
            report.notes.append(
                "com/net update their zones every ~60s, other gTLDs every "
                "15-30min; the early-CDF gap reflects that cadence.")
        return report

    def ns_report(self) -> ExperimentReport:
        report = ExperimentReport(
            experiment="§4.1 NS stability",
            description="share of NRDs keeping initial NS infrastructure 24h")
        report.compare("kept NS infra 24h", paperdata.NS_KEPT_24H,
                       self.ns_kept_24h, abs_tol=0.02)
        report.compare("changed NS infra 24h", paperdata.NS_CHANGED_24H,
                       self.ns_changed_24h, abs_tol=0.02)
        return report
