"""Tests for ECDFs, tables, and the per-experiment analyses."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.blocklists import BlocklistAnalysis, FlagTiming
from repro.analysis.detection import DetectionAnalysis
from repro.analysis.ecdf import ECDF, cdf_series, format_duration, render_cdf
from repro.analysis.landscape import InfrastructureAnalysis, VolumeAnalysis
from repro.analysis.lifetimes import LifetimeAnalysis
from repro.analysis.report import full_report, rdap_failure_report, render_reports
from repro.analysis.tables import (
    Comparison,
    ExperimentReport,
    TextTable,
    share_table,
)
from repro.analysis.visibility import (
    CadencePoint,
    CCTLDComparison,
    NODComparison,
    rzu_sweep,
)
from repro.errors import ConfigError
from repro.simtime.clock import DAY, HOUR, MINUTE
from repro.workload.scenario import ScenarioConfig, build_world


class TestECDF:
    def test_prob_at(self):
        ecdf = ECDF([1, 2, 3, 4])
        assert ecdf.prob_at(0) == 0.0
        assert ecdf.prob_at(2) == 0.5
        assert ecdf.prob_at(4) == 1.0

    def test_empty(self):
        ecdf = ECDF([])
        assert ecdf.is_empty
        assert ecdf.prob_at(5) == 0.0
        with pytest.raises(ConfigError):
            ecdf.quantile(0.5)

    def test_median(self):
        assert ECDF([1, 2, 3]).median == 2
        assert ECDF([5]).median == 5

    def test_quantile_bounds(self):
        ecdf = ECDF([1, 2, 3])
        with pytest.raises(ConfigError):
            ecdf.quantile(1.5)
        assert ecdf.quantile(0.0) == 1
        assert ecdf.quantile(1.0) == 3

    def test_on_grid(self):
        curve = ECDF([10, 20, 30]).on_grid([15, 25, 35])
        assert curve == [(15, pytest.approx(1 / 3)),
                         (25, pytest.approx(2 / 3)), (35, 1.0)]

    @given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=100))
    @settings(max_examples=60)
    def test_monotone_property(self, samples):
        ecdf = ECDF(samples)
        grid = sorted(set(samples))
        probs = [ecdf.prob_at(x) for x in grid]
        assert probs == sorted(probs)
        assert probs[-1] == 1.0

    @given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=100),
           st.floats(0.01, 1.0))
    @settings(max_examples=60)
    def test_quantile_inverse_property(self, samples, p):
        ecdf = ECDF(samples)
        assert ecdf.prob_at(ecdf.quantile(p)) >= p

    def test_render(self):
        text = render_cdf(ECDF([60, 120]), [MINUTE, 2 * MINUTE])
        assert "1m" in text and "2m" in text

    def test_cdf_series(self):
        series = cdf_series({"a": [1, 2], "b": [3]}, [2])
        assert series["a"] == [(2, 1.0)]
        assert series["b"] == [(2, 0.0)]


class TestFormatDuration:
    @pytest.mark.parametrize("seconds,expected", [
        (30, "30s"), (MINUTE, "1m"), (45 * MINUTE, "45m"),
        (HOUR, "1h"), (90 * MINUTE, "1.5h"), (DAY, "1d"), (2 * DAY, "2d"),
    ])
    def test_labels(self, seconds, expected):
        assert format_duration(seconds) == expected


class TestTables:
    def test_render_alignment(self):
        table = TextTable(["name", "value"], title="T")
        table.add_row("a", 1)
        table.add_row("bbbb", 22)
        text = table.render()
        assert "T" in text and "bbbb" in text

    def test_row_arity_checked(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ConfigError):
            table.add_row(1)

    def test_comparison_tolerances(self):
        assert Comparison("m", 0.5, 0.55, abs_tol=0.1).within_tolerance
        assert not Comparison("m", 0.5, 0.9, abs_tol=0.1).within_tolerance
        assert Comparison("m", 100, 110, rel_tol=0.2).within_tolerance
        assert Comparison("m", 0, 0.1, rel_tol=0.25).within_tolerance
        assert Comparison("m", 100, 110).ratio == pytest.approx(1.1)

    def test_experiment_report_rendering(self):
        report = ExperimentReport("E1", "demo")
        report.compare("x", 1.0, 1.05, rel_tol=0.1)
        text = report.render()
        assert "E1" in text and "1/1 metrics" in text
        assert report.all_within_tolerance

    def test_share_table_folds_others(self):
        table = share_table("T", ["n", "d", "%"],
                            [(f"p{i}", 10 - i) for i in range(8)],
                            total=52, top=3)
        text = table.render()
        assert "Others" in text and "Total" in text


class TestAnalyses:
    def test_volume_analysis_consistency(self, small_world, small_result):
        volumes = VolumeAnalysis.from_result(small_world, small_result)
        cc = small_world.cctld_tld
        non_cc_candidates = sum(
            1 for c in small_result.candidates.values() if c.tld != cc)
        assert volumes.detected_total() == non_cc_candidates
        assert 0 < volumes.coverage() < 1

    def test_volume_reports_render(self, small_world, small_result):
        volumes = VolumeAnalysis.from_result(small_world, small_result)
        assert "Table 1" in volumes.table1_report().render()
        assert "Table 2" in volumes.table2_report().render()

    def test_detection_analysis(self, small_world, small_result):
        detection = DetectionAnalysis.from_result(small_world, small_result)
        assert not detection.overall.is_empty
        assert 0.9 < detection.ns_kept_24h + detection.ns_changed_24h <= 1.0
        assert "com" in detection.per_tld

    def test_detection_com_faster_than_slow_tlds(self, small_world,
                                                 small_result):
        detection = DetectionAnalysis.from_result(small_world, small_result)
        slow = [t for t in detection.per_tld if t not in ("com", "net")]
        if slow:
            com_fast = detection.per_tld["com"].prob_at(10 * MINUTE)
            slow_avg = sum(detection.per_tld[t].prob_at(10 * MINUTE)
                           for t in slow) / len(slow)
            assert com_fast > slow_avg

    def test_lifetime_analysis(self, small_world, small_result):
        lifetimes = LifetimeAnalysis.from_result(small_world, small_result)
        assert not lifetimes.measured.is_empty
        # All measured lifetimes under ~25h (transient by construction).
        assert lifetimes.measured.max() < 25 * HOUR

    def test_infrastructure_counts_bounded(self, small_world, small_result):
        infra = InfrastructureAnalysis.from_result(small_world, small_result)
        assert sum(infra.registrar_counts.values()) <= infra.total
        assert sum(infra.ns_sld_counts.values()) <= infra.total
        assert infra.total > 0

    def test_infrastructure_cloudflare_prominent_dns(self, small_world,
                                                     small_result):
        """Cloudflare must rank among the top DNS hosts of transients.

        At this tiny test scale campaign clustering adds variance, so we
        assert top-3 membership; the bench at 1/200 pins the exact
        Table 4 shares.
        """
        infra = InfrastructureAnalysis.from_result(small_world, small_result)
        if infra.ns_sld_counts:
            top3 = sorted(infra.ns_sld_counts,
                          key=infra.ns_sld_counts.get, reverse=True)[:3]
            assert "cloudflare.com" in top3

    def test_blocklist_analysis_buckets_sum(self, small_world, small_result):
        analysis = BlocklistAnalysis.from_result(small_world, small_result)
        for timing in (analysis.early_removed, analysis.transient):
            assert (timing.before_registration + timing.registration_day
                    + timing.while_active + timing.after_deletion
                    == timing.flagged)
            assert timing.flagged <= timing.total

    def test_flag_timing_shares(self):
        timing = FlagTiming(total=100, flagged=10, after_deletion=9,
                            registration_day=1)
        assert timing.flagged_share == 0.1
        assert timing.share_of_flagged("after_deletion") == 0.9

    def test_rdap_failure_report(self, small_world, small_result):
        report = rdap_failure_report(small_world, small_result)
        assert report.comparisons
        rates = {c.metric: c.measured for c in report.comparisons}
        assert rates["RDAP failure rate (transient candidates)"] > \
            rates["RDAP failure rate (all NRDs)"]

    def test_nod_comparison_sets(self, small_world, small_result):
        nod = NODComparison.from_result(small_world, small_result)
        assert nod.ours_day or nod.nod_day
        assert nod.transient_union >= nod.ours_transient

    def test_cctld_comparison(self, small_world, small_result):
        cc = CCTLDComparison.from_result(small_world, small_result)
        assert cc.registry_view["deleted_under_24h"] > 0
        assert 0 <= cc.detection_rate <= 1.2

    def test_full_report_runs(self, small_world, small_result):
        reports = full_report(small_world, small_result)
        assert len(reports) == 12
        text = render_reports(reports)
        assert "overall:" in text
        assert "Table 5" in text

    def test_majority_of_metrics_hold_at_test_scale(self, small_world,
                                                    small_result):
        reports = full_report(small_world, small_result)
        ok = sum(r.holding()[0] for r in reports)
        total = sum(r.holding()[1] for r in reports)
        # Small test scale is noisy; the bench scale asserts tighter.
        assert ok / total > 0.7


class TestRZUSweep:
    def test_one_world_matches_a_rebuild_per_cadence(self):
        # The sweep re-reads one world through a snapshot archive per
        # cadence; each point must equal the point a world rebuilt at
        # that cadence gives.
        config = ScenarioConfig(seed=13, scale=1 / 2000, include_cctld=False,
                                tlds=["com", "xyz", "top"])
        cadences = (DAY, HOUR)
        points = rzu_sweep(config, cadences)
        for point, cadence in zip(points, cadences):
            world = build_world(replace(config, snapshot_interval=cadence))
            latencies = [
                first - lifecycle.created_at
                for lifecycle in world.ground_truth.registrations()
                for first in [world.archive.first_appearance(lifecycle)]
                if first is not None]
            ecdf = ECDF(latencies)
            assert point == CadencePoint(
                cadence=cadence,
                true_transients=len(world.ground_truth.true_transients()),
                fast_takedowns=world.stats.get("fast_takedowns", 0),
                median_capture_latency=(None if ecdf.is_empty
                                        else ecdf.median))
        assert points[0].true_transients > points[1].true_transients
