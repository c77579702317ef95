"""Tests for the unified telemetry layer (repro.obs).

Covers the metric primitives and quantile edge cases (with property
tests), the registry and its JSON rendering, span nesting and exception
paths, the standing observers (quiet on the default world, firing on a
registration burst), and the resolver stats-reset semantics the
``scan.resolver`` snapshot depends on.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore.resolver import ResolverPool, ResolverPoolMetrics
from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    ObserverSuite,
    RollingBaseline,
    SeriesObserver,
    Tracer,
    daily_counts,
    default_pipeline_suite,
    get_registry,
    observe_pipeline_result,
    to_json,
    tracer,
)
from repro.obs.observers import (
    SCENARIO_EXPECTATIONS,
    check_expectations,
    observe_world,
)
from repro.workload.scenario import ScenarioConfig, build_world, world_fingerprint

_DAY = 86_400


# --------------------------------------------------------------------------
# Counter primitive
# --------------------------------------------------------------------------

class TestCounter:

    def test_inc_and_value(self):
        c = Counter("hits")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counters_only_go_up(self):
        c = Counter("hits")
        with pytest.raises(ValueError):
            c.inc(-1)


# --------------------------------------------------------------------------
# Histogram quantile edge cases (the satellite fix) + properties
# --------------------------------------------------------------------------

class TestHistogramQuantile:

    def test_empty_histogram_answers_zero(self):
        h = Histogram("lag", bounds=(1, 10, 60))
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.quantile(1.0) == 0.0
        assert h.mean == 0.0

    def test_single_overflow_observation_reports_own_value(self):
        h = Histogram("lag", bounds=(1, 10))
        h.observe(500)
        # Not infinity, not the last bound: the tracked maximum.
        assert h.quantile(0.5) == 500
        assert h.quantile(1.0) == 500

    def test_bounds_of_length_one(self):
        h = Histogram("lag", bounds=(10,))
        h.observe(3)
        assert h.quantile(0.5) == 3        # edge 10 capped at max
        h.observe(50)                      # overflow bucket
        assert h.quantile(1.0) == 50

    def test_quantile_zero_is_first_nonempty_bucket(self):
        h = Histogram("lag", bounds=(1, 10, 60))
        h.observe(5)
        h.observe(200)
        assert h.quantile(0.0) == 10       # 5 lands in the (1, 10] bucket

    def test_edge_value_reports_its_own_bound(self):
        h = Histogram("h", bounds=(1, 8))
        h.observe(1)
        h.observe(5)
        assert h.buckets == [1, 1, 0]
        assert h.quantile(0.5) == 1

    def test_quantile_one_is_exact_max(self):
        h = Histogram("lag", bounds=(1, 10, 60))
        for value in (0.5, 2, 30, 59):
            h.observe(value)
        assert h.quantile(1.0) == 59

    def test_out_of_range_q_raises(self):
        h = Histogram("lag", bounds=(1,))
        for q in (-0.1, 1.1, 2):
            with pytest.raises(ValueError):
                h.quantile(q)

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lag", bounds=())

    def test_snapshot_keys(self):
        h = Histogram("lag", bounds=(1, 10))
        h.observe(4)
        assert set(h.snapshot()) == {"count", "mean", "p50", "p95", "max"}

    @given(values=st.lists(
               st.floats(min_value=0.0, max_value=2.0 * _DAY,
                         allow_nan=False, allow_infinity=False),
               max_size=150),
           bounds=st.sets(
               st.sampled_from([1, 5, 10, 60, 300, 900, 3600, 21600, _DAY]),
               min_size=1, max_size=6))
    @settings(max_examples=120, deadline=None)
    def test_quantile_invariants(self, values, bounds):
        h = Histogram("h", bounds=sorted(bounds))
        for value in values:
            h.observe(value)
        qs = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)
        estimates = [h.quantile(q) for q in qs]
        # Monotone in q, bounded by the observed range, exact at q=1.
        assert estimates == sorted(estimates)
        if values:
            assert h.quantile(1.0) == max(values)
            assert all(0.0 <= e <= max(values) for e in estimates)
            assert h.count == len(values)
        else:
            assert estimates == [0.0] * len(qs)


# --------------------------------------------------------------------------
# Histogram bulk path: observe_many equals one observe per value
# --------------------------------------------------------------------------

def _state(h):
    """Everything a histogram reports; ``repr`` tells 5 from 5.0."""
    return repr((h.buckets, h.count, h.total, h.max, h.snapshot()))


class TestHistogramBulk:
    @given(batches=st.lists(
               st.tuples(st.lists(st.integers(-5, 3 * _DAY), max_size=40),
                         st.integers(0, 20)),
               max_size=6),
           bounds=st.sets(st.sampled_from([0, 1, 5, 10, 60, 3600, _DAY]),
                          min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_matches_one_observe_per_value(self, batches, bounds):
        bulk = Histogram("bulk", bounds=sorted(bounds))
        each = Histogram("each", bounds=sorted(bounds))
        for values, zeros in batches:
            bulk.observe_many(values, zeros=zeros)
            for value in values + [0] * zeros:
                each.observe(value)
        assert _state(bulk) == _state(each)

    def test_empty_input_changes_nothing(self):
        h = Histogram("h", bounds=(1, 10))
        fresh = _state(h)
        h.observe_many([])
        h.observe_many((), zeros=0)
        assert _state(h) == fresh

    def test_zeros_alone(self):
        bulk, each = Histogram("b", bounds=(1, 8)), Histogram("e", (1, 8))
        bulk.observe_many([], zeros=3)
        for _ in range(3):
            each.observe(0)
        assert bulk.buckets == [3, 0, 0]
        assert _state(bulk) == _state(each)

    def test_overflow_bucket_and_edges(self):
        bulk, each = Histogram("b", bounds=(1, 8)), Histogram("e", (1, 8))
        values = [8, 1, 9, 0, 1000, 7]
        bulk.observe_many(values, zeros=2)
        for value in values + [0, 0]:
            each.observe(value)
        # Bounds are inclusive: an edge value lands in its own bucket.
        assert bulk.buckets == [4, 2, 2]
        assert bulk.max == 1000
        assert _state(bulk) == _state(each)


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

class _Provider:
    """The smallest registry provider: a fixed snapshot."""

    def __init__(self, **snap) -> None:
        self._snap = snap

    def snapshot(self):
        return dict(self._snap)


class TestRegistry:

    def test_register_snapshot(self):
        registry = MetricsRegistry()
        registry.register("demo", _Provider(hits=2))
        registry.register("alpha", _Provider())
        assert registry.snapshot() == {"alpha": {}, "demo": {"hits": 2}}
        assert list(registry.snapshot()) == ["alpha", "demo"]

    def test_reregistering_replaces_the_provider(self):
        registry = MetricsRegistry()
        registry.register("demo", _Provider(hits=0))
        registry.register("demo", _Provider(hits=9))
        assert registry.snapshot() == {"demo": {"hits": 9}}

    def test_provider_protocol_enforced(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.register("demo", object())
        with pytest.raises(ValueError):
            registry.register("", _Provider())

    def test_process_registry_carries_the_span_tracer(self):
        with tracer().span("test.registry"):
            pass
        assert get_registry().snapshot()["spans"] == tracer().phase_totals()

    def test_to_json_renders_the_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.register("demo", _Provider(b=1, a=[2]))
        text = to_json(registry)
        assert json.loads(text) == registry.snapshot()
        assert text.index('"a"') < text.index('"b"')      # sorted keys
        with tracer().span("test.to_json"):
            pass
        assert "test.to_json" in json.loads(to_json())["spans"]


# --------------------------------------------------------------------------
# Spans: nesting, exceptions, sinks, provider protocol
# --------------------------------------------------------------------------

class TestSpans:

    def test_nesting_records_parent_and_depth(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                pass
        assert outer.span_id == 0 and outer.parent_id is None
        assert outer.depth == 0
        assert inner.parent_id == outer.span_id and inner.depth == 1
        # Finish order: the inner span completes first.
        assert [s.name for s in t.spans] == ["inner", "outer"]

    def test_span_ids_are_sequential_not_random(self):
        t = Tracer()
        for _ in range(3):
            with t.span("p"):
                pass
        assert [s.span_id for s in t.spans] == [0, 1, 2]

    def test_exception_recorded_and_reraised(self):
        t = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with t.span("pipeline.validate"):
                raise RuntimeError("boom")
        finished = t.spans[0]
        assert finished.error == "RuntimeError"
        assert t.phase_totals()["pipeline.validate"]["errors"] == 1

    def test_base_exception_also_recorded(self):
        t = Tracer()
        with pytest.raises(KeyboardInterrupt):
            with t.span("p"):
                raise KeyboardInterrupt()
        assert t.spans[0].error == "KeyboardInterrupt"

    def test_exception_in_nested_span_unwinds_the_stack(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("outer"):
                with t.span("inner"):
                    raise ValueError("inner boom")
        inner, outer = t.spans
        assert inner.error == "ValueError"
        assert outer.error == "ValueError"     # propagated through both
        with t.span("after") as after:
            pass
        assert after.depth == 0                # the stack fully unwound

    def test_annotations_and_sim_time(self):
        t = Tracer()
        with t.span("build.populate_tld", tld="com") as sp:
            sp.annotate(sim_sec=_DAY, nrd=120)
        with t.span("build.populate_tld", tld="net") as sp:
            sp.annotate(sim_sec=2 * _DAY)
        totals = t.phase_totals()["build.populate_tld"]
        assert totals["count"] == 2
        assert totals["sim_sec"] == 3 * _DAY
        record = t.spans[0].as_dict()
        assert record["labels"] == {"tld": "com"}
        assert record["annotations"] == {"nrd": 120}

    def test_labels_coerced_to_strings(self):
        t = Tracer()
        with t.span("build.merge_shards", jobs=4):
            pass
        assert t.spans[0].labels == {"jobs": "4"}

    def test_disabled_tracer_yields_null_span(self):
        t = Tracer(enabled=False)
        with t.span("p") as sp:
            assert sp.annotate(sim_sec=1, extra="x") is sp
        assert t.spans == []
        assert t.phase_totals() == {}

    def test_reset_clears_everything(self):
        t = Tracer()
        with t.span("p"):
            pass
        t.reset()
        assert t.spans == [] and t.phase_totals() == {}
        with t.span("q") as sp:
            pass
        assert sp.span_id == 0                 # ids restart

    def test_provider_protocol(self):
        t = Tracer()
        with t.span("p"):
            pass
        assert t.snapshot() == t.phase_totals()
        assert set(t.snapshot()["p"]) == {
            "count", "wall_sec", "peak_rss_kb", "rss_growth_kb"}
        assert t.spans[0].peak_rss_kb > 0
        assert t.spans[0].wall_sec >= 0.0

    def test_phase_totals_shape(self, monkeypatch):
        """Phases sorted; wall summed and rounded to 4 places; peak RSS a
        max and growth a sum; ``errors`` only on a phase that raised and
        ``sim_sec`` only on an annotated one; adopted spans aggregate
        exactly like local ones."""
        from types import SimpleNamespace
        from repro.obs import spans as spans_mod
        clock = iter([0.0, 0.123456, 1.0, 1.5, 2.0, 2.25])
        rss = iter([1000, 1200, 1200, 1200, 1200, 1300])  # enter, exit
        monkeypatch.setattr(spans_mod, "time",
                            SimpleNamespace(perf_counter=lambda: next(clock)))
        monkeypatch.setattr(spans_mod, "_peak_rss_kb", lambda: next(rss))
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("z.raises"):
                raise ValueError("boom")
        for sim_sec in (60, 30):
            with t.span("a.annotated") as sp:
                sp.annotate(sim_sec=sim_sec)
        totals = t.phase_totals()
        assert list(totals) == ["a.annotated", "z.raises"]
        assert totals == {
            "a.annotated": {"count": 2, "wall_sec": 0.75,
                            "peak_rss_kb": 1300, "rss_growth_kb": 100,
                            "sim_sec": 90},
            "z.raises": {"count": 1, "wall_sec": 0.1235,
                         "peak_rss_kb": 1200, "rss_growth_kb": 200,
                         "errors": 1},
        }
        adopted = Tracer()
        assert adopted.adopt_spans(t.export_records(), worker=1) == 3
        assert adopted.phase_totals() == totals


# --------------------------------------------------------------------------
# Standing observers
# --------------------------------------------------------------------------

class TestRollingBaseline:

    def test_window_eviction(self):
        baseline = RollingBaseline(window=30)
        for value in range(1, 41):
            baseline.push(value)
        assert len(baseline) == 30
        assert baseline.mean == pytest.approx(sum(range(11, 41)) / 30)

    def test_constant_series_has_zero_std(self):
        baseline = RollingBaseline(window=5)
        for _ in range(10):
            baseline.push(7.0)
        assert baseline.std == 0.0

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError):
            RollingBaseline(window=1)


class TestSeriesObserver:

    def test_min_points_guard(self):
        obs = SeriesObserver("s", min_points=7)
        for day in range(6):
            assert obs.observe(day * _DAY, 100) == []
        # The 7th point would be anomalous, but the baseline is still
        # too thin to trust.
        assert obs.observe(6 * _DAY, 100000) == []

    def test_burst_fires_both_detectors(self):
        obs = SeriesObserver("s", min_points=7)
        for day in range(10):
            obs.observe(day * _DAY, 100)
        found = obs.observe(10 * _DAY, 900)
        assert [a.kind for a in found] == ["zscore", "step"]
        assert all(a.value == 900 for a in found)

    def test_drop_fires_negative_zscore(self):
        obs = SeriesObserver("s", min_points=7)
        for day in range(10):
            obs.observe(day * _DAY, 100)
        found = obs.observe(10 * _DAY, 0)
        kinds = {a.kind: a for a in found}
        assert kinds["zscore"].score < 0
        # -100% stays under the 200% step threshold.
        assert "step" not in kinds

    def test_weekly_rhythm_stays_quiet(self):
        # A weekday plateau with weekend dips — normal NRD weather.
        week = [100, 102, 98, 101, 99, 60, 55]
        obs = SeriesObserver("s", min_points=7)
        found = []
        for day in range(8 * 7):
            found.extend(obs.observe(day * _DAY, week[day % 7]))
        assert found == []

    def test_step_min_delta_gates_sparse_series(self):
        points = [0, 0, 1, 0, 0, 1, 0, 0, 1]
        loose = SeriesObserver("s", min_points=7)
        fired = []
        for day, value in enumerate(points):
            fired.extend(loose.observe(day * _DAY, value))
        assert any(a.kind == "step" for a in fired)       # 300% of 0.25
        gated = SeriesObserver("s", min_points=7, step_min_delta=10.0)
        fired = []
        for day, value in enumerate(points):
            fired.extend(gated.observe(day * _DAY, value))
        assert fired == []

    def test_out_of_order_points_rejected(self):
        obs = SeriesObserver("s")
        obs.observe(2 * _DAY, 1)
        obs.observe(2 * _DAY, 1)               # equal ts is fine
        with pytest.raises(ValueError):
            obs.observe(_DAY, 1)

    def test_shift_absorbed_as_new_normal(self):
        obs = SeriesObserver("s", window=10, min_points=5)
        for day in range(10):
            obs.observe(day * _DAY, 100)
        day = 10
        assert obs.observe(day * _DAY, 1000)   # leading edge fires
        quiet_again = []
        for offset in range(1, 15):
            quiet_again = obs.observe((day + offset) * _DAY, 1000)
        assert quiet_again == []               # the shift is the new normal


class TestObserverSuite:

    def _quiet_then_burst(self, suite, series, burst_ts):
        for day in range(10):
            suite.ingest(series, day * _DAY, 100)
        return suite.ingest(series, burst_ts, 900)

    def test_mass_event_fires_once_per_instant(self):
        suite = ObserverSuite(min_points=7, mass_event_k=2)
        burst_ts = 10 * _DAY
        assert self._quiet_then_burst(suite, "a", burst_ts)
        assert suite.mass_events == []         # one series is not mass
        assert self._quiet_then_burst(suite, "b", burst_ts)
        assert len(suite.mass_events) == 1
        assert suite.mass_events[0].series == ("a", "b")
        assert self._quiet_then_burst(suite, "c", burst_ts)
        assert len(suite.mass_events) == 1     # the k-th join already fired
        assert suite.snapshot()["mass_events"] == 1

    def test_add_series_overrides_and_duplicates(self):
        suite = ObserverSuite(sigma_mult=4.0)
        custom = suite.add_series("sparse", std_floor=5.0)
        assert suite.observer("sparse") is custom
        assert custom.std_floor == 5.0
        assert suite.observer("auto").sigma_mult == 4.0
        with pytest.raises(ValueError):
            suite.add_series("sparse")

    def test_provider_protocol(self):
        suite = ObserverSuite(min_points=7)
        self._quiet_then_burst(suite, "a", 10 * _DAY)
        snap = suite.snapshot()
        assert snap["anomalies"] == 2 and snap["mass_events"] == 0
        assert snap["series"]["a"]["points"] == 11
        assert [(a["series"], a["kind"]) for a in snap["recent"]] == [
            ("a", "zscore"), ("a", "step")]
        registry = MetricsRegistry()
        registry.register("observers", suite)
        assert json.loads(to_json(registry)) == {"observers": snap}


class TestDailyCounts:

    def test_empty(self):
        assert daily_counts([]) == []

    def test_zero_fill_between_first_and_last_day(self):
        stamps = [10, 20, 3 * _DAY + 5]
        assert daily_counts(stamps) == [
            (0, 2), (_DAY, 0), (2 * _DAY, 0), (3 * _DAY, 1)]


# --------------------------------------------------------------------------
# The pipeline hook: quiet default world, loud perturbed world
# --------------------------------------------------------------------------

class TestPipelineObservers:

    def test_default_world_stays_quiet(self, small_result):
        suite = default_pipeline_suite()
        found = observe_pipeline_result(suite, small_result)
        assert found == []
        assert suite.mass_events == []
        # The suite really watched a quarter's worth of daily points.
        assert suite.observer("registrations").points >= 85

    def test_registration_burst_fires_zscore(self, small_result):
        days = daily_counts(
            c.ct_seen_at for c in small_result.candidates.values())
        burst = [(ts, value * 8 if i == 60 else value)
                 for i, (ts, value) in enumerate(days)]
        suite = default_pipeline_suite()
        found = suite.ingest_series("registrations", burst)
        assert "zscore" in {a.kind for a in found}
        assert all(a.ts == days[60][0] for a in found)

    def test_simultaneous_bursts_raise_a_mass_event(self, small_result):
        days = daily_counts(
            c.ct_seen_at for c in small_result.candidates.values())
        burst_ts = days[60][0]
        burst = [(ts, value * 8 if ts == burst_ts else value)
                 for ts, value in days]
        suite = default_pipeline_suite()
        suite.ingest_series("registrations", burst)
        # A dark-host spike the same day: 60 never-resolved domains
        # against a zero baseline clears the sparse-series std floor.
        dark = [(ts, 60 if ts == burst_ts else 0) for ts, _ in days]
        suite.ingest_series("dark_hosts", dark)
        assert len(suite.mass_events) == 1
        assert suite.mass_events[0].series == ("dark_hosts", "registrations")


# --------------------------------------------------------------------------
# Detector properties (hypothesis): the invariants the scenario
# expectations lean on
# --------------------------------------------------------------------------

def _zscore_kinds(points, value, **params):
    """Kinds of anomalies the final ``value`` fires after ``points``."""
    obs = SeriesObserver("s", min_points=2, **params)
    for day, point in enumerate(points):
        obs.observe(day * _DAY, point)
    return {a.kind for a in obs.observe(len(points) * _DAY, value)}


class TestDetectorProperties:

    @given(points=st.lists(st.integers(0, 10**6), min_size=3, max_size=40),
           value=st.integers(0, 10**6),
           shift=st.integers(-(10**6), 10**6))
    @settings(max_examples=120, deadline=None)
    def test_zscore_verdict_invariant_under_affine_shift(
            self, points, value, shift):
        # Integer inputs keep the rolling sum-of-squares exact in
        # float64 (well under 2**53), so the property holds exactly
        # rather than up to cancellation error.
        # z = (v - mean) / max(std, floor): translating the whole
        # baseline window (and the scored point) by any constant leaves
        # both the deviation and the spread unchanged, so the z-score
        # verdict must not move.  (The step detector is *meant* to be
        # shift-sensitive — its score is relative to the mean — so only
        # the zscore kind is compared.)
        plain = "zscore" in _zscore_kinds(points, value)
        moved = "zscore" in _zscore_kinds([p + shift for p in points],
                                          value + shift)
        assert plain == moved

    @given(points=st.lists(st.integers(0, 10**4), min_size=3, max_size=30),
           value=st.integers(0, 10**4),
           low=st.floats(0, 1e3), extra=st.floats(0, 1e3))
    @settings(max_examples=120, deadline=None)
    def test_step_min_delta_gate_monotone_in_delta(
            self, points, value, low, extra):
        # A stricter gate can only suppress: any step that fires at
        # delta ``low + extra`` must also fire at the looser ``low``.
        high = low + extra
        fired_high = "step" in _zscore_kinds(points, value,
                                             step_min_delta=high)
        fired_low = "step" in _zscore_kinds(points, value,
                                            step_min_delta=low)
        assert not fired_high or fired_low

    @given(k=st.integers(1, 6), bursting=st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_mass_event_exact_at_k_boundary(self, k, bursting):
        # ``bursting`` series spike at one instant: a mass event exists
        # iff at least k of them did, and fires exactly once.
        suite = ObserverSuite(min_points=2, mass_event_k=k)
        burst_ts = 10 * _DAY
        for i in range(bursting):
            series = f"s{i}"
            for day in range(10):
                suite.ingest(series, day * _DAY, 100)
            assert suite.ingest(series, burst_ts, 10_000)
        assert len(suite.mass_events) == (1 if bursting >= k else 0)
        if bursting >= k:
            assert len(suite.mass_events[0].series) == k


# --------------------------------------------------------------------------
# World-level series + scenario expectations
# --------------------------------------------------------------------------

class TestWorldObservers:

    def test_observe_world_counts_ns_changes(self, tiny_world):
        suite = default_pipeline_suite()
        observe_world(suite, tiny_world)
        observer = suite.observer("ns_changes")
        assert observer.points > 0
        # The calibrated 2.5% NS-change rate is weather, not an event.
        assert [a for a in suite.anomalies
                if a.series == "ns_changes"] == []

    def test_ns_changes_excludes_the_initial_ns_set(self, tiny_world):
        # The first ns_timeline entry is the NS set recorded at zone
        # provisioning, not a change — the series total must equal the
        # beyond-the-first count exactly.
        total = sum(
            max(0, sum(1 for _ in lc.ns_timeline.changes()) - 1)
            for registry in tiny_world.registries
            for lc in registry.lifecycles())
        stamps = [ts
                  for registry in tiny_world.registries
                  for lc in registry.lifecycles()
                  for i, (ts, _) in enumerate(lc.ns_timeline.changes())
                  if i > 0]
        assert len(stamps) == total > 0
        assert sum(v for _, v in daily_counts(stamps)) == total


class TestScenarioExpectations:

    def test_rows_are_well_formed(self):
        for name, row in SCENARIO_EXPECTATIONS.items():
            assert row.scenario == name
            for series, kind in row.must_fire:
                assert kind in ("zscore", "step")
                assert series not in row.must_quiet

    def test_quiet_suite_fails_must_fire(self):
        problems = check_expectations(default_pipeline_suite(),
                                      "registrar-burst")
        assert any("expected a zscore anomaly" in p for p in problems)

    def test_noisy_suite_fails_must_quiet(self):
        suite = default_pipeline_suite()
        for day in range(10):
            suite.ingest("dark_hosts", day * _DAY, 0)
        suite.ingest("dark_hosts", 10 * _DAY, 500)
        problems = check_expectations(suite, "baseline")
        assert any("stay quiet" in p for p in problems)
        assert any("dark_hosts" in p for p in problems)

    def test_missing_mass_event_reported(self):
        problems = check_expectations(default_pipeline_suite(),
                                      "dynamic-update-hijack")
        assert any("mass event" in p for p in problems)


# --------------------------------------------------------------------------
# Resolver fleet stats: reset without double-counting + the pool snapshot
# --------------------------------------------------------------------------

class TestResolverStatsReset:

    @staticmethod
    def _bump(resolver, queries):
        resolver.stats.queries += queries
        resolver.stats.cache_hits += queries // 2

    def test_reset_retires_the_window(self):
        pool = ResolverPool(size=2)
        self._bump(pool.resolvers[0], 10)
        self._bump(pool.resolvers[1], 4)
        closed = pool.reset_stats()
        assert closed.queries == 14
        assert pool.aggregate_stats(include_retired=False).queries == 0
        assert pool.aggregate_stats().queries == 14

    def test_totals_survive_repeated_resets(self):
        pool = ResolverPool(size=2)
        for _ in range(3):
            self._bump(pool.resolvers[0], 10)
            pool.reset_stats()
        self._bump(pool.resolvers[1], 5)
        # 3 retired windows + 1 live window, each query counted once.
        assert pool.aggregate_stats().queries == 35
        assert pool.total_queries() == 35

    def test_lifetime_stats_per_resolver(self):
        resolver = ResolverPool(size=1).resolvers[0]
        self._bump(resolver, 6)
        resolver.reset_stats()
        self._bump(resolver, 4)
        assert resolver.stats.queries == 4
        assert resolver.lifetime_stats().queries == 10

    def test_pool_metrics_pull_live_state(self):
        pool = ResolverPool(size=3)
        metrics = ResolverPoolMetrics(pool)
        assert metrics.snapshot()["pool_size"] == 3
        assert metrics.snapshot()["queries"] == 0
        self._bump(pool.resolvers[0], 8)
        # No push happened: the snapshot reads the pool at render time.
        assert metrics.snapshot()["queries"] == 8
        pool.reset_stats()
        assert metrics.snapshot()["queries"] == 8
        assert metrics.snapshot()["cache_hits"] == 4


# --------------------------------------------------------------------------
# Adapters and determinism
# --------------------------------------------------------------------------

class TestAdaptersAndDeterminism:

    def test_adapters_satisfy_the_provider_protocol(self):
        from repro.resilience.metrics import ResilienceMetrics
        from repro.scan.metrics import ScanMetrics
        from repro.serve.metrics import ServeMetrics
        for provider in (ScanMetrics(), ServeMetrics(), ResilienceMetrics(),
                         ResolverPoolMetrics(ResolverPool(size=1))):
            registry = MetricsRegistry()
            registry.register("x", provider)
            assert isinstance(provider.snapshot(), dict)
            assert json.loads(to_json(registry)) == {"x": provider.snapshot()}

    def test_fresh_resilience_snapshot_has_all_ten_keys(self):
        from repro.resilience.metrics import ResilienceMetrics
        keyed = ("faults_injected", "worker_failures",
                 "breaker_transitions", "shed_clients")
        plain = ("serial_fallbacks", "breaker_skips", "torn_lines",
                 "records_salvaged", "segments_quarantined",
                 "rejected_lines")
        expected = {f"resilience_{name}_total": {} for name in keyed}
        expected.update({f"resilience_{name}_total": 0 for name in plain})
        assert ResilienceMetrics().snapshot() == expected

    def test_keyed_resilience_counts_render_sorted(self):
        from repro.resilience.metrics import ResilienceMetrics
        metrics = ResilienceMetrics()
        metrics.faults_injected["scan.timeout"] += 1
        metrics.faults_injected["log.torn_write"] += 2
        metrics.serial_fallbacks.inc()
        snap = metrics.snapshot()
        faults = snap["resilience_faults_injected_total"]
        assert list(faults.items()) == [("log.torn_write", 2),
                                        ("scan.timeout", 1)]
        assert snap["resilience_serial_fallbacks_total"] == 1
        assert snap["resilience_worker_failures_total"] == {}

    def test_fingerprint_identical_with_tracing_disabled(self, tiny_world):
        """Instrumentation must never perturb a sampled value."""
        from repro.obs import set_enabled
        config = ScenarioConfig(seed=11, scale=1 / 5000,
                                tlds=["com", "xyz"], include_cctld=False)
        set_enabled(False)
        try:
            dark_build = build_world(config)
        finally:
            set_enabled(True)
        assert world_fingerprint(dark_build) == world_fingerprint(tiny_world)


# --------------------------------------------------------------------------
# Cross-process span stitching (adopt_spans / from_dict / rss growth)
# --------------------------------------------------------------------------

class TestSpanStitching:

    @staticmethod
    def _worker_records():
        """Records the way a worker produces them: reset tracer, one
        populate span with a nested child."""
        w = Tracer()
        with w.span("build.populate_tld", tld="com") as sp:
            with w.span("inner"):
                pass
            sp.annotate(nrd=120)
        return w.export_records()

    def test_from_dict_round_trips_as_dict(self):
        t = Tracer()
        with t.span("build.populate_tld", tld="com") as sp:
            sp.annotate(sim_sec=_DAY, nrd=9)
        record = t.spans[0].as_dict()
        from repro.obs.spans import Span
        assert Span.from_dict(record).as_dict() == record

    def test_adopt_remaps_ids_and_reroots_under_parent(self):
        records = self._worker_records()
        t = Tracer()
        with t.span("build.merge_shards", jobs=2) as merge:
            assert t.adopt_spans(records, parent=merge, worker=1) == 2
        # Finish order: inner, populate, merge.
        inner, populate, merge_done = t.spans
        assert inner.name == "inner" and populate.name == "build.populate_tld"
        # Foreign ids were remapped onto the local sequence (the merge
        # span took local id 0; adopted spans follow).
        assert {inner.span_id, populate.span_id} == {1, 2}
        assert inner.parent_id == populate.span_id   # intra-batch link kept
        assert populate.parent_id == merge_done.span_id  # root re-rooted
        assert populate.depth == 1 and inner.depth == 2  # shifted under it
        assert populate.labels == {"tld": "com", "worker": "1"}
        assert populate.annotations == {"nrd": 120}

    def test_adopted_spans_feed_aggregates(self):
        records = self._worker_records()
        t = Tracer()
        t.adopt_spans(records, worker=0)
        totals = t.phase_totals()
        assert totals["build.populate_tld"]["count"] == 1
        assert totals["inner"]["count"] == 1
        assert ([r["span"] for r in t.export_records()]
                == ["inner", "build.populate_tld"])

    def test_adopt_without_parent_keeps_roots(self):
        records = self._worker_records()
        t = Tracer()
        t.adopt_spans(records)
        populate = next(s for s in t.spans
                        if s.name == "build.populate_tld")
        assert populate.parent_id is None and populate.depth == 0

    def test_adopt_is_noop_when_disabled(self):
        records = self._worker_records()
        t = Tracer(enabled=False)
        assert t.adopt_spans(records, worker=3) == 0
        assert t.spans == [] and t.phase_totals() == {}

    def test_current_and_root_span(self):
        t = Tracer()
        assert t.current_span() is None and t.root_span() is None
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                assert t.current_span() is inner
                assert t.root_span() is outer
        assert t.current_span() is None

    def test_rss_growth_zero_when_under_earlier_peak(self, monkeypatch):
        from repro.obs import spans as spans_mod
        rss = iter([1000, 1500, 1500, 1500])  # enter/exit, enter/exit
        monkeypatch.setattr(spans_mod, "_peak_rss_kb", lambda: next(rss))
        t = Tracer()
        with t.span("grew"):
            pass
        with t.span("flat"):
            pass
        grew, flat = t.spans
        assert grew.rss_growth_kb == 500 and grew.peak_rss_kb == 1500
        assert flat.rss_growth_kb == 0 and flat.peak_rss_kb == 1500
        totals = t.phase_totals()
        assert totals["grew"]["rss_growth_kb"] == 500
        assert totals["flat"]["rss_growth_kb"] == 0


# --------------------------------------------------------------------------
# Sampling profiler
# --------------------------------------------------------------------------

class TestSamplingProfiler:

    @staticmethod
    def _root_samples(prof):
        """Samples per collapsed-stack root, i.e. per attributed phase."""
        totals = {}
        for line in prof.collapsed():
            stack, count = line.rsplit(" ", 1)
            root = stack.split(";", 1)[0]
            totals[root] = totals.get(root, 0) + int(count)
        return totals

    def _spin(self, trace, seconds=0.05):
        import time as _time
        with trace.span("hot.phase"):
            deadline = _time.perf_counter() + seconds
            while _time.perf_counter() < deadline:
                sum(range(200))

    def test_samples_attribute_to_active_phase(self):
        from repro.obs.profiler import SamplingProfiler
        t = Tracer()
        prof = SamplingProfiler(interval=0.001, trace=t).start()
        try:
            self._spin(t)
        finally:
            prof.stop()
        assert prof.samples > 0
        roots = self._root_samples(prof)
        assert roots.get("hot.phase", 0) > 0
        assert sum(roots.values()) == prof.samples
        assert any(line.startswith("hot.phase;") for line in prof.collapsed())

    def test_zero_samples_is_clean(self):
        from repro.obs.profiler import SamplingProfiler
        prof = SamplingProfiler(interval=60.0).start()
        prof.stop()
        assert prof.samples == 0
        assert prof.collapsed() == []

    def test_double_start_and_double_stop_are_noops(self):
        from repro.obs.profiler import SamplingProfiler, active
        prof = SamplingProfiler(interval=0.01)
        assert prof.start() is prof
        thread = prof._thread
        assert prof.start() is prof and prof._thread is thread
        assert active() is prof
        prof.stop()
        assert active() is None
        prof.stop()                      # second stop: no-op, no raise
        assert not prof.running

    def test_exception_during_profiled_phase(self, tmp_path):
        """The CLI's --profile-out wiring stops the profiler when the
        command raises, and writes no stacks for the failed run."""
        import argparse
        from repro.cli import _instrumented
        from repro.obs.profiler import active
        out = tmp_path / "prof.txt"
        args = argparse.Namespace(quiet=False, log_json=None,
                                  profile_out=str(out),
                                  profile_interval=0.001)
        with pytest.raises(ValueError):
            with _instrumented(args):
                prof = active()
                assert prof is not None and prof.running
                self._spin(tracer(), seconds=0.03)
                raise ValueError("boom")
        assert not prof.running          # stopped despite the raise
        assert active() is None
        assert not out.exists()

    def test_invalid_interval_rejected(self):
        from repro.obs.profiler import SamplingProfiler
        for interval in (0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                SamplingProfiler(interval=interval)

    def test_merge_counts_and_collapsed_format(self):
        from repro.obs.profiler import SamplingProfiler
        prof = SamplingProfiler(interval=60.0)
        prof.merge_counts([("phase;mod.f;mod.g", 3), ("phase;mod.f", 2)])
        prof.merge_counts([("phase;mod.f;mod.g", 1)])
        assert prof.samples == 6
        assert prof.collapsed() == ["phase;mod.f;mod.g 4", "phase;mod.f 2"]
        assert prof.export_counts() == [("phase;mod.f", 2),
                                        ("phase;mod.f;mod.g", 4)]
        assert self._root_samples(prof) == {"phase": 6}

    def test_write_collapsed(self, tmp_path):
        from repro.obs.profiler import SamplingProfiler
        prof = SamplingProfiler(interval=60.0)
        prof.merge_counts([("p;a.b", 5)])
        path = tmp_path / "collapsed.txt"
        assert prof.write_collapsed(path) == 1
        assert path.read_text() == "p;a.b 5\n"

    def test_unattributed_outside_spans(self):
        from repro.obs.profiler import SamplingProfiler, UNATTRIBUTED
        import time as _time
        t = Tracer()
        prof = SamplingProfiler(interval=0.001, trace=t).start()
        try:
            deadline = _time.perf_counter() + 0.03
            while _time.perf_counter() < deadline:
                sum(range(200))
        finally:
            prof.stop()
        if prof.samples:
            assert set(self._root_samples(prof)) == {UNATTRIBUTED}


# --------------------------------------------------------------------------
# Structured logging
# --------------------------------------------------------------------------

class TestLogRouter:

    @staticmethod
    def _router(**kw):
        import io
        from repro.obs.log import LogRouter
        stream = io.StringIO()
        clock = {"now": 1000.0}
        router = LogRouter(stream=stream,
                           clock=lambda: clock["now"], **kw)
        return router, stream, clock

    def test_levels_filter(self):
        router, stream, _ = self._router(level="warning")
        assert not router.emit("x", "info", "hidden")
        assert router.emit("x", "warning", "shown")
        assert stream.getvalue() == "warning: shown\n"

    def test_unknown_level_rejected(self):
        from repro.obs.log import LogRouter
        with pytest.raises(ValueError):
            LogRouter(level="loud")
        router, _, _ = self._router()
        with pytest.raises(ValueError):
            router.set_level("nope")

    def test_duplicate_suppression_and_repeats(self):
        router, stream, clock = self._router()
        assert router.emit("feed", "warning", "bad line")
        for _ in range(4):                      # inside the window
            clock["now"] += 1.0
            assert not router.emit("feed", "warning", "bad line")
        clock["now"] += 10.0                    # past the window
        assert router.emit("feed", "warning", "bad line")
        lines = stream.getvalue().splitlines()
        assert lines == ["warning: bad line",
                         "warning: bad line [x4 suppressed]"]
        assert router.suppressed == 4 and router.emitted == 2

    def test_distinct_messages_not_suppressed(self):
        router, stream, _ = self._router()
        assert router.emit("x", "info", "one")
        assert router.emit("x", "info", "two")
        assert stream.getvalue() == "one\ntwo\n"

    def test_error_level_bypasses_suppression(self):
        router, stream, _ = self._router()
        assert router.emit("cli", "error", "boom")
        assert router.emit("cli", "error", "boom")  # same instant
        assert stream.getvalue() == "error: boom\nerror: boom\n"

    def test_json_sink_schema(self, tmp_path):
        router, _, _ = self._router()
        path = tmp_path / "log.jsonl"
        router.open_json(path)
        router.emit("cli", "info", "hello", extra=7)
        router.close_json()
        (record,) = [json.loads(line)
                     for line in path.read_text().splitlines()]
        assert record["msg"] == "hello" and record["logger"] == "cli"
        assert record["level"] == "info" and record["extra"] == 7
        assert record["ts"] == 1000.0
        # Correlation keys are always present (null outside spans).
        assert record["span"] is None and record["trace"] is None

    def test_span_and_trace_correlation_ids(self, tmp_path):
        router, _, _ = self._router()
        path = tmp_path / "log.jsonl"
        router.open_json(path)
        t = tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                router.emit("core", "info", "within")
        router.close_json()
        (record,) = [json.loads(line)
                     for line in path.read_text().splitlines()]
        assert record["span"] == inner.span_id
        assert record["trace"] == outer.span_id

    def test_repeats_recorded_in_json(self, tmp_path):
        router, _, clock = self._router()
        path = tmp_path / "log.jsonl"
        router.open_json(path)
        router.emit("x", "warning", "dup")
        router.emit("x", "warning", "dup")
        clock["now"] += 99.0
        router.emit("x", "warning", "dup")
        router.close_json()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert "repeats" not in records[0]
        assert records[1]["repeats"] == 1

    def test_logger_facade(self, tmp_path, capsys):
        from repro.obs.log import get_logger, router as router_fn
        path = tmp_path / "log.jsonl"
        shared = router_fn()
        prev_level = shared.level
        try:
            shared.set_level("debug")
            shared.open_json(path)
            log = get_logger("t.facade")
            assert log.debug("dbg", k=1)
            assert log.info("inf")
        finally:
            shared.set_level(prev_level)
            shared.close_json()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["level"] for r in records] == ["debug", "info"]
        assert all(r["logger"] == "t.facade" for r in records)
        err = capsys.readouterr().err
        assert "debug: dbg" in err and "inf" in err

    def test_feed_loader_routes_through_log(self, tmp_path, capsys):
        from repro.core.feed import PublicFeed
        path = tmp_path / "feed.jsonl"
        path.write_text('not json\n{"domain": "a.com", "tld": "com", '
                        '"seen_at": 5}\n', encoding="utf-8")
        feed = PublicFeed.from_jsonl(path)
        assert feed.load_errors == 1
        err = capsys.readouterr().err
        assert "warning" in err and "1 malformed" in err
