"""Tests for repro.scan — the bulk DNS measurement engine.

The load-bearing property: :class:`ScanEngine` must produce
:class:`MonitorReport` objects *identical* (full dataclass equality,
probe counts included) to :class:`LoopMonitor`'s literal probe loop
under default configuration.  Everything the engine does to be fast —
A/AAAA early-stop, negative-answer dedup, delegation-removed
termination, dark-host suppression — must be invisible in the report.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.broker import Broker, TOPIC_OBSERVATIONS
from repro.bus.columnar import ColumnStore
from repro.core.monitor import LoopMonitor, MonitorConfig
from repro.core.pipeline import DarkDNSPipeline, PipelineConfig
from repro.dnscore.records import RRType
from repro.dnscore.resolver import ResolverStats
from repro.errors import ScanError
from repro.registry.policy import gtld
from repro.registry.registry import Registry, RegistryGroup
from repro.scan import (
    AuthorityRateLimiter,
    ProbeResultStore,
    ProbeScheduler,
    ScanConfig,
    ScanEngine,
)
from repro.simtime.clock import DAY, HOUR, MINUTE


def build_registry(tld="com", interval=MINUTE):
    return Registry(gtld(tld, interval, snapshot_offset=0))


def register(registry, domain, created, lifetime=None, lame=False,
             ns_change_at=None):
    lc = registry.register(domain, created, "GoDaddy",
                           ns_hosts=["ns1.h.net", "ns2.h.net"],
                           a_addrs=["192.0.2.1"],
                           aaaa_addrs=["2001:db8::1"], lame=lame)
    if lifetime is not None:
        registry.schedule_removal(domain, created + lifetime)
    if ns_change_at is not None and lc.zone_added_at is not None:
        registry.change_nameservers(domain, created + ns_change_at,
                                    ["ns9.other.net"])
    return lc


SHORT = ScanConfig(probe_interval=10 * MINUTE, duration=6 * HOUR)
SHORT_MONITOR = MonitorConfig(probe_interval=10 * MINUTE, duration=6 * HOUR)


# ---------------------------------------------------------------------------
# The equivalence property
# ---------------------------------------------------------------------------

@st.composite
def domain_scenario(draw):
    created = 10_000 + draw(st.integers(0, 4 * HOUR))
    lifetime = draw(st.one_of(
        st.none(),
        st.integers(5 * MINUTE, 12 * HOUR)))
    lame = draw(st.booleans())
    ns_change_at = draw(st.one_of(st.none(), st.integers(MINUTE, 5 * HOUR)))
    interval = draw(st.sampled_from([MINUTE, 17 * MINUTE]))
    start_offset = draw(st.integers(-30 * MINUTE, 2 * HOUR))
    return created, lifetime, lame, ns_change_at, interval, start_offset


class TestScanLoopEquivalence:
    """ScanEngine must observe exactly what LoopMonitor observes."""

    @given(domain_scenario())
    @settings(max_examples=60, deadline=None)
    def test_reports_identical(self, scenario):
        created, lifetime, lame, ns_change_at, interval, start_offset = scenario
        registry = build_registry(interval=interval)
        lc = register(registry, "probe.com", created, lifetime=lifetime,
                      lame=lame,
                      ns_change_at=(ns_change_at
                                    if lifetime is None
                                    or (ns_change_at or 0) < lifetime
                                    else None))
        group = RegistryGroup([registry])
        start = max(0, (lc.zone_added_at or created) + start_offset)
        loop = LoopMonitor(group, SHORT_MONITOR).observe("probe.com", start)
        scan = ScanEngine(group, SHORT).observe("probe.com", start)
        # Full dataclass equality: every field, probe count included.
        assert scan == loop

    def test_equivalence_on_scenario_domains(self, tiny_world, tiny_result):
        """Bulk path (observe_all) against the loop on real candidates."""
        config = MonitorConfig(probe_interval=10 * MINUTE, duration=12 * HOUR)
        loop = LoopMonitor(tiny_world.registries, config)
        engine = ScanEngine(tiny_world.registries,
                            ScanConfig.from_monitor(config))
        sample = sorted(tiny_result.candidates)[:40]
        starts = {d: tiny_result.candidates[d].ct_seen_at for d in sample}
        reports = engine.observe_all(starts)
        for domain, start in starts.items():
            assert reports[domain] == loop.observe(domain, start), domain

    def test_scan_sends_far_fewer_probes(self, tiny_world, tiny_result):
        """The engine's whole point: identical reports, fewer probes."""
        config = ScanConfig(probe_interval=10 * MINUTE, duration=12 * HOUR)
        engine = ScanEngine(tiny_world.registries, config)
        sample = sorted(tiny_result.candidates)[:40]
        reports = engine.observe_all(
            {d: tiny_result.candidates[d].ct_seen_at for d in sample})
        nominal = sum(r.probes for r in reports.values())
        assert engine.metrics.probes_sent.value < nominal / 2


# ---------------------------------------------------------------------------
# Scheduler edge cases
# ---------------------------------------------------------------------------

class TestSchedulerEdgeCases:
    def test_domain_registered_mid_window(self):
        """Monitoring starts before the zone add: early NXDOMAIN instants
        must not terminate the domain, and the delegation must still be
        picked up once published."""
        registry = build_registry()
        lc = register(registry, "late.com", 50_000)
        group = RegistryGroup([registry])
        start = lc.zone_added_at - 90 * MINUTE
        scan = ScanEngine(group, SHORT).observe("late.com", start)
        loop = LoopMonitor(group, SHORT_MONITOR).observe("late.com", start)
        assert scan == loop
        assert scan.ever_resolved
        assert scan.first_a == ("192.0.2.1",)

    def test_grid_crossing_window_boundary(self):
        """A removal after monitor_end is invisible; the grid never
        probes at or past start + duration (ceil-length grid, duration
        not a multiple of the interval)."""
        config = ScanConfig(probe_interval=17 * MINUTE, duration=100 * MINUTE)
        mconfig = MonitorConfig(probe_interval=17 * MINUTE,
                                duration=100 * MINUTE)
        registry = build_registry()
        # Dies well after the monitoring window closes.
        lc = register(registry, "outlive.com", 10_000, lifetime=2 * DAY)
        group = RegistryGroup([registry])
        scan = ScanEngine(group, config).observe("outlive.com",
                                                 lc.zone_added_at)
        loop = LoopMonitor(group, mconfig).observe("outlive.com",
                                                   lc.zone_added_at)
        assert scan == loop
        assert not scan.observed_removal()
        grid_len = -(-config.duration // config.probe_interval)
        assert scan.probes == grid_len * 3
        last_instant = lc.zone_added_at + (grid_len - 1) * config.probe_interval
        assert scan.last_ns_ok == last_instant
        assert last_instant < scan.monitor_end

    def test_early_termination_on_removed_delegation(self):
        """Once the delegation disappears the rest of the grid is dropped
        — without changing the report."""
        registry = build_registry()
        lc = register(registry, "dying.com", 10_000, lifetime=HOUR)
        group = RegistryGroup([registry])
        engine = ScanEngine(group, SHORT)
        scan = engine.observe("dying.com", lc.zone_added_at)
        loop = LoopMonitor(group, SHORT_MONITOR).observe("dying.com",
                                                         lc.zone_added_at)
        assert scan == loop
        assert scan.observed_removal()
        assert engine.metrics.terminated_early.value == 1
        # 6 h of 10-min instants is 36; the domain died after ~1 h.
        assert engine.metrics.probes_sent.value < 36

    def test_nxdomain_stable_early_termination(self):
        """The opt-in streak cutoff stops probing ghosts early while
        reporting the same all-NXDOMAIN outcome."""
        group = RegistryGroup([build_registry()])
        config = ScanConfig(probe_interval=10 * MINUTE, duration=6 * HOUR,
                            terminate_nxdomain_streak=3)
        engine = ScanEngine(group, config)
        scan = engine.observe("ghost.com", 10_000)
        loop = LoopMonitor(group, SHORT_MONITOR).observe("ghost.com", 10_000)
        assert scan == loop          # ghosts: the cutoff is invisible
        assert engine.metrics.probes_sent.value == 3  # 3 NS, nothing else
        assert engine.metrics.terminated_early.value == 1

    def test_nxdomain_streak_misses_late_registration(self):
        """The documented accuracy/cost tradeoff: with the streak cutoff
        on, a domain registered later than streak × interval into the
        window is (wrongly) written off — which is exactly why the
        cutoff defaults to off."""
        registry = build_registry()
        lc = register(registry, "late.com", 50_000)
        group = RegistryGroup([registry])
        start = lc.zone_added_at - 2 * HOUR
        config = ScanConfig(probe_interval=10 * MINUTE, duration=6 * HOUR,
                            terminate_nxdomain_streak=3)
        scan = ScanEngine(group, config).observe("late.com", start)
        assert not scan.ever_resolved
        safe = ScanEngine(group, SHORT).observe("late.com", start)
        assert safe.ever_resolved

    def test_scheduler_queue_stays_small(self):
        """Lazy grids: queue depth is O(domains), not O(domains × 288)."""
        scheduler = ProbeScheduler(probe_interval=10 * MINUTE,
                                   duration=48 * HOUR)
        for i in range(500):
            scheduler.add_domain(f"d{i}.com", 10_000)
        assert len(scheduler) == 500
        assert scheduler.grid_size("d0.com") == 288

    def test_scheduler_fifo_per_instant(self):
        scheduler = ProbeScheduler(probe_interval=600, duration=1200)
        scheduler.add_domain("a.com", 1000)
        scheduler.add_domain("b.com", 1000)
        first, second = scheduler.pop(), scheduler.pop()
        assert (first.domain, second.domain) == ("a.com", "b.com")
        # A deferred entry lands behind work already queued at that time.
        scheduler.defer(first, 1600)
        assert scheduler.advance("b.com")  # queues b's instant @1600
        assert scheduler.pop().domain == "b.com"
        assert scheduler.pop().domain == "a.com"

    def test_scheduler_terminate_drops_pending(self):
        scheduler = ProbeScheduler(probe_interval=600, duration=3600)
        scheduler.add_domain("a.com", 1000)
        scheduler.terminate("a.com")
        assert scheduler.pop() is None
        assert not scheduler.advance("a.com")

    def test_scheduler_rejects_duplicates_and_bad_config(self):
        scheduler = ProbeScheduler(probe_interval=600, duration=3600)
        scheduler.add_domain("a.com", 0)
        with pytest.raises(ScanError):
            scheduler.add_domain("a.com", 0)
        with pytest.raises(ScanError):
            ProbeScheduler(probe_interval=0, duration=3600)
        with pytest.raises(ScanError):
            ProbeScheduler(probe_interval=600, duration=3600, jitter=600)

    def test_jitter_is_deterministic_and_bounded(self):
        for _ in range(2):
            scheduler = ProbeScheduler(probe_interval=600, duration=1800,
                                       jitter=300)
            scheduler.add_domain("a.com", 10_000)
            entry = scheduler.pop()
            assert 10_000 <= entry.due < 10_300
            first_due = entry.due
        scheduler2 = ProbeScheduler(probe_interval=600, duration=1800,
                                    jitter=300)
        scheduler2.add_domain("a.com", 10_000)
        assert scheduler2.pop().due == first_due


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------

class TestRateLimiting:
    def test_limiter_spend_and_delay(self):
        limiter = AuthorityRateLimiter(qps=2.0)
        assert limiter.try_acquire("com", now=100, n=2)
        assert not limiter.try_acquire("com", now=100, n=1)
        assert limiter.delay_until("com", now=100, n=2) == 1
        assert limiter.try_acquire("com", now=101, n=2)
        assert limiter.max_sent_per_second() == {"com": 2}

    def test_limiter_rejects_bad_qps(self):
        for qps in (0, float("nan"), float("inf")):
            with pytest.raises(ScanError):
                AuthorityRateLimiter(qps=qps)

    def test_starvation_fairness_under_tight_budget(self):
        """A congested authority throttles without starving anyone: every
        domain on it completes, and the per-second cap is never broken."""
        com = build_registry("com")
        net = build_registry("net")
        domains = {}
        for i in range(8):
            lc = register(com, f"busy{i}.com", 10_000)
            domains[f"busy{i}.com"] = lc.zone_added_at
        lc = register(net, "calm.net", 10_000)
        domains["calm.net"] = lc.zone_added_at
        group = RegistryGroup([com, net])
        config = ScanConfig(probe_interval=10 * MINUTE, duration=2 * HOUR,
                            qps_per_authority=2.0)
        engine = ScanEngine(group, config)
        reports = engine.observe_all(domains)
        assert len(reports) == 9
        for domain, report in reports.items():
            assert report.ever_resolved, f"{domain} was starved"
        assert engine.metrics.rate_limit_stalls.value > 0
        peaks = engine.limiter.max_sent_per_second()
        assert all(peak <= 2 for peak in peaks.values()), peaks
        # Stalled probes ran late; the lag histogram saw it.
        assert engine.metrics.probe_lag.max > 0

    def test_fractional_qps_still_makes_progress(self):
        """A cap below 1 probe/sec must throttle, not deadlock: the
        bucket banks (at least) one whole probe, so every stalled entry
        eventually executes and the run terminates."""
        registry = build_registry()
        lc = register(registry, "slow.com", 10_000)
        config = ScanConfig(probe_interval=10 * MINUTE, duration=HOUR,
                            qps_per_authority=0.5)
        engine = ScanEngine(RegistryGroup([registry]), config)
        report = engine.observe("slow.com", lc.zone_added_at)
        assert report.ever_resolved
        peaks = engine.limiter.max_sent_per_second()
        assert all(peak <= 1 for peak in peaks.values()), peaks

    def test_unthrottled_runs_exactly_on_grid(self):
        registry = build_registry()
        lc = register(registry, "live.com", 10_000)
        engine = ScanEngine(RegistryGroup([registry]), SHORT)
        engine.observe("live.com", lc.zone_added_at)
        assert engine.metrics.rate_limit_stalls.value == 0
        assert engine.metrics.probe_lag.max == 0


# ---------------------------------------------------------------------------
# Engine behaviours beyond the loop contract
# ---------------------------------------------------------------------------

class TestEngineBehaviour:
    def test_probe_budget_caps_sends(self):
        registry = build_registry()
        starts = {}
        for i in range(5):
            lc = register(registry, f"d{i}.com", 10_000)
            starts[f"d{i}.com"] = lc.zone_added_at
        config = ScanConfig(probe_interval=10 * MINUTE, duration=6 * HOUR,
                            probe_budget=20)
        engine = ScanEngine(RegistryGroup([registry]), config)
        reports = engine.observe_all(starts)
        assert engine.budget_exhausted
        assert engine.metrics.probes_sent.value <= 20
        assert len(reports) == 5  # partial reports still delivered
        assert engine.snapshot()["budget_exhausted"] is True

    def test_negcache_dedups_ghost_address_lookups(self):
        engine = ScanEngine(RegistryGroup([build_registry()]), SHORT)
        engine.observe("ghost.com", 10_000)
        grid = 6 * HOUR // (10 * MINUTE)
        assert engine.metrics.probes_sent.value == grid       # NS only
        assert engine.metrics.negcache_hits.value == grid * 2  # A + AAAA

    def test_dark_host_suppression_stops_lame_retries(self):
        registry = build_registry()
        lc = register(registry, "lame.com", 10_000, lame=True)
        engine = ScanEngine(RegistryGroup([registry]), SHORT)
        report = engine.observe("lame.com", lc.zone_added_at)
        assert report.ever_resolved and report.first_a == ()
        assert engine.metrics.retries.value > 0
        grid = 6 * HOUR // (10 * MINUTE)
        # NS every instant; A/AAAA only until the dark streak trips
        # (3 instants × (1 + 2 retries) × 2 qtypes = 18 probes).
        assert engine.metrics.probes_sent.value == grid + 18

    def test_retry_schedule_doubles_from_retry_backoff(self):
        # Under a total timeout storm every NS instant runs its whole
        # retry chain: retry 1 is due retry_backoff (5 s) after the
        # failed probe, and each later retry doubles the wait (10 s,
        # then 20 s).
        registry = build_registry()
        lc = register(registry, "live.com", 10_000)
        store = ProbeResultStore()
        config = ScanConfig(probe_interval=10 * MINUTE, duration=6 * HOUR,
                            max_retries=3,
                            fault_plan="seed=2;scan.timeout:rate=1.0")
        engine = ScanEngine(RegistryGroup([registry]), config, store=store)
        engine.observe("live.com", lc.zone_added_at)
        chains = {}
        for row in store.for_domain("live.com"):
            if row["qtype"] == "NS":
                chains.setdefault(row["nominal_ts"], []).append(
                    (row["attempt"], row["ts"] - row["nominal_ts"]))
        assert len(chains) == 6 * HOUR // (10 * MINUTE)
        # The domain finalises once its last grid instant has run, so
        # only that instant's retries never execute.
        final = max(chains)
        for nominal, chain in chains.items():
            if nominal != final:
                assert chain == [(0, 0), (1, 5), (2, 15), (3, 35)]

    def test_retries_count_only_executed_retries(self):
        # A retry of the final grid instant would be dropped when the
        # domain finalises, so it is neither queued nor counted: every
        # counted retry is a row of the store.
        registry = build_registry()
        lc = register(registry, "live.com", 10_000)
        store = ProbeResultStore()
        config = ScanConfig(probe_interval=10 * MINUTE, duration=6 * HOUR,
                            fault_plan="seed=2;scan.timeout:rate=1.0")
        engine = ScanEngine(RegistryGroup([registry]), config, store=store)
        engine.observe("live.com", lc.zone_added_at)
        retried = sum(1 for row in store.for_domain("live.com")
                      if row["attempt"] > 0)
        assert retried > 0
        assert engine.metrics.retries.value == retried

    def test_observe_is_idempotent(self):
        registry = build_registry()
        lc = register(registry, "live.com", 10_000)
        engine = ScanEngine(RegistryGroup([registry]), SHORT)
        first = engine.observe("live.com", lc.zone_added_at)
        again = engine.observe("live.com", lc.zone_added_at)
        assert first is again
        assert engine.metrics.domains_scheduled.value == 1

    def test_reports_publish_to_bus(self):
        registry = build_registry()
        lc = register(registry, "live.com", 10_000)
        broker = Broker()
        engine = ScanEngine(RegistryGroup([registry]), SHORT, broker=broker)
        report = engine.observe("live.com", lc.zone_added_at)
        batch = broker.poll("sink", TOPIC_OBSERVATIONS)
        assert len(batch) == 1
        assert batch[0].value == report
        assert batch[0].key == "live.com"

    def test_config_validation(self):
        with pytest.raises(ScanError):
            ScanConfig(workers=0)
        for qps in (-1, 0, float("nan"), float("inf")):
            with pytest.raises(ScanError):
                ScanConfig(qps_per_authority=qps)
        with pytest.raises(ScanError):
            ScanConfig(probe_budget=0)
        with pytest.raises(ScanError):
            ScanConfig(retry_backoff=0)
        # Jitter is config-level so the CLI fails fast, before paying
        # for the world build.
        with pytest.raises(ScanError):
            ScanConfig(jitter=-1)
        with pytest.raises(ScanError):
            ScanConfig(probe_interval=600, jitter=600)

    def test_snapshot_shape(self):
        registry = build_registry()
        lc = register(registry, "live.com", 10_000)
        engine = ScanEngine(RegistryGroup([registry]), SHORT,
                            store=ProbeResultStore())
        engine.observe("live.com", lc.zone_added_at)
        snap = engine.snapshot()
        payload = json.loads(json.dumps(snap))  # JSON-ready
        for key in ("probes_sent", "retries", "rate_limit_stalls",
                    "negcache_hits", "probe_lag", "queue_depth",
                    "resolver", "authority_peak_qps", "store"):
            assert key in payload, key
        assert payload["probe_lag"]["p99"] == 0
        assert payload["resolver"]["queries"] == payload["probes_sent"]


# ---------------------------------------------------------------------------
# The columnar result store
# ---------------------------------------------------------------------------

class TestProbeResultStore:
    def build_engine_with_store(self):
        registry = build_registry()
        lc = register(registry, "live.com", 10_000, lifetime=2 * HOUR)
        register(registry, "other.com", 10_000)
        store = ProbeResultStore()
        engine = ScanEngine(RegistryGroup([registry]), SHORT, store=store)
        starts = {"live.com": lc.zone_added_at, "other.com": lc.zone_added_at,
                  "ghost.com": lc.zone_added_at}
        engine.observe_all(starts)
        return engine, store, lc

    def test_per_domain_and_time_range_queries(self):
        engine, store, lc = self.build_engine_with_store()
        rows = store.for_domain("live.com")
        assert rows and all(r["domain"] == "live.com" for r in rows)
        assert rows[0]["qtype"] == "NS"
        window = store.time_range(lc.zone_added_at,
                                  lc.zone_added_at + 30 * MINUTE)
        assert window
        assert all(lc.zone_added_at <= r["ts"] < lc.zone_added_at
                   + 30 * MINUTE for r in window)
        ts_values = [r["ts"] for r in window]
        assert ts_values == sorted(ts_values)

    def test_store_counts_and_summary(self):
        engine, store, _ = self.build_engine_with_store()
        summary = store.summary()
        assert summary["rows"] == len(store)
        assert summary["domains"] == 3
        assert "NXDOMAIN" in summary["rcodes"]
        assert summary["qtypes"]["NS"] > 0

    def test_store_round_trip(self, tmp_path):
        engine, store, _ = self.build_engine_with_store()
        path = tmp_path / "probes.json"
        store.save(path)
        loaded = ProbeResultStore.load(path)
        assert len(loaded) == len(store)
        assert loaded.for_domain("ghost.com") == store.for_domain("ghost.com")

    def test_negcache_rows_are_marked(self):
        engine, store, _ = self.build_engine_with_store()
        ghost_rows = store.for_domain("ghost.com")
        assert any(r["negcache"] for r in ghost_rows)
        assert all(r["rcode"] == "NXDOMAIN" for r in ghost_rows)


class TestColumnStoreIndexes:
    def test_rows_where_catches_up_after_appends(self):
        table = ColumnStore("t", ["k", "v"])
        table.append({"k": "a", "v": 1})
        assert [r["v"] for r in table.rows_where("k", "a")] == [1]
        table.append({"k": "a", "v": 2})
        table.append({"k": "b", "v": 3})
        assert [r["v"] for r in table.rows_where("k", "a")] == [1, 2]
        assert table.rows_where("k", "missing") == []

    def test_rows_in_range_handles_unsorted_appends(self):
        table = ColumnStore("t", ["ts"])
        for ts in (5, 1, 9, 3, 7):
            table.append({"ts": ts})
        assert [r["ts"] for r in table.rows_in_range("ts", 3, 8)] == [3, 5, 7]
        table.append({"ts": 4})
        assert [r["ts"] for r in table.rows_in_range("ts", 3, 8)] == [3, 4, 5, 7]


# ---------------------------------------------------------------------------
# Aggregated resolver stats (satellite)
# ---------------------------------------------------------------------------

class TestResolverStatsAggregation:
    def test_merge(self):
        a = ResolverStats(queries=3, cache_hits=1, upstream_queries=2,
                          servfails=1, nxdomains=1)
        b = ResolverStats(queries=2, upstream_queries=2, nxdomains=2)
        merged = ResolverStats().merge(a).merge(b)
        assert merged.queries == 5
        assert merged.nxdomains == 3
        assert merged.snapshot()["cache_hits"] == 1

    def test_pool_aggregate_spreads_across_workers(self, tiny_world,
                                                   tiny_result):
        config = ScanConfig(probe_interval=10 * MINUTE, duration=6 * HOUR)
        engine = ScanEngine(tiny_world.registries, config)
        sample = sorted(tiny_result.candidates)[:30]
        engine.observe_all(
            {d: tiny_result.candidates[d].ct_seen_at for d in sample})
        aggregate = engine.pool.aggregate_stats()
        per_worker = [r.stats.queries for r in engine.pool.resolvers]
        assert aggregate.queries == sum(per_worker)
        assert sum(1 for q in per_worker if q > 0) > 1  # really a fleet
        assert engine.pool.total_queries() == aggregate.queries


# ---------------------------------------------------------------------------
# Pipeline integration
# ---------------------------------------------------------------------------

class TestPipelineIntegration:
    def test_scan_strategy_matches_analytic_in_pipeline(self, tiny_world):
        monitor = MonitorConfig(probe_interval=10 * MINUTE, duration=6 * HOUR)
        scan_result = DarkDNSPipeline(
            tiny_world, PipelineConfig(monitor=monitor,
                                       monitor_strategy="scan")).run()
        analytic_result = DarkDNSPipeline(
            tiny_world, PipelineConfig(monitor=monitor,
                                       monitor_strategy="analytic")).run()
        assert scan_result.monitors == analytic_result.monitors
        assert scan_result.stats == analytic_result.stats

    def test_pipeline_exposes_engine_metrics(self, tiny_world):
        monitor = MonitorConfig(probe_interval=10 * MINUTE, duration=6 * HOUR)
        pipeline = DarkDNSPipeline(
            tiny_world, PipelineConfig(monitor=monitor,
                                       monitor_strategy="scan"))
        result = pipeline.run()
        assert isinstance(pipeline.monitor, ScanEngine)
        snap = pipeline.monitor.snapshot()
        assert snap["domains_completed"] == len(result.monitors)
        assert snap["probes_sent"] > 0
