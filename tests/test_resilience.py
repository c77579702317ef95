"""Tests for repro.resilience — chaos with a fixed seed.

The load-bearing property of the whole layer: recovery must be
*invisible in the output*.  A build that loses workers, a scan whose
authorities melt down, a serve log with a torn tail — each must
produce byte-identical artefacts to the undisturbed run (world
fingerprint, salvaged records), differing only in the telemetry that
says what was survived.
"""

import json
import multiprocessing
import os
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feed import FeedRecord, PublicFeed, read_jsonl_records
from repro.errors import (
    ConfigError,
    ReproError,
    ResilienceError,
    SegmentCorruptionError,
    WorkerCrashError,
)
from repro.resilience import (
    BreakerConfig,
    CircuitBreaker,
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    get_resilience_metrics,
    reset_resilience_metrics,
)
from repro.scan import ScanConfig, ScanEngine
from repro.serve.segments import (
    SegmentedLog,
    decode_segment_line,
    encode_segment_line,
)
from repro.serve.server import FeedServer, FeedServerConfig
from repro.simtime.clock import HOUR, MINUTE
from repro.workload import scenario
from repro.workload.scenario import (
    ScenarioConfig,
    build_world,
    world_fingerprint,
)

#: The tiny chaos world every determinism test rebuilds (cheap: ~1s).
TINY = dict(seed=21, scale=1 / 5000, tlds=["com", "xyz", "top"],
            include_cctld=False)
#: Fingerprint of the undisturbed TINY world (pinned by
#: test_determinism's goldens; recovery must reproduce it too).
#: Epoch 2: re-recorded for the per-(tld, month) stream relayout.
TINY_FINGERPRINT = "f43497fbdd28f526f290d8e71eaa881d"

#: TINY builds 3 TLDs x 3 months = 9 (tld, month) shards.
TINY_SHARDS = 9


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_resilience_metrics()
    yield
    reset_resilience_metrics()


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_cli_grammar(self):
        plan = FaultPlan.parse(
            "seed=9;worker.crash:rate=0.5,fires=1;"
            "scan.timeout:rate=0.1,target=com")
        assert plan.seed == 9
        assert [s.kind for s in plan.specs] == ["worker.crash",
                                                "scan.timeout"]
        assert plan.specs[0].rate == 0.5
        assert plan.specs[0].fires == 1
        assert plan.specs[1].target == "com"

    def test_parse_json(self):
        plan = FaultPlan.parse(json.dumps({
            "seed": 4,
            "faults": [{"kind": "log.torn_write", "rate": 1.0}]}))
        assert plan.seed == 4
        assert plan.wants("log.torn_write")
        assert not plan.wants("worker.crash")

    def test_parse_file(self, tmp_path):
        spec = tmp_path / "plan.json"
        spec.write_text(json.dumps(
            {"seed": 2, "faults": [{"kind": "scan.latency", "delay": 3}]}))
        plan = FaultPlan.parse(str(spec))
        assert plan.specs[0].delay == 3.0

    def test_parse_empty_is_none(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("worker.explode:rate=1.0")

    def test_bad_rate_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("worker.crash:rate=1.5")

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.parse("worker.crash:frequency=1")

    def test_all_kinds_parse(self):
        for kind in FAULT_KINDS:
            assert FaultPlan.parse(f"{kind}:rate=1.0").wants(kind)

    def test_fires_is_deterministic(self):
        plan_a = FaultPlan.parse("seed=5;scan.timeout:rate=0.3")
        plan_b = FaultPlan.parse("seed=5;scan.timeout:rate=0.3")
        schedule_a = [plan_a.fires("scan.timeout", f"d{i}.com") is not None
                      for i in range(200)]
        schedule_b = [plan_b.fires("scan.timeout", f"d{i}.com") is not None
                      for i in range(200)]
        assert schedule_a == schedule_b
        hits = sum(schedule_a)
        assert 30 < hits < 90  # ~60 expected at rate 0.3

    def test_different_seeds_differ(self):
        hit = {seed: [FaultPlan.parse(f"seed={seed};worker.crash:rate=0.5")
                      .fires("worker.crash", f"d{i}") is not None
                      for i in range(64)]
               for seed in (1, 2)}
        assert hit[1] != hit[2]

    def test_order_independent(self):
        """The draw depends only on the key, not on call history."""
        plan = FaultPlan.parse("seed=8;worker.crash:rate=0.5")
        keys = [f"shard{i}" for i in range(50)]
        forward = {k: plan.fires("worker.crash", k) is not None
                   for k in keys}
        plan2 = FaultPlan.parse("seed=8;worker.crash:rate=0.5")
        backward = {k: plan2.fires("worker.crash", k) is not None
                    for k in reversed(keys)}
        assert forward == backward

    def test_target_filter(self):
        plan = FaultPlan.parse("worker.crash:rate=1.0,target=com")
        assert plan.fires("worker.crash", "com", target="com") is not None
        assert plan.fires("worker.crash", "xyz", target="xyz") is None

    def test_fires_cap_limits_attempts(self):
        plan = FaultPlan.parse("worker.crash:rate=1.0,fires=1")
        assert plan.fires("worker.crash", "s", attempt=0) is not None
        assert plan.fires("worker.crash", "s", attempt=1) is None

    def test_time_window(self):
        plan = FaultPlan.parse("scan.servfail:rate=1.0,start=100,end=200")
        assert plan.fires("scan.servfail", "d", at=99) is None
        assert plan.fires("scan.servfail", "d", at=100) is not None
        assert plan.fires("scan.servfail", "d", at=200) is None


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    CFG = BreakerConfig(failure_threshold=3, cooldown=10.0,
                        half_open_probes=2)

    def test_trips_after_consecutive_failures(self):
        br = CircuitBreaker(self.CFG)
        for t in range(3):
            assert br.allow(t)
            br.record_failure(t)
        assert br.state == "open"
        assert not br.allow(3)
        assert br.skipped == 1

    def test_success_resets_streak(self):
        br = CircuitBreaker(self.CFG)
        for t in range(10):
            assert br.allow(t)
            if t % 2:
                br.record_failure(t)
            else:
                br.record_success(t)
        assert br.state == "closed"

    def test_half_open_after_cooldown_then_close(self):
        br = CircuitBreaker(self.CFG)
        for t in range(3):
            br.record_failure(t)
        assert not br.allow(5)
        assert br.allow(13)  # cooldown of 10 elapsed since opened_at=2
        assert br.state == "half_open"
        br.record_success(13)
        assert br.allow(14)
        br.record_success(14)
        assert br.state == "closed"

    def test_half_open_failure_reopens(self):
        br = CircuitBreaker(self.CFG)
        for t in range(3):
            br.record_failure(t)
        assert br.allow(13)
        br.record_failure(13)
        assert br.state == "open"
        assert not br.allow(14)

    def test_half_open_admits_limited_probes(self):
        br = CircuitBreaker(self.CFG)
        for t in range(3):
            br.record_failure(t)
        assert br.allow(13)
        assert br.allow(13)
        assert not br.allow(13)  # only half_open_probes in flight

    def test_transition_counts_and_hook(self):
        seen = []
        br = CircuitBreaker(self.CFG)
        br.on_transition = lambda old, new: seen.append((old, new))
        for t in range(3):
            br.record_failure(t)
        br.allow(13)
        br.record_failure(13)
        assert seen == [("closed", "open"), ("open", "half_open"),
                        ("half_open", "open")]
        assert br.transitions == {"closed->open": 1, "open->half_open": 1,
                                  "half_open->open": 1}

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            BreakerConfig(failure_threshold=0)
        with pytest.raises(ConfigError):
            BreakerConfig(cooldown=-1)

    @given(st.lists(st.sampled_from(["ok", "fail", "tick"]),
                    min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_state_machine_invariants(self, events):
        """Any drive sequence keeps the machine in a legal state."""
        cfg = BreakerConfig(failure_threshold=3, cooldown=5.0,
                            half_open_probes=2)
        br = CircuitBreaker(cfg)
        now = 0.0
        for event in events:
            now += 1.0
            if event == "tick":
                continue
            allowed = br.allow(now)
            assert br.state in ("closed", "open", "half_open")
            if br.state == "open":
                # An open breaker never admits traffic.
                assert not allowed
            if not allowed:
                continue
            if event == "fail":
                br.record_failure(now)
            else:
                br.record_success(now)
            # Closed-state bookkeeping never exceeds the trip threshold.
            if br.state == "closed":
                assert (br.consecutive_failures
                        < cfg.failure_threshold)
            assert 0 <= br.half_open_inflight <= cfg.half_open_probes
        total = sum(br.transitions.values())
        opens = br.transitions.get("closed->open", 0) + \
            br.transitions.get("half_open->open", 0)
        closes = br.transitions.get("half_open->closed", 0)
        halves = br.transitions.get("open->half_open", 0)
        assert total == opens + closes + halves


# ---------------------------------------------------------------------------
# Supervised parallel build: chaos determinism
# ---------------------------------------------------------------------------

class TestSupervisedBuild:
    def _fingerprint(self, **overrides):
        config = ScenarioConfig(**{**TINY, **overrides})
        return world_fingerprint(build_world(config))

    def test_crash_recovery_reproduces_fingerprint(self):
        # Every (tld, month) shard's worker crashes; every shard is
        # rebuilt in-process and the merged world is bit-identical.
        fp = self._fingerprint(
            parallel=4,
            fault_plan="seed=3;worker.crash:rate=1.0,fires=1")
        assert fp == TINY_FINGERPRINT
        snap = get_resilience_metrics().snapshot()
        assert snap["resilience_serial_fallbacks_total"] == TINY_SHARDS
        assert (snap["resilience_worker_failures_total"]
                == {"crash": TINY_SHARDS})

    def test_poison_shard_serial_fallback(self):
        # Fault targets match shard labels ("tld:month"), so a glob
        # poisons all three monthly shards of one TLD.
        fp = self._fingerprint(
            parallel=2,
            fault_plan="seed=3;worker.crash:rate=1.0,target=xyz:*")
        assert fp == TINY_FINGERPRINT
        snap = get_resilience_metrics().snapshot()
        assert snap["resilience_serial_fallbacks_total"] == 3
        # One failure per shard: a crashed shard is never resubmitted.
        assert snap["resilience_worker_failures_total"] == {"crash": 3}

    def test_single_shard_poison_falls_back_once(self):
        fp = self._fingerprint(
            parallel=2,
            fault_plan="seed=3;worker.crash:rate=1.0,target=com:2023-12")
        assert fp == TINY_FINGERPRINT
        snap = get_resilience_metrics().snapshot()
        assert snap["resilience_serial_fallbacks_total"] == 1

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched shard builder reaches workers only by fork")
    def test_broken_pool_serial_fallback(self, monkeypatch):
        # A worker that dies at the OS level breaks the whole pool
        # (BrokenProcessPool); every shard without a result is rebuilt
        # in-process and the world is still bit-identical.
        parent = os.getpid()
        build = scenario._build_shard_arrays

        def dying_build(config, tld_targets, month):
            if os.getpid() != parent and (tld_targets.tld, month) == (
                    "com", "2023-12"):
                os._exit(1)
            return build(config, tld_targets, month)

        monkeypatch.setattr(scenario, "_build_shard_arrays", dying_build)
        fp = self._fingerprint(parallel=2)
        assert fp == TINY_FINGERPRINT
        snap = get_resilience_metrics().snapshot()
        lost = snap["resilience_worker_failures_total"]["pool_broken"]
        assert 1 <= lost <= TINY_SHARDS
        assert snap["resilience_serial_fallbacks_total"] == lost

    def test_chaos_matches_golden_fingerprint(self):
        """The acceptance gate: a crash-ridden --jobs 4 build at the
        canonical 1/500 point reproduces the serial golden fingerprint
        bit for bit."""
        from test_determinism import GOLDEN_FINGERPRINTS
        config, expected = GOLDEN_FINGERPRINTS["canonical_1_500"]
        world = build_world(replace(
            config, parallel=4,
            fault_plan="seed=3;worker.crash:rate=0.5,fires=1"))
        assert world_fingerprint(world) == expected

    def test_plan_string_coerced_by_config(self):
        config = ScenarioConfig(**TINY,
                                fault_plan="worker.crash:rate=0.5")
        assert isinstance(config.fault_plan, FaultPlan)


# ---------------------------------------------------------------------------
# Scan under storm
# ---------------------------------------------------------------------------

def _storm_engine(plan, **config_overrides):
    from repro.registry.policy import gtld
    from repro.registry.registry import Registry, RegistryGroup
    registry = Registry(gtld("com", MINUTE, snapshot_offset=0))
    starts = {}
    for i in range(12):
        domain = f"storm{i}.com"
        registry.register(domain, 1000 + i * 60, "GoDaddy",
                          ns_hosts=["ns1.h.net"], a_addrs=["192.0.2.1"])
        starts[domain] = 1000 + i * 60
    config = ScanConfig(probe_interval=10 * MINUTE, duration=6 * HOUR,
                        fault_plan=plan, **config_overrides)
    return ScanEngine(RegistryGroup([registry]), config), starts


class TestScanChaos:
    def test_servfail_storm_trips_breaker_and_completes(self):
        engine, starts = _storm_engine(
            "seed=2;scan.servfail:rate=1.0,target=com",
            breaker=BreakerConfig(failure_threshold=5, cooldown=3600))
        reports = engine.observe_all(starts)
        assert len(reports) == len(starts)
        snap = engine.snapshot()
        assert snap["breakers"]["com"]["state"] in ("open", "half_open")
        assert snap["breakers"]["com"]["transitions"]["closed->open"] >= 1
        assert get_resilience_metrics().snapshot()[
            "resilience_breaker_skips_total"] > 0

    def test_storm_run_is_reproducible(self):
        plan = "seed=6;scan.timeout:rate=0.4"
        engine_a, starts = _storm_engine(plan)
        engine_b, _ = _storm_engine(plan)
        reports_a = engine_a.observe_all(starts)
        reports_b = engine_b.observe_all(dict(starts))
        assert reports_a == reports_b
        assert (engine_a.metrics.probes_sent.value
                == engine_b.metrics.probes_sent.value)

    def test_no_plan_is_noop(self):
        engine_a, starts = _storm_engine(None)
        engine_b, _ = _storm_engine("")
        assert engine_a.observe_all(starts) == engine_b.observe_all(starts)



# ---------------------------------------------------------------------------
# Crash-safe segmented log
# ---------------------------------------------------------------------------

def _records(n, start_ts=1000):
    return [FeedRecord(domain=f"d{i}.example", tld="example",
                       seen_at=start_ts + i * 10, source="zone")
            for i in range(n)]


def _write_log(directory, n=40, max_segment_records=8):
    log = SegmentedLog(max_segment_records=max_segment_records,
                       directory=directory)
    for record in _records(n):
        log.append(record)
    log.roll()
    return log


class TestSegmentLineCodec:
    def test_round_trip(self):
        line = encode_segment_line('{"a":1}')
        assert decode_segment_line(line) == '{"a":1}'

    def test_corruption_detected(self):
        line = encode_segment_line('{"a":1}')
        with pytest.raises(SegmentCorruptionError):
            decode_segment_line(line.replace('1', '2', 1))

    def test_crcless_line_rejected(self):
        with pytest.raises(SegmentCorruptionError):
            decode_segment_line('{"a":1}')


class TestTornTailRecovery:
    def test_random_truncation_never_loses_complete_records(self, tmp_path):
        """The acceptance property: for ANY truncation point, load()
        never raises and salvages every record whose line survived."""
        rng = random.Random(1234)
        for trial in range(25):
            directory = tmp_path / f"trial{trial}"
            _write_log(directory, n=40)
            files = sorted(directory.glob("segment-*.jsonl"))
            victim = rng.choice(files)
            data = victim.read_bytes()
            cut = rng.randrange(1, len(data))
            victim.write_bytes(data[:cut])
            complete_lines = sum(
                1 for f in sorted(directory.glob("segment-*.jsonl"))
                for line in f.read_bytes().split(b"\n")
                if b"\t" in line
                and len(line.rpartition(b"\t")[2]) == 8)
            log = SegmentedLog.load(directory)
            recovered = list(log.iter_records())
            # Upper bound: all originally written records.
            assert len(recovered) <= 40
            # Every line that survived the cut whole is salvaged.
            assert len(recovered) == complete_lines
            # Every record the reader reports is genuine and ordered.
            assert recovered == sorted(recovered,
                                       key=lambda r: r.seen_at)
            assert log.stats()["torn_lines"] >= 0
            # Reload after repair is clean and identical.
            log2 = SegmentedLog.load(directory)
            assert list(log2.iter_records()) == recovered
            assert log2.stats()["torn_lines"] == 0

    def test_torn_tail_salvages_prefix(self, tmp_path):
        _write_log(tmp_path, n=16, max_segment_records=100)
        path = sorted(tmp_path.glob("segment-*.jsonl"))[0]
        lines = path.read_text().splitlines(keepends=True)
        # Keep 10 clean lines, then a torn half-line.
        path.write_text("".join(lines[:10]) + lines[10][:15])
        log = SegmentedLog.load(tmp_path)
        assert len(list(log.iter_records())) == 10
        stats = log.stats()
        assert stats["torn_lines"] == 1
        assert stats["records_salvaged"] == 10
        sidecars = list(tmp_path.glob("*.torn"))
        assert len(sidecars) == 1

    def test_offsets_contiguous_after_salvage(self, tmp_path):
        _write_log(tmp_path, n=40, max_segment_records=8)
        files = sorted(tmp_path.glob("segment-*.jsonl"))
        data = files[1].read_text().splitlines(keepends=True)
        files[1].write_text("".join(data[:3]) + data[3][:10])
        log = SegmentedLog.load(tmp_path)
        records = list(log.iter_records())
        # read() from every offset agrees with the full iteration.
        assert log.read(log.start_offset, max_records=1000) == records
        assert len(records) == log.end_offset - log.start_offset

    def test_injected_torn_write_round_trip(self, tmp_path):
        log = SegmentedLog(max_segment_records=8, directory=tmp_path,
                           fault_plan="seed=5;log.torn_write:rate=0.7")
        for record in _records(32):
            log.append(record)
        log.roll()
        assert get_resilience_metrics().snapshot()[
            "resilience_faults_injected_total"]["log.torn_write"] > 0
        recovered = SegmentedLog.load(tmp_path)
        stats = recovered.stats()
        assert stats["torn_lines"] > 0
        assert stats["records_salvaged"] > 0
        assert list(recovered.iter_records())  # prefix survived


# ---------------------------------------------------------------------------
# Serve: load shedding and stalled consumers
# ---------------------------------------------------------------------------

class TestServeResilience:
    def _server(self, **config_overrides):
        server = FeedServer(config=FeedServerConfig(**config_overrides))
        server.subscribe("paid", tier="premium")
        server.subscribe("mid", tier="standard")
        server.subscribe("free-a", tier="free")
        server.subscribe("free-b", tier="free")
        return server

    def test_shedding_drops_lowest_tier_first(self):
        server = self._server(shed_pending_threshold=10)
        shed_order = []
        original = server.unsubscribe

        def spy(client_id):
            shed_order.append(client_id)
            original(client_id)
        server.unsubscribe = spy
        for i in range(6):
            server.ingest(FeedRecord(domain=f"d{i}.com", tld="com",
                                     seen_at=100 + i, source="zone"))
        assert shed_order  # threshold was crossed
        tiers = {"free-a": "free", "free-b": "free",
                 "mid": "standard", "paid": "premium"}
        ranks = [("free", "standard", "premium").index(tiers[c])
                 for c in shed_order]
        assert ranks == sorted(ranks)
        assert "paid" not in shed_order  # premium sheds last
        assert server.metrics.shed_clients.value == len(shed_order)

    def test_no_threshold_no_shedding(self):
        server = self._server()
        for i in range(50):
            server.ingest(FeedRecord(domain=f"d{i}.com", tld="com",
                                     seen_at=100 + i, source="zone"))
        assert server.client_count == 4
        assert server.snapshot()["shed_total"] == 0

    def test_stalled_consumer_keeps_backlog(self):
        server = self._server(
            fault_plan="seed=1;serve.stall:rate=1.0,target=free-a,"
                       "start=0,end=200")
        for i in range(5):
            server.ingest(FeedRecord(domain=f"d{i}.com", tld="com",
                                     seen_at=100 + i, source="zone"))
        assert server.poll("free-a", 150) == []
        assert server.fanout.pending("free-a") == 5
        assert len(server.poll("mid", 150)) == 5
        # Past the plan window the stall lifts and the backlog drains.
        assert len(server.poll("free-a", 300)) == 5


# ---------------------------------------------------------------------------
# Feed archive quarantine
# ---------------------------------------------------------------------------

class TestFeedQuarantine:
    def _archive(self, tmp_path):
        good = [FeedRecord(domain=f"q{i}.com", tld="com",
                           seen_at=50 + i).to_json() for i in range(3)]
        path = tmp_path / "feed.jsonl"
        path.write_text("\n".join([good[0], "{torn", good[1],
                                   "garbage", good[2]]) + "\n")
        return path

    def test_rejects_sidecar_written(self, tmp_path):
        path = self._archive(tmp_path)
        feed = PublicFeed.from_jsonl(path)
        assert len(feed) == 3
        assert feed.load_errors == 2
        sidecar = tmp_path / "feed.jsonl.rejects"
        assert sidecar.read_text().splitlines() == ["{torn", "garbage"]
        assert get_resilience_metrics().snapshot()[
            "resilience_rejected_lines_total"] == 2

    def test_quarantine_opt_out(self, tmp_path):
        path = self._archive(tmp_path)
        records, skipped = read_jsonl_records(path, quarantine=False)
        assert (len(records), skipped) == (3, 2)
        assert not (tmp_path / "feed.jsonl.rejects").exists()

    def test_server_replay_surfaces_count(self, tmp_path):
        path = self._archive(tmp_path)
        server = FeedServer(config=FeedServerConfig())
        assert server.replay(path) == 3
        assert server.replay_skipped == 2


# ---------------------------------------------------------------------------
# Error taxonomy and exit codes
# ---------------------------------------------------------------------------

class TestErrorContract:
    def test_hierarchy(self):
        for exc in (WorkerCrashError, SegmentCorruptionError):
            assert issubclass(exc, ResilienceError)
            assert issubclass(exc, ReproError)

    def test_bad_fault_plan_exits_2(self):
        from repro.cli import main
        assert main(["reproduce", "--fault-plan", "no.such.fault:rate=1",
                     "--scale", "5000"]) == 2

    def test_bad_plan_in_config(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(**TINY, fault_plan="seed=x;worker.crash")


# ---------------------------------------------------------------------------
# Bench artifact durability
# ---------------------------------------------------------------------------

class TestBenchArtifactDurability:
    def _conftest(self):
        import importlib.util
        path = (Path(__file__).resolve().parent.parent
                / "benchmarks" / "conftest.py")
        spec = importlib.util.spec_from_file_location("bench_conftest", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_write_baseline_atomic(self, tmp_path, monkeypatch):
        bench = self._conftest()
        monkeypatch.setattr(bench, "BASELINE_DIR", tmp_path)
        path = bench.write_baseline("demo", {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        assert not list(tmp_path.glob("*.tmp"))

