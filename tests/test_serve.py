"""Tests for the feed-distribution subsystem (repro.serve)."""

import fnmatch
import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.broker import Broker, TOPIC_FEED
from repro.core.feed import FeedRecord, PublicFeed
from repro.core.pipeline import DarkDNSPipeline
from repro.core.records import Candidate
from repro.errors import (
    EvictedClientError,
    OffsetError,
    ServeError,
    UnknownClientError,
)
from repro.serve import (
    FanoutDispatcher,
    FeedServer,
    FeedServerConfig,
    FilterSpec,
    RateLimiter,
    SegmentedLog,
    ServeMetrics,
    SubscriptionManager,
    TierPolicy,
    TokenBucket,
)
from repro.serve.fanout import SHARD_SALT
from repro.simtime.rng import stable_bucket
from repro.workload.scenario import ScenarioConfig, build_world


def record(i=0, domain=None, tld="com", seen_at=None, source="ct"):
    return FeedRecord(domain=domain or f"d{i}.{tld}", tld=tld,
                      seen_at=seen_at if seen_at is not None else 1000 + i,
                      source=source)


# --------------------------------------------------------------------------
# Segmented log
# --------------------------------------------------------------------------

class TestSegmentedLog:
    def test_append_assigns_consecutive_offsets(self):
        log = SegmentedLog(max_segment_records=8)
        offsets = [log.append(record(i)) for i in range(20)]
        assert offsets == list(range(20))
        assert log.end_offset == 20

    def test_rolls_on_record_count(self):
        log = SegmentedLog(max_segment_records=5)
        for i in range(12):
            log.append(record(i))
        stats = log.stats()
        assert stats["segments"] == 3
        assert stats["sealed_segments"] == 2

    def test_rolls_on_time_span(self):
        log = SegmentedLog(max_segment_records=1000, max_segment_span=100)
        for i in range(5):
            log.append(record(i, seen_at=1000 + i * 60))
        # 60-second spacing with a 100-second span: ~2 records/segment.
        assert log.stats()["segments"] >= 2

    def test_read_spans_segments(self):
        log = SegmentedLog(max_segment_records=4)
        for i in range(10):
            log.append(record(i))
        got = log.read(2, max_records=6)
        assert [r.domain for r in got] == [f"d{i}.com" for i in range(2, 8)]

    def test_read_rejects_bad_offsets(self):
        log = SegmentedLog()
        with pytest.raises(OffsetError):
            log.read(-1)

    def test_replay_since_uses_time_index(self):
        log = SegmentedLog(max_segment_records=4)
        for i in range(12):
            log.append(record(i, seen_at=1000 + i * 10))
        got = log.replay_since(1060)
        assert all(r.seen_at >= 1060 for r in got)
        assert len(got) == 6

    def test_replay_since_with_out_of_order_records(self):
        log = SegmentedLog(max_segment_records=4)
        log.append(record(0, seen_at=2000))
        log.append(record(1, seen_at=1500))  # older than its neighbour
        log.append(record(2, seen_at=2100))
        assert {r.seen_at for r in log.replay_since(1500)} == {2000, 1500,
                                                               2100}

    def test_compaction_keeps_newest_per_domain(self):
        log = SegmentedLog(max_segment_records=4)
        for ts in (1000, 2000, 3000):
            log.append(record(domain="dup.com", seen_at=ts))
            log.append(record(domain=f"uniq{ts}.com", seen_at=ts))
        log.roll()
        dropped = log.compact()
        assert dropped == 2  # two superseded dup.com records
        dups = [r for r in log.iter_records() if r.domain == "dup.com"]
        assert len(dups) == 1 and dups[0].seen_at == 3000

    def test_compaction_preserves_appendability(self):
        log = SegmentedLog(max_segment_records=4)
        for i in range(10):
            log.append(record(domain="same.com", seen_at=1000 + i))
        log.roll()
        log.compact()
        offset = log.append(record(domain="new.com", seen_at=5000))
        assert offset == log.end_offset - 1
        assert log.read(log.start_offset, 100)[-1].domain == "new.com"

    def test_persistence_round_trip(self, tmp_path):
        log = SegmentedLog(max_segment_records=4, directory=tmp_path)
        for i in range(10):
            log.append(record(i))
        log.flush()
        loaded = SegmentedLog.load(tmp_path, max_segment_records=4)
        assert [r.domain for r in loaded.iter_records()] == \
            [r.domain for r in log.iter_records()]
        assert loaded.end_offset == log.end_offset

    def test_invalid_config_rejected(self):
        with pytest.raises(ServeError):
            SegmentedLog(max_segment_records=0)
        with pytest.raises(ServeError):
            SegmentedLog(max_segment_span=-5)


# --------------------------------------------------------------------------
# Filters and subscriptions
# --------------------------------------------------------------------------

class TestFilterSpec:
    def test_empty_spec_matches_everything(self):
        pred = FilterSpec().compile()
        assert pred(record()) and pred(record(tld="xyz", source="zone"))

    def test_tld_filter(self):
        pred = FilterSpec(tlds=frozenset({"com", "net"})).compile()
        assert pred(record(tld="com"))
        assert not pred(record(tld="xyz"))

    def test_source_filter(self):
        pred = FilterSpec(sources=frozenset({"zone"})).compile()
        assert pred(record(source="zone"))
        assert not pred(record(source="ct"))

    def test_glob_filter(self):
        pred = FilterSpec(domain_glob="*shop*").compile()
        assert pred(record(domain="myshop.com"))
        assert not pred(record(domain="bank.com"))

    def test_since_filter(self):
        pred = FilterSpec(since=1500).compile()
        assert pred(record(seen_at=1500))
        assert not pred(record(seen_at=1499))

    def test_combined_filter(self):
        spec = FilterSpec(tlds=frozenset({"com"}), domain_glob="pay-*",
                          since=1000)
        pred = spec.compile()
        assert pred(record(domain="pay-fast.com", tld="com", seen_at=2000))
        assert not pred(record(domain="pay-fast.xyz", tld="xyz",
                               seen_at=2000))

    def test_parse_round_trip(self):
        spec = FilterSpec.parse("tld=com, xyz; glob=*shop*; since=42")
        assert spec.tlds == frozenset({"com", "xyz"})
        assert spec.domain_glob == "*shop*"
        assert spec.since == 42
        assert FilterSpec.parse("") == FilterSpec()

    def test_parse_rejects_garbage(self):
        with pytest.raises(ServeError):
            FilterSpec.parse("nonsense")
        with pytest.raises(ServeError):
            FilterSpec.parse("colour=blue")
        with pytest.raises(ServeError):
            FilterSpec.parse("since=yesterday")


class TestSubscriptionManager:
    def test_tld_index_routes_matches(self):
        manager = SubscriptionManager()
        manager.subscribe("com-only", FilterSpec(tlds=frozenset({"com"})))
        manager.subscribe("xyz-only", FilterSpec(tlds=frozenset({"xyz"})))
        manager.subscribe("all", FilterSpec())
        hits = {s.client_id for s in manager.match(record(tld="com"))}
        assert hits == {"com-only", "all"}

    def test_duplicate_and_unknown_clients(self):
        manager = SubscriptionManager()
        manager.subscribe("a", FilterSpec())
        with pytest.raises(ServeError):
            manager.subscribe("a", FilterSpec())
        with pytest.raises(UnknownClientError):
            manager.unsubscribe("ghost")

    def test_unsubscribe_cleans_index(self):
        manager = SubscriptionManager()
        manager.subscribe("a", FilterSpec(tlds=frozenset({"com"})))
        manager.unsubscribe("a")
        assert manager.match(record(tld="com")) == []
        assert len(manager) == 0

    def test_unknown_tier_rejected(self):
        manager = SubscriptionManager()
        with pytest.raises(ServeError):
            manager.subscribe("a", FilterSpec(), tier="platinum")


# --------------------------------------------------------------------------
# Fan-out, backpressure, eviction
# --------------------------------------------------------------------------

class TestFanout:
    def test_sharding_is_stable_and_total(self):
        dispatcher = FanoutDispatcher(shards=4)
        ids = [f"c{i}" for i in range(40)]
        for client_id in ids:
            dispatcher.add_client(client_id)
        assert sorted(dispatcher.active_clients()) == sorted(ids)
        assert sum(len(s) for s in dispatcher.shards) == 40
        # every shard should get some clients at this population
        assert all(len(s) > 0 for s in dispatcher.shards)

    def test_dispatch_and_poll(self):
        dispatcher = FanoutDispatcher(shards=2)
        dispatcher.add_client("a")
        assert dispatcher.dispatch(record(), ["a"]) == []  # none evicted
        got = dispatcher.poll("a", now=2000)
        assert len(got) == 1
        assert dispatcher.metrics.delivered.value == 1

    def test_queue_bound_drops_oldest(self):
        dispatcher = FanoutDispatcher(shards=1, max_queue_depth=3,
                                      evict_after_drops=1000)
        dispatcher.add_client("slow")
        for i in range(5):
            dispatcher.dispatch(record(i), ["slow"])
        got = dispatcher.poll("slow", now=2000, max_records=10)
        # oldest two were dropped; the three newest survive
        assert [r.domain for r in got] == ["d2.com", "d3.com", "d4.com"]
        assert dispatcher.metrics.dropped_queue_full.value == 2

    def test_slow_consumer_eviction(self):
        dispatcher = FanoutDispatcher(shards=1, max_queue_depth=2,
                                      evict_after_drops=4)
        dispatcher.add_client("dead")
        for i in range(10):
            dispatcher.dispatch(record(i), ["dead"])
        assert dispatcher.is_evicted("dead")
        assert dispatcher.metrics.evicted_clients.value == 1
        with pytest.raises(EvictedClientError):
            dispatcher.poll("dead", now=2000)

    def test_draining_resets_drop_streak(self):
        dispatcher = FanoutDispatcher(shards=1, max_queue_depth=2,
                                      evict_after_drops=4)
        dispatcher.add_client("spiky")
        for burst in range(5):
            for i in range(5):  # 3 drops per burst, under the threshold
                dispatcher.dispatch(record(i), ["spiky"])
            dispatcher.poll("spiky", now=2000, max_records=10)
        assert not dispatcher.is_evicted("spiky")

    def test_poll_unknown_client(self):
        with pytest.raises(UnknownClientError):
            FanoutDispatcher().poll("nobody", now=0)

    def test_invalid_shard_count(self):
        with pytest.raises(ServeError):
            FanoutDispatcher(shards=0)


# --------------------------------------------------------------------------
# Rate limiting
# --------------------------------------------------------------------------

class TestRateLimit:
    def test_bucket_spends_and_refills(self):
        bucket = TokenBucket(TierPolicy("t", rate=2.0, burst=10.0), now=0)
        assert bucket.try_spend(0, 10)       # burst available immediately
        assert not bucket.try_spend(0, 1)    # empty
        assert bucket.try_spend(3, 6)        # 3 s * 2/s = 6 tokens
        assert not bucket.try_spend(3, 1)

    def test_burst_is_capped(self):
        bucket = TokenBucket(TierPolicy("t", rate=100.0, burst=5.0), now=0)
        bucket.refill(10_000)
        assert bucket.tokens == 5.0

    def test_limiter_accounts_per_client(self):
        limiter = RateLimiter({"slow": TierPolicy("slow", 1.0, 2.0)})
        limiter.register("a", "slow", now=0)
        assert limiter.allow("a", now=0) and limiter.allow("a", now=0)
        assert not limiter.allow("a", now=0)
        assert limiter.allow("a", now=1)     # one second, one token
        assert limiter.available("a", now=1) == 0.0

    def test_unknown_tier_and_unregistered_client(self):
        limiter = RateLimiter()
        with pytest.raises(ServeError):
            limiter.register("a", "gold")
        assert limiter.allow("stranger", now=0)  # membership not enforced

    def test_invalid_policy(self):
        with pytest.raises(ServeError):
            TierPolicy("bad", rate=0.0, burst=1.0)


# --------------------------------------------------------------------------
# FeedServer facade
# --------------------------------------------------------------------------

class TestFeedServer:
    def feed_broker(self, n=20):
        broker = Broker()
        for i in range(n):
            rec = record(i, tld="com" if i % 2 else "xyz")
            broker.produce(TOPIC_FEED, rec.domain, rec, rec.seen_at)
        return broker

    def test_pump_delivers_filtered(self):
        server = FeedServer(broker=self.feed_broker(20))
        server.subscribe("com-fan", "tld=com")
        server.subscribe("firehose", None, tier="premium")
        assert server.pump() == 20
        assert len(server.poll("com-fan", now=2000)) == 10
        assert len(server.poll("firehose", now=2000)) == 20
        assert server.pump() == 0  # offsets committed: nothing new

    def test_pump_without_broker(self):
        with pytest.raises(ServeError):
            FeedServer().pump()

    def test_backfill_since_on_subscribe(self):
        server = FeedServer(broker=self.feed_broker(20))
        server.pump()
        server.subscribe("late", "tld=com", backfill_since=1010, now=2000)
        got = server.poll("late", now=2000, max_records=100)
        assert got and all(r.seen_at >= 1010 and r.tld == "com"
                           for r in got)

    def test_poll_respects_rate_limit(self):
        server = FeedServer(broker=self.feed_broker(20))
        server.subscribe("tiny", None, tier="free", now=1000)
        server.pump()
        server.limiter._buckets["tiny"].tokens = 3.0
        got = server.poll("tiny", now=1000, max_records=100)
        assert len(got) == 3
        assert server.poll("tiny", now=1000) == []
        assert server.metrics.dropped_rate_limited.value == 1
        assert server.fanout.pending("tiny") == 17  # deferred, not lost

    def test_unsubscribe_stops_delivery(self):
        server = FeedServer(broker=self.feed_broker(4))
        server.subscribe("quitter", None)
        server.unsubscribe("quitter")
        server.pump()
        assert server.metrics.filtered_out.value == 4

    def test_replay_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "archive.jsonl"
        lines = [record(i).to_json() for i in range(5)]
        lines.insert(2, "{not json")
        lines.insert(4, json.dumps({"tld": "com", "seen_at": 1}))
        path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        server = FeedServer()
        server.subscribe("all", None, tier="premium")
        assert server.replay(path) == 5
        assert server.replay_skipped == 2
        assert len(server.poll("all", now=2000, max_records=10)) == 5

    def test_evicted_client_can_resubscribe(self):
        server = FeedServer(broker=self.feed_broker(0),
                            config=FeedServerConfig(max_queue_depth=2,
                                                    evict_after_drops=3))
        server.subscribe("lazy", None)
        for i in range(10):
            server.ingest(record(i))
        assert server.fanout.is_evicted("lazy")
        assert server.client_count == 0  # subscription retired too
        with pytest.raises(EvictedClientError):
            server.poll("lazy", now=2000)
        server.subscribe("lazy", None)  # fresh start, no error
        server.ingest(record(99))
        assert len(server.poll("lazy", now=2000)) == 1

    def test_client_evicted_during_backfill_is_retired(self):
        server = FeedServer(config=FeedServerConfig(max_queue_depth=2,
                                                    evict_after_drops=2))
        for i in range(10):
            server.ingest(record(i))
        server.subscribe("late", "tld=com", backfill_since=0, now=2000)
        assert server.fanout.is_evicted("late")
        assert server.client_count == 0
        with pytest.raises(EvictedClientError):
            server.poll("late", now=2000)
        server.subscribe("late", "tld=com")  # not "already subscribed"
        server.ingest(record(99))
        assert [r.domain for r in server.poll("late", now=2000)] == \
            ["d99.com"]

    def test_custom_tier_policies(self):
        config = FeedServerConfig(tiers={
            "gold": TierPolicy("gold", rate=1.0, burst=2.0)})
        server = FeedServer(config=config)
        server.subscribe("vip", None, tier="gold", now=0)
        with pytest.raises(ServeError):
            server.subscribe("pleb", None, tier="standard", now=0)
        for i in range(4):
            server.ingest(record(i, seen_at=0))
        assert len(server.poll("vip", now=0, max_records=10)) == 2  # burst

    def test_idle_rate_limited_poll_not_counted(self):
        server = FeedServer()
        server.subscribe("idle", None, tier="free", now=0)
        server.limiter._buckets["idle"].tokens = 0.0
        assert server.poll("idle", now=0) == []  # nothing pending
        assert server.metrics.dropped_rate_limited.value == 0
        server.ingest(record(0, seen_at=0))
        assert server.poll("idle", now=0) == []  # one deferred record
        assert server.metrics.dropped_rate_limited.value == 1

    def test_snapshot_shape(self):
        server = FeedServer(broker=self.feed_broker(8))
        server.subscribe("a", None)
        server.pump()
        server.poll("a", now=5000)
        snap = server.snapshot()
        for key in ("published", "delivered", "dropped_queue_full",
                    "delivery_lag", "log", "shards", "clients"):
            assert key in snap
        json.dumps(snap)  # must be JSON-serialisable


# --------------------------------------------------------------------------
# Hot path: routing resolved on subscribe, matching memoised per (tld, source)
# --------------------------------------------------------------------------

class TestHotPath:
    def test_delivery_never_rehashes_a_client(self, monkeypatch):
        server = FeedServer(config=FeedServerConfig(shards=4))
        for i in range(12):
            server.subscribe(f"c{i}", "tld=com" if i % 2 else None)

        def no_hashing(*args, **kwargs):
            raise AssertionError("stable_bucket called after subscribe")

        monkeypatch.setattr("repro.serve.fanout.stable_bucket", no_hashing)
        for i in range(20):
            server.ingest(record(i, tld="com" if i % 3 else "xyz"))
        assert len(server.poll("c1", now=2000)) == 13
        assert server.drain_all(now=2000) == 6 * 20 + 5 * 13
        assert server.fanout.pending() == 0

    def test_seen_pair_skips_static_predicates(self):
        manager = SubscriptionManager()
        manager.subscribe("com", FilterSpec(tlds=frozenset({"com"})))
        manager.subscribe("ct", FilterSpec(sources=frozenset({"ct"})))
        manager.subscribe("all", FilterSpec())
        manager.subscribe("pay", FilterSpec(tlds=frozenset({"com"}),
                                            domain_glob="pay-*"))
        first = manager.match(record(domain="pay-a.com"))
        assert [s.client_id for s in first] == ["com", "pay", "ct", "all"]

        def never(r):
            raise AssertionError("whole predicate called for a seen pair")

        residual_calls = []
        pay = manager.get("pay")
        residual = pay.residual
        pay.residual = lambda r: residual_calls.append(r) or residual(r)
        for client_id in ("com", "ct", "all", "pay"):
            manager.get(client_id).predicate = never
        second = manager.match(record(domain="bank.com"))
        assert [s.client_id for s in second] == ["com", "ct", "all"]
        assert [r.domain for r in residual_calls] == ["bank.com"]

    def test_subscribe_and_unsubscribe_invalidate_the_memo(self):
        manager = SubscriptionManager()
        manager.subscribe("a", FilterSpec(tlds=frozenset({"com"})))
        assert [s.client_id for s in manager.match(record())] == ["a"]
        manager.subscribe("b", FilterSpec())
        assert [s.client_id for s in manager.match(record())] == ["a", "b"]
        manager.unsubscribe("a")
        assert [s.client_id for s in manager.match(record())] == ["b"]


# --------------------------------------------------------------------------
# Equivalence with a reference model of the unmemoised, per-call algorithm
# --------------------------------------------------------------------------

def reference_accepts(spec, r):
    """Every filter field checked on every record."""
    return ((not spec.tlds or r.tld in spec.tlds)
            and (not spec.sources or r.source in spec.sources)
            and (not spec.domain_glob
                 or fnmatch.fnmatchcase(r.domain, spec.domain_glob))
            and (spec.since is None or r.seen_at >= spec.since))


class ReferenceServer:
    """The serve path without a route table or match memo.

    Each record is tested against every TLD-indexed and wildcard
    subscriber's whole filter, and every delivery, poll and pending
    count hashes the client to its shard again.
    """

    def __init__(self, config):
        self.config = config
        self.metrics = ServeMetrics()
        self.log = SegmentedLog()
        self.limiter = RateLimiter(config.tiers)
        self.subs = {}  # client id -> (spec, tier), registration order
        self.by_tld = {}
        self.wildcard = []
        #: One {client id: [queue, consecutive drops, delivered]} per shard.
        self.shards = [{} for _ in range(config.shards)]
        self.routed = [0] * config.shards
        self.evicted = set()

    def queue(self, client_id):
        index = stable_bucket(client_id, len(self.shards), SHARD_SALT)
        return index, self.shards[index].get(client_id)

    def subscribe(self, client_id, spec, tier, now, backfill_since):
        if client_id in self.subs:
            raise ServeError("already subscribed")
        self.subs[client_id] = (spec, tier)
        for tld in spec.tlds:
            self.by_tld.setdefault(tld, []).append(client_id)
        if not spec.tlds:
            self.wildcard.append(client_id)
        self.evicted.discard(client_id)
        index, _ = self.queue(client_id)
        self.shards[index][client_id] = [deque(), 0, 0]
        self.limiter.register(client_id, tier, now=now)
        if backfill_since is not None:
            for r in self.log.replay_since(backfill_since):
                if reference_accepts(spec, r) and self.dispatch(r,
                                                                [client_id]):
                    self.retire([client_id])
                    break

    def retire(self, client_ids):
        for client_id in client_ids:
            spec, _ = self.subs.pop(client_id)
            for tld in spec.tlds:
                self.by_tld[tld].remove(client_id)
            if not spec.tlds:
                self.wildcard.remove(client_id)
            self.limiter.forget(client_id)

    def unsubscribe(self, client_id):
        if client_id not in self.subs:
            raise UnknownClientError(client_id)
        self.retire([client_id])
        index, _ = self.queue(client_id)
        self.shards[index].pop(client_id, None)
        self.evicted.discard(client_id)

    def match(self, r):
        candidates = self.by_tld.get(r.tld, []) + self.wildcard
        return [c for c in candidates
                if reference_accepts(self.subs[c][0], r)]

    def dispatch(self, r, client_ids):
        evicted = []
        for client_id in client_ids:
            index, entry = self.queue(client_id)
            if entry is None:
                continue
            self.routed[index] += 1
            full = len(entry[0]) >= self.config.max_queue_depth
            if full:
                entry[0].popleft()
                entry[1] += 1
            entry[0].append(r)
            if full:
                self.metrics.dropped_queue_full.inc()
                if entry[1] >= self.config.evict_after_drops:
                    del self.shards[index][client_id]
                    self.evicted.add(client_id)
                    self.metrics.evicted_clients.inc()
                    evicted.append(client_id)
        return evicted

    def ingest(self, r):
        self.metrics.published.inc()
        self.log.append(r)
        matched = self.match(r)
        if not matched:
            self.metrics.filtered_out.inc()
            return 0
        evicted = self.dispatch(r, matched)
        self.retire(evicted)
        threshold = self.config.shed_pending_threshold
        if threshold is not None and self.pending() > threshold:
            self.shed(threshold)
        return len(matched) - len(evicted)

    def shed(self, threshold):
        by_tier = {}
        for client_id, (_, tier) in self.subs.items():
            by_tier.setdefault(tier, []).append(client_id)
        for tier in self.config.shed_tier_order:
            victims = sorted(by_tier.get(tier, ()),
                             key=lambda c: (-self.pending(c), c))
            for client_id in victims:
                if self.pending() <= threshold:
                    return
                self.unsubscribe(client_id)
                self.metrics.shed_clients.inc()

    def poll(self, client_id, now, max_records):
        available = self.limiter.available(client_id, now)
        allowed = (max_records if available == float("inf")
                   else min(max_records, int(available)))
        if allowed <= 0:
            if self.pending(client_id):
                self.metrics.dropped_rate_limited.inc()
            return []
        _, entry = self.queue(client_id)
        if entry is None:
            if client_id in self.evicted:
                raise EvictedClientError(client_id)
            raise UnknownClientError(client_id)
        self.metrics.queue_depth.observe(len(entry[0]))
        out = []
        while entry[0] and len(out) < allowed:
            out.append(entry[0].popleft())
        if out:
            entry[1] = 0
            entry[2] += len(out)
        for r in out:
            self.metrics.delivered.inc()
            self.metrics.delivery_lag.observe(max(0, now - r.seen_at))
        if out:
            self.limiter.allow(client_id, now, n=len(out))
        return out

    def drain_all(self, now):
        return sum(len(self.poll(client_id, now, 100))
                   for client_id in sorted(c for shard in self.shards
                                           for c in shard))

    def pending(self, client_id=None):
        if client_id is not None:
            _, entry = self.queue(client_id)
            return len(entry[0]) if entry is not None else 0
        return sum(len(entry[0]) for shard in self.shards
                   for entry in shard.values())

    def queues(self):
        return {c: list(entry[0]) for shard in self.shards
                for c, entry in shard.items()}

    def delivered_counts(self):
        return [(c, entry[2]) for shard in self.shards
                for c, entry in shard.items()]

    def shard_loads(self):
        return [{"shard": i, "clients": len(shard),
                 "routed": self.routed[i],
                 "pending": sum(len(e[0]) for e in shard.values())}
                for i, shard in enumerate(self.shards)]


EQUIV_TIERS = {"free": TierPolicy("free", rate=0.5, burst=2.0),
               "standard": TierPolicy("standard", rate=1.0, burst=3.0),
               "premium": TierPolicy("premium", rate=100.0, burst=100.0)}
EQUIV_CLIENTS = ("c0", "c1", "c2", "c3", "c4", "c5")
EQUIV_TLDS = ("com", "net", "xyz")

specs = st.builds(
    FilterSpec,
    tlds=st.frozensets(st.sampled_from(EQUIV_TLDS + ("org",)), max_size=2),
    sources=st.frozensets(st.sampled_from(("ct", "zone")), max_size=1),
    domain_glob=st.sampled_from((None, "*a*", "pay-*", "*.net")),
    since=st.one_of(st.none(), st.integers(0, 40)))
subscribes = st.tuples(st.just("subscribe"), st.sampled_from(EQUIV_CLIENTS),
                       specs, st.sampled_from(sorted(EQUIV_TIERS)),
                       st.one_of(st.none(), st.integers(0, 40)))
operations = st.lists(st.one_of(
    subscribes, subscribes,
    st.tuples(st.just("unsubscribe"), st.sampled_from(EQUIV_CLIENTS)),
    st.tuples(st.just("ingest"), st.sampled_from(("pay-a", "shop", "abc")),
              st.sampled_from(EQUIV_TLDS), st.sampled_from(("ct", "zone")),
              st.integers(0, 5)),
    st.tuples(st.just("poll"), st.sampled_from(EQUIV_CLIENTS),
              st.integers(0, 4)),
    st.tuples(st.just("drain_all"))), min_size=20, max_size=80)
configs = st.builds(
    FeedServerConfig, shards=st.integers(1, 3),
    max_queue_depth=st.integers(1, 4), evict_after_drops=st.integers(1, 3),
    shed_pending_threshold=st.one_of(st.none(), st.integers(1, 6)),
    tiers=st.just(EQUIV_TIERS))


def outcome(call):
    """A call's result, or the type of the error it raised."""
    try:
        return call()
    except (ServeError, UnknownClientError, EvictedClientError) as exc:
        return type(exc)


class TestReferenceEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(config=configs, ops=st.lists(subscribes, min_size=1, max_size=6),
           more_ops=operations)
    def test_server_matches_reference(self, config, ops, more_ops):
        server, model = FeedServer(config=config), ReferenceServer(config)
        for clock, (op, *args) in enumerate(ops + more_ops):
            if op == "subscribe":
                client_id, spec, tier, since = args
                got = outcome(lambda: server.subscribe(
                    client_id, spec, tier=tier, now=clock,
                    backfill_since=since))
                want = outcome(lambda: model.subscribe(
                    client_id, spec, tier, clock, since))
            elif op == "unsubscribe":
                got = outcome(lambda: server.unsubscribe(args[0]))
                want = outcome(lambda: model.unsubscribe(args[0]))
            elif op == "ingest":
                word, tld, source, late = args
                r = record(domain=f"{word}{clock}.{tld}", tld=tld,
                           source=source, seen_at=max(0, clock - late))
                assert [s.client_id for s in
                        server.subscriptions.match(r)] == model.match(r)
                got, want = server.ingest(r), model.ingest(r)
            elif op == "poll":
                got = outcome(lambda: server.poll(args[0], clock,
                                                  max_records=args[1]))
                want = outcome(lambda: model.poll(args[0], clock, args[1]))
            else:
                got, want = server.drain_all(clock), model.drain_all(clock)
            assert got == want, (op, args)
            assert server.client_count == len(model.subs)
        queues = {c: list(q.queue) for shard in server.fanout.shards
                  for c, q in shard._queues.items()}
        assert queues == model.queues()
        assert list(server.fanout.delivered_counts().items()) == \
            model.delivered_counts()
        assert server.fanout.shard_loads() == model.shard_loads()
        assert server.metrics.snapshot() == model.metrics.snapshot()
        assert all(server.fanout.is_evicted(c) == (c in model.evicted)
                   for c in EQUIV_CLIENTS)


# --------------------------------------------------------------------------
# Pipeline integration (serve= hook + live replay)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def serve_world():
    """A private world: the serve tests advance its broker offsets."""
    return build_world(ScenarioConfig(
        seed=13, scale=1 / 5000, tlds=["com", "xyz"], include_cctld=False))


class TestPipelineIntegration:
    def test_serve_hook_pumps_during_run(self, serve_world):
        server = FeedServer(broker=serve_world.broker,
                            config=FeedServerConfig(
                                consumer_group="serve-hook-test",
                                max_queue_depth=100_000))
        server.subscribe("everything", None, tier="premium")
        pipeline = DarkDNSPipeline(serve_world, serve=server)
        pipeline.run()
        assert server.metrics.published.value == len(pipeline.feed)
        got = server.poll("everything", now=serve_world.window.end,
                          max_records=10 ** 6)
        assert len(got) == len(pipeline.feed)

    def test_run_live_serves_all_clients(self, serve_world):
        server = FeedServer(broker=serve_world.broker,
                            config=FeedServerConfig(
                                consumer_group="run-live-test"))
        server.subscribe("com", "tld=com", tier="standard")
        server.subscribe("hose", None, tier="free")
        DarkDNSPipeline(serve_world).run()
        served = server.run_live(poll_interval=3600)
        assert served > 50
        assert server.fanout.pending() == 0
        assert not server.fanout.is_evicted("hose")
        counts = server.fanout.delivered_counts()
        assert counts["hose"] == served
        assert 0 < counts["com"] < served
        assert server.metrics.delivery_lag.count > 0


# --------------------------------------------------------------------------
# PublicFeed JSONL round-trip edge cases (satellite fix)
# --------------------------------------------------------------------------

class TestFeedRoundTrip:
    def candidate(self, domain, seen_at):
        return Candidate(domain=domain, tld=domain.rsplit(".", 1)[1],
                         ct_seen_at=seen_at, cert_serial=1, issuer="CA",
                         log_id="log", reused_validation=False)

    def test_out_of_order_publish_is_sorted_on_load(self, tmp_path):
        feed = PublicFeed()
        feed.publish(self.candidate("late.com", 3000))
        feed.publish(self.candidate("early.com", 1000))
        # NOT finalized before writing: archive is out of order.
        path = tmp_path / "feed.jsonl"
        feed.to_jsonl(path)
        loaded = PublicFeed.from_jsonl(path)
        assert [r.domain for r in loaded] == ["early.com", "late.com"]

    def test_missing_source_defaults_to_ct(self, tmp_path):
        path = tmp_path / "feed.jsonl"
        path.write_text(json.dumps({"domain": "a.com", "tld": "com",
                                    "seen_at": 5}) + "\n", encoding="utf-8")
        loaded = PublicFeed.from_jsonl(path)
        assert next(iter(loaded)).source == "ct"

    def test_blank_and_corrupt_lines_skipped_with_warning(self, tmp_path,
                                                          capsys):
        path = tmp_path / "feed.jsonl"
        good = FeedRecord(domain="ok.com", tld="com", seen_at=9).to_json()
        path.write_text(
            "\n".join(["", good, "garbage", "",
                       json.dumps({"domain": "x.com"}), good]) + "\n",
            encoding="utf-8")
        loaded = PublicFeed.from_jsonl(path)
        # The corruption report flows through the structured log now
        # (logger core.feed, level warning), rendered on stderr.
        err = capsys.readouterr().err
        assert "2 malformed" in err and "warning" in err
        assert len(loaded) == 2
        assert loaded.load_errors == 2

    def test_clean_load_has_no_errors(self, tmp_path):
        feed = PublicFeed()
        feed.publish(self.candidate("a.com", 1))
        path = tmp_path / "feed.jsonl"
        feed.to_jsonl(path)
        loaded = PublicFeed.from_jsonl(path)
        assert loaded.load_errors == 0
        assert loaded.domains == {"a.com"}
