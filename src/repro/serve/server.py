"""The feed server: broker tail → segmented log → filtered fan-out.

:class:`FeedServer` is the serving side of contribution (2).  The
DarkDNS pipeline *produces* the public feed (publishing every record to
the broker's ``nrd.public-feed`` topic); the feed server *distributes*
it: it tails that topic (or replays a JSONL archive), persists records
into a :class:`~repro.serve.segments.SegmentedLog`, matches each record
against the registered subscriptions, and fans deliveries out across
sharded bounded queues with per-tier rate limiting.

Driving model (cooperative, deterministic — no threads):

* ``pump()`` ingests everything new from the broker topic;
* ``replay(path)`` ingests a JSONL archive instead;
* clients call ``poll(client_id, now)`` to drain their queue, paying
  rate-limit tokens per delivered record;
* ``drain_all(now)`` polls every client once, in one batched pass over
  the route table, as the CLI/bench driver.

``snapshot()`` returns the metrics dict the acceptance criteria and
benchmarks print.

Paper anchor: §5 (operational considerations) — the authors argue
rapid zone update is only useful if its output can be *distributed* to
consumers with low latency; this subsystem is that distribution tier
over the pipeline's public NRD feed ("zonestream").  See
``docs/serve.md`` for the architecture walk-through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.bus.broker import Broker, TOPIC_FEED
from repro.core.feed import FeedRecord, read_jsonl_records
from repro.errors import ServeError
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.resilience.faults import FaultPlan
from repro.resilience.metrics import get_resilience_metrics
from repro.serve.fanout import FanoutDispatcher
from repro.serve.metrics import ServeMetrics
from repro.serve.ratelimit import RateLimiter, TierPolicy
from repro.serve.segments import SegmentedLog
from repro.serve.subscription import FilterSpec, SubscriptionManager


@dataclass
class FeedServerConfig:
    """Tunables of the distribution service."""

    shards: int = 4
    max_queue_depth: int = 1024
    evict_after_drops: int = 64
    max_segment_records: int = 4096
    #: Optional max time span (seconds) one segment may cover.
    max_segment_span: Optional[int] = None
    #: Directory for persisted segments (None: memory only).
    log_dir: Optional[Path] = None
    #: Broker consumer group the server commits offsets under.
    consumer_group: str = "feed-server"
    #: Broker poll batch size per pump iteration.
    poll_batch: int = 1000
    #: Tier policy overrides (None: ratelimit.DEFAULT_TIERS).
    tiers: Optional[Dict[str, TierPolicy]] = None
    #: Deterministic fault plan (``serve.stall`` consumers,
    #: ``log.torn_write`` in the segment writer); a string parses via
    #: :meth:`FaultPlan.parse`.
    fault_plan: Optional[FaultPlan] = None
    #: Total-pending threshold above which overload shedding kicks in
    #: (None: shedding off).  Subscribers are shed lowest tier first.
    shed_pending_threshold: Optional[int] = None
    #: Tier order for shedding, cheapest casualties first.
    shed_tier_order: tuple = ("free", "standard", "premium")


class FeedServer:
    """One feed-distribution service instance."""

    def __init__(self, broker: Optional[Broker] = None,
                 config: Optional[FeedServerConfig] = None) -> None:
        self.broker = broker
        self.config = config if config is not None else FeedServerConfig()
        if isinstance(self.config.fault_plan, str):
            self.config.fault_plan = FaultPlan.parse(self.config.fault_plan)
        self.metrics = ServeMetrics()
        self.log = SegmentedLog(
            max_segment_records=self.config.max_segment_records,
            max_segment_span=self.config.max_segment_span,
            directory=self.config.log_dir,
            fault_plan=self.config.fault_plan)
        self.limiter = RateLimiter(self.config.tiers)
        self.subscriptions = SubscriptionManager(
            allowed_tiers=self.limiter.tiers)
        self.fanout = FanoutDispatcher(
            shards=self.config.shards,
            max_queue_depth=self.config.max_queue_depth,
            evict_after_drops=self.config.evict_after_drops,
            metrics=self.metrics)
        self._replay_skipped = 0
        self._shed_total = 0
        self._resilience = get_resilience_metrics()
        self._log = get_logger("resilience")
        #: Observation time of the newest ingested record (drive loops
        #: use it as "server now" between pump batches).
        self.last_ingested_ts = 0
        # The server (not ServeMetrics itself) owns the process-wide
        # "serve" group: FanoutDispatcher also builds a ServeMetrics,
        # and only the server-owned instance is the operator's view.
        get_registry().register("serve", self.metrics)

    # -- membership -----------------------------------------------------------

    def subscribe(self, client_id: str,
                  spec: Union[FilterSpec, str, None] = None,
                  tier: str = "standard", now: int = 0,
                  backfill_since: Optional[int] = None) -> None:
        """Register a client.

        ``spec`` may be a :class:`FilterSpec`, a CLI-style spec string
        (``"tld=com,xyz;glob=*shop*"``), or None for match-everything.
        ``backfill_since`` immediately queues matching historical
        records from the segmented log (time-indexed replay), so late
        joiners can catch up without a separate archive download.
        """
        if spec is None:
            spec = FilterSpec()
        elif isinstance(spec, str):
            spec = FilterSpec.parse(spec)
        sub = self.subscriptions.subscribe(client_id, spec, tier=tier, now=now)
        self.fanout.add_client(client_id)
        self.limiter.register(client_id, tier, now=now)
        if backfill_since is not None:
            for record in self.log.replay_since(backfill_since):
                if sub.matches(record):
                    evicted = self.fanout.dispatch(record, [client_id])
                    if evicted:
                        self._retire(evicted)
                        break

    def unsubscribe(self, client_id: str) -> None:
        """Deregister a client and discard its queued deliveries."""
        self.subscriptions.unsubscribe(client_id)
        self.fanout.remove_client(client_id)
        self.limiter.forget(client_id)

    @property
    def client_count(self) -> int:
        """Number of currently subscribed clients."""
        return len(self.subscriptions)

    # -- ingest ---------------------------------------------------------------

    def ingest(self, record: FeedRecord) -> int:
        """Publish one record into the log and the matching queues.

        Delivery lag is measured from the record's observation time
        (``seen_at``) to the poll that delivers it.

        Returns:
            The number of client queues that accepted the record.
        """
        self.metrics.published.inc()
        self.last_ingested_ts = max(self.last_ingested_ts, record.seen_at)
        self.log.append(record)
        matched = self.subscriptions.match(record)
        if not matched:
            self.metrics.filtered_out.inc()
            return 0
        evicted = self.fanout.dispatch(record,
                                       [s.client_id for s in matched])
        if evicted:
            self._retire(evicted)
        threshold = self.config.shed_pending_threshold
        if threshold is not None and self.fanout.pending() > threshold:
            self._shed_overload(record.seen_at)
        return len(matched) - len(evicted)

    def _retire(self, evicted: List[str]) -> None:
        """Retire the subscription and bucket of evicted clients.

        Eviction tore down the queue; retiring the rest lets the client
        resubscribe (and stops it costing matching work).  The fan-out
        layer remembers the eviction so a poll() still explains what
        happened.
        """
        for client_id in evicted:
            self.subscriptions.unsubscribe(client_id)
            self.limiter.forget(client_id)

    def _shed_overload(self, now: int) -> None:
        """Shed subscribers until total pending is back under threshold.

        Victims are chosen lowest tier first (``shed_tier_order``:
        free before standard before premium — paying consumers keep
        their feed), and within a tier the client with the deepest
        backlog goes first (ties broken by client id, so the order is
        deterministic).  Shedding unsubscribes the client entirely:
        half-serving an overloaded queue only hides the lag.
        """
        threshold = self.config.shed_pending_threshold
        if threshold is None:
            return
        by_tier: Dict[str, List[str]] = {}
        for client_id, tier in self.subscriptions.tiers().items():
            by_tier.setdefault(tier, []).append(client_id)
        for tier in self.config.shed_tier_order:
            victims = sorted(by_tier.get(tier, ()),
                             key=lambda cid: (-self.fanout.pending(cid), cid))
            for client_id in victims:
                if self.fanout.pending() <= threshold:
                    return
                pending = self.fanout.pending(client_id)
                self.unsubscribe(client_id)
                self._shed_total += 1
                self.metrics.shed_clients.inc()
                self._resilience.shed_clients[tier] += 1
                self._log.warning("overload: shed subscriber",
                                  client_id=client_id, tier=tier,
                                  pending=pending, at=now)

    def pump(self, max_messages: Optional[int] = None) -> int:
        """Ingest every new record from the broker's feed topic.

        Needs a broker; offsets commit under the configured consumer
        group, so repeated pumps only see new records.  Returns how
        many records were ingested.
        """
        if self.broker is None:
            raise ServeError("pump() needs a broker "
                             "(use replay() for archives)")
        with span("serve.pump") as sp:
            ingested = 0
            while True:
                budget = self.config.poll_batch
                if max_messages is not None:
                    budget = min(budget, max_messages - ingested)
                    if budget <= 0:
                        break
                batch = self.broker.poll(self.config.consumer_group,
                                         TOPIC_FEED, max_messages=budget)
                if not batch:
                    break
                for message in batch:
                    value = message.value
                    record = (value if isinstance(value, FeedRecord)
                              else FeedRecord.from_json(value))
                    self.ingest(record)
                    ingested += 1
            sp.annotate(ingested=ingested)
            return ingested

    def run_live(self, poll_interval: int = 3600,
                 max_records: int = 1000) -> int:
        """Tail the topic and re-serve it *as the live window unfolded*.

        ``pump()`` delivers the topic as fast as the broker hands it
        over, which compresses three months of feed into one burst and
        punishes every slow consumer at once.  ``run_live`` instead
        replays the records in observation order, polling every client
        each ``poll_interval`` of simulated time — the cadence a real
        deployment of the open feed would see.  Returns the number of
        records served.
        """
        if self.broker is None:
            raise ServeError("run_live() needs a broker")
        with span("serve.run_live") as sp:
            pending: List[FeedRecord] = []
            while True:
                batch = self.broker.poll(self.config.consumer_group,
                                         TOPIC_FEED,
                                         max_messages=self.config.poll_batch)
                if not batch:
                    break
                for message in batch:
                    value = message.value
                    pending.append(value if isinstance(value, FeedRecord)
                                   else FeedRecord.from_json(value))
            pending.sort(key=lambda r: (r.seen_at, r.domain))

            next_poll: Optional[int] = None
            for record in pending:
                if next_poll is None:
                    next_poll = record.seen_at + poll_interval
                while record.seen_at >= next_poll:
                    self.drain_all(next_poll, max_records=max_records)
                    next_poll += poll_interval
                self.ingest(record)
            if next_poll is not None:
                self.drain_until_empty(next_poll, tick=poll_interval,
                                       max_rounds=10_000)
            if pending:
                sp.annotate(sim_sec=pending[-1].seen_at - pending[0].seen_at,
                            served=len(pending))
            return len(pending)

    def replay(self, path: Path) -> int:
        """Ingest a JSONL feed archive; malformed lines are skipped and
        counted (``replay_skipped``), via PublicFeed's shared loader."""
        records, skipped = read_jsonl_records(path)
        self._replay_skipped += skipped
        for record in records:
            self.ingest(record)
        return len(records)

    @property
    def replay_skipped(self) -> int:
        """Malformed JSONL lines skipped across all replay() calls."""
        return self._replay_skipped

    # -- delivery -------------------------------------------------------------

    def poll(self, client_id: str, now: int,
             max_records: int = 100) -> List[FeedRecord]:
        """Drain one client's queue, spending rate-limit tokens.

        The :meth:`drain_all` round run over one client; returns the
        records delivered, oldest first.  An evicted or unknown client
        raises before anything else happens.
        """
        return self._round(((client_id, self.fanout.route(client_id)),),
                           now, max_records)

    def drain_all(self, now: int, max_records: int = 100) -> int:
        """Poll every active client once; returns records delivered."""
        return len(self._round(self.fanout.routes.items(), now,
                               max_records))

    def _round(self, routes: Iterable[Tuple[str, tuple]], now: int,
               max_records: int) -> List[FeedRecord]:
        """One poll round over ``(client_id, (shard, queue))`` routes.

        Per client, in this order: a ``serve.stall`` fault skips it
        untouched; its bucket is refilled to ``now`` (empty queue or
        not: the clock may go back, as the CLI's final drain does, and
        a skipped refill would then change what a later poll finds);
        a bucket under one token defers the queue (one
        ``dropped_rate_limited`` if anything is pending) and observes no
        depth; otherwise the queue's depth is observed and up to
        ``min(max_records, tokens)`` records leave it, charged to the
        bucket at once.  The metrics are updated once per round; every
        value is the same as per-client polls in any order give, since
        depths and lags are integers.  Returns the records delivered.
        """
        plan = self.config.fault_plan
        stall = plan is not None and plan.wants("serve.stall")
        buckets = self.limiter.buckets
        taken: List[FeedRecord] = []
        depths: List[int] = []
        empty = limited = 0
        for client_id, (_, queue) in routes:
            if stall and plan.fires("serve.stall", client_id, str(now),
                                    target=client_id, at=now) is not None:
                # A stalled consumer simply doesn't drain its queue;
                # the records stay put (and back-pressure/shedding sees
                # the growing backlog).
                self._resilience.faults_injected["serve.stall"] += 1
                continue
            bucket = buckets.get(client_id)
            allowed = (max_records if bucket is None
                       else bucket.allowance(now, max_records))
            depth = len(queue.queue)
            if allowed <= 0:
                if depth:
                    limited += 1
                continue
            if not depth:
                empty += 1
                continue
            depths.append(depth)
            batch = queue.take(allowed)
            taken += batch
            if bucket is not None:
                bucket.spend(len(batch))
        metrics = self.metrics
        metrics.delivered.inc(len(taken))
        metrics.dropped_rate_limited.inc(limited)
        metrics.queue_depth.observe_many(depths, zeros=empty)
        metrics.delivery_lag.observe_many(
            [now - r.seen_at if r.seen_at < now else 0 for r in taken])
        return taken

    def drain_until_empty(self, now: int, max_rounds: int = 1000,
                          tick: int = 1) -> int:
        """Poll all clients in rounds (advancing ``now`` by ``tick``)
        until every queue is empty or ``max_rounds`` is hit."""
        delivered = 0
        for round_no in range(max_rounds):
            got = self.drain_all(now + round_no * tick)
            delivered += got
            if self.fanout.pending() == 0:
                break
        return delivered

    # -- maintenance / observability ------------------------------------------

    def compact(self) -> int:
        """Run the per-domain compaction pass on sealed segments."""
        return self.log.compact()

    def snapshot(self) -> Dict[str, object]:
        """Metrics + log + shard state, JSON-ready."""
        snap = self.metrics.snapshot()
        snap["clients"] = self.client_count
        snap["pending"] = self.fanout.pending()
        snap["replay_skipped"] = self._replay_skipped
        snap["shed_total"] = self._shed_total
        snap["log"] = self.log.stats()
        snap["shards"] = self.fanout.shard_loads()
        return snap
