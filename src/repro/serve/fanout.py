"""Sharded fan-out: bounded per-client queues with backpressure.

Delivery to a large subscriber population is sharded the same way the
broker shards topics: ``stable_bucket(client_id)`` assigns each client
to one of N delivery shards, so shard membership is deterministic,
uniform, and independent of registration order.  Each client owns a
**bounded** FIFO queue; a full queue drops the oldest pending record
(the consumer is behind — fresher data is worth more on an NRD feed)
and counts the drop.  Clients that keep overflowing get **evicted**:
after ``evict_after_drops`` consecutive dropped deliveries the shard
removes the client, which is how real feed infrastructure protects
itself from dead consumers that never poll.

A client is hashed to its shard once, when it is added: the dispatcher
keeps a route table ``client_id -> (shard, queue)``, and every
delivery, poll and pending-count reads it, so the per-record cost is a
dict lookup per matched client, not a hash.

The shards here are cooperative (no threads): ``dispatch()`` routes one
published record to every matching subscription's queue, and clients
drain with ``poll()``.  What matters for the reproduction is the
*accounting* — queue bounds, drop/eviction semantics, per-shard load —
which is exactly what the benchmark measures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.feed import FeedRecord
from repro.errors import EvictedClientError, ServeError, UnknownClientError
from repro.serve.metrics import ServeMetrics
from repro.simtime.rng import stable_bucket

#: Salt for shard assignment (keeps it independent of broker routing).
SHARD_SALT = "serve.fanout"


@dataclass
class ClientQueue:
    """One subscriber's pending deliveries."""

    client_id: str
    max_depth: int
    queue: Deque[FeedRecord] = field(default_factory=deque)
    #: Consecutive enqueue-side drops since the last successful poll.
    consecutive_drops: int = 0
    delivered: int = 0
    dropped: int = 0

    def offer(self, record: FeedRecord) -> bool:
        """Enqueue a record; on overflow drop the *oldest* entry.

        Returns False when something was dropped (the new record still
        lands — freshest-wins backpressure).
        """
        dropped = len(self.queue) >= self.max_depth
        if dropped:
            self.queue.popleft()
            self.dropped += 1
            self.consecutive_drops += 1
        self.queue.append(record)
        return not dropped

    def drain(self, max_records: int) -> List[FeedRecord]:
        """Take up to ``max_records`` records off the front, oldest first."""
        out = [self.queue.popleft()
               for _ in range(min(len(self.queue), max_records))]
        if out:
            self.consecutive_drops = 0
            self.delivered += len(out)
        return out


class FanoutShard:
    """One delivery worker: the queues of its assigned clients."""

    def __init__(self, index: int, max_queue_depth: int,
                 evict_after_drops: int) -> None:
        self.index = index
        self.max_queue_depth = max_queue_depth
        self.evict_after_drops = evict_after_drops
        self._queues: Dict[str, ClientQueue] = {}
        self.routed = 0

    def __len__(self) -> int:
        return len(self._queues)

    def add_client(self, client_id: str) -> ClientQueue:
        queue = ClientQueue(client_id, self.max_queue_depth)
        self._queues[client_id] = queue
        return queue

    def remove_client(self, client_id: str) -> Optional[ClientQueue]:
        return self._queues.pop(client_id, None)

    def pending(self) -> int:
        return sum(len(q.queue) for q in self._queues.values())


class FanoutDispatcher:
    """Routes matched records to client queues across shards."""

    def __init__(self, shards: int = 4, max_queue_depth: int = 1024,
                 evict_after_drops: int = 64,
                 metrics: Optional[ServeMetrics] = None) -> None:
        if shards <= 0:
            raise ServeError("need at least one shard")
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.shards = [FanoutShard(i, max_queue_depth, evict_after_drops)
                       for i in range(shards)]
        #: client id -> (its shard, its queue), resolved once on add.
        self._routes: Dict[str, Tuple[FanoutShard, ClientQueue]] = {}
        #: Sorted active client ids; None after a membership change.
        self._sorted: Optional[Tuple[str, ...]] = None
        self._evicted: set = set()

    # -- membership -----------------------------------------------------------

    def add_client(self, client_id: str) -> None:
        self._evicted.discard(client_id)
        shard = self.shards[stable_bucket(client_id, len(self.shards),
                                          SHARD_SALT)]
        self._routes[client_id] = (shard, shard.add_client(client_id))
        self._sorted = None

    def remove_client(self, client_id: str) -> None:
        route = self._routes.pop(client_id, None)
        if route is not None:
            route[0].remove_client(client_id)
            self._sorted = None
        self._evicted.discard(client_id)

    def is_evicted(self, client_id: str) -> bool:
        return client_id in self._evicted

    def active_clients(self) -> Tuple[str, ...]:
        """Active client ids, sorted (cached until membership changes)."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self._routes))
        return self._sorted

    # -- delivery -------------------------------------------------------------

    def dispatch(self, record: FeedRecord,
                 client_ids: List[str]) -> List[str]:
        """Fan one record out to the given (already-matched) clients.

        Every listed client's queue takes the record; ids without a
        queue (evicted or removed) are skipped.  Returns the ids this
        call evicted: clients whose queue overflowed past the eviction
        threshold are dropped from their shard and remembered so
        ``poll`` can tell them why.
        """
        routes = self._routes
        evicted: List[str] = []
        for client_id in client_ids:
            route = routes.get(client_id)
            if route is None:
                continue
            shard, queue = route
            shard.routed += 1
            if not queue.offer(record):
                self.metrics.dropped_queue_full.inc()
                if queue.consecutive_drops >= shard.evict_after_drops:
                    self.remove_client(client_id)
                    self._evicted.add(client_id)
                    self.metrics.evicted_clients.inc()
                    evicted.append(client_id)
        return evicted

    def poll(self, client_id: str, now: int,
             max_records: int = 100) -> List[FeedRecord]:
        """Drain up to ``max_records`` pending deliveries for a client."""
        route = self._routes.get(client_id)
        if route is None:
            if client_id in self._evicted:
                raise EvictedClientError(
                    f"client {client_id!r} was evicted as a slow consumer")
            raise UnknownClientError(f"no queue for client {client_id!r}")
        queue = route[1]
        self.metrics.queue_depth.observe(len(queue.queue))
        batch = queue.drain(max_records)
        if batch:
            self.metrics.delivered.inc(len(batch))
            observe = self.metrics.delivery_lag.observe
            for record in batch:
                observe(max(0, now - record.seen_at))
        return batch

    def pending(self, client_id: Optional[str] = None) -> int:
        """Undelivered records: one client's queue, or all queues."""
        if client_id is not None:
            route = self._routes.get(client_id)
            return len(route[1].queue) if route is not None else 0
        return sum(len(queue.queue) for _, queue in self._routes.values())

    def delivered_counts(self) -> Dict[str, int]:
        """client id -> records delivered so far (active clients only)."""
        out: Dict[str, int] = {}
        for shard in self.shards:
            for client_id, queue in shard._queues.items():
                out[client_id] = queue.delivered
        return out

    def shard_loads(self) -> List[Dict[str, int]]:
        """Per-shard routing/queueing stats (for balance checks)."""
        return [{"shard": s.index, "clients": len(s), "routed": s.routed,
                 "pending": s.pending()} for s in self.shards]
