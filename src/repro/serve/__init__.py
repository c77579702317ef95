"""Feed distribution: serving the public NRD feed at scale.

The paper's contribution (2) is an *open live feed* of newly registered
and transient domains.  :mod:`repro.core.feed` produces that feed; this
package serves it — a segmented persistent log (:mod:`.segments`),
filtered subscriptions (:mod:`.subscription`), sharded bounded-queue
fan-out with slow-consumer eviction (:mod:`.fanout`), per-tier token
buckets (:mod:`.ratelimit`), and serving metrics (:mod:`.metrics`),
fronted by the :class:`~repro.serve.server.FeedServer` facade.

Quickstart::

    from repro.serve import FeedServer, FilterSpec

    server = FeedServer(broker=world.broker)
    server.subscribe("alice", FilterSpec(tlds=frozenset({"com"})))
    server.pump()                    # tail the nrd.public-feed topic
    records = server.poll("alice", now=world.window.end)
    print(server.snapshot())
"""

from repro.serve.fanout import FanoutDispatcher, FanoutShard
from repro.serve.metrics import ServeMetrics
from repro.serve.ratelimit import (
    DEFAULT_TIERS,
    RateLimiter,
    TierPolicy,
    TokenBucket,
)
from repro.serve.segments import SegmentedLog, SegmentInfo
from repro.serve.server import FeedServer, FeedServerConfig
from repro.serve.subscription import (
    FilterSpec,
    Subscription,
    SubscriptionManager,
)

__all__ = [
    "DEFAULT_TIERS", "FanoutDispatcher", "FanoutShard", "FeedServer",
    "FeedServerConfig", "FilterSpec", "RateLimiter", "SegmentInfo",
    "SegmentedLog", "ServeMetrics", "Subscription", "SubscriptionManager",
    "TierPolicy", "TokenBucket",
]
