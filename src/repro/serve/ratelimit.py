"""Per-client token-bucket rate limiting, by service tier.

The paper's feed is an open public service; serving it to "millions of
users" means nobody gets to monopolise delivery capacity.
Each client owns a token bucket sized by its tier: tokens refill at a
steady per-second rate up to a burst capacity, and each delivered
record spends one token.  Buckets are lazily refilled from explicit
timestamps — the simulation's clock, not wall time — so accounting is
deterministic and testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ServeError


@dataclass(frozen=True)
class TierPolicy:
    """Refill rate (tokens/second) and burst capacity for one tier."""

    name: str
    rate: float
    burst: float

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.burst <= 0:
            raise ServeError(f"tier {self.name!r}: rate and burst "
                             "must be positive")


#: Default tiers: free gets a trickle, premium effectively the firehose.
DEFAULT_TIERS: Dict[str, TierPolicy] = {
    "free": TierPolicy("free", rate=2.0, burst=50.0),
    "standard": TierPolicy("standard", rate=50.0, burst=1000.0),
    "premium": TierPolicy("premium", rate=5000.0, burst=50000.0),
}


class TokenBucket:
    """One client's budget: refill on demand, spend on delivery."""

    __slots__ = ("policy", "tokens", "last_refill")

    def __init__(self, policy: TierPolicy, now: int = 0) -> None:
        self.policy = policy
        self.tokens = policy.burst  # start full: new clients may burst
        self.last_refill = now

    def refill(self, now: int) -> None:
        if now <= self.last_refill:
            return
        self.tokens = min(self.policy.burst,
                          self.tokens + (now - self.last_refill)
                          * self.policy.rate)
        self.last_refill = now

    def try_spend(self, now: int, n: float = 1.0) -> bool:
        """Spend ``n`` tokens if available; False means rate-limited."""
        self.refill(now)
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False


class RateLimiter:
    """Token buckets for a population of clients, keyed by tier."""

    def __init__(self, tiers: Dict[str, TierPolicy] = None) -> None:
        self.tiers = dict(DEFAULT_TIERS if tiers is None else tiers)
        self._buckets: Dict[str, TokenBucket] = {}

    def register(self, client_id: str, tier: str, now: int = 0) -> TokenBucket:
        policy = self.tiers.get(tier)
        if policy is None:
            raise ServeError(f"unknown tier {tier!r} "
                             f"(have {sorted(self.tiers)})")
        bucket = TokenBucket(policy, now)
        self._buckets[client_id] = bucket
        return bucket

    def forget(self, client_id: str) -> None:
        self._buckets.pop(client_id, None)

    def allow(self, client_id: str, now: int, n: float = 1.0) -> bool:
        """Charge ``n`` deliveries to the client; unknown clients pass
        (the fan-out layer, not the limiter, owns membership)."""
        bucket = self._buckets.get(client_id)
        if bucket is None:
            return True
        return bucket.try_spend(now, n)

    def available(self, client_id: str, now: int) -> float:
        """Current token balance (refilled to ``now``)."""
        bucket = self._buckets.get(client_id)
        if bucket is None:
            return float("inf")
        bucket.refill(now)
        return bucket.tokens
