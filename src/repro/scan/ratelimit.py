"""Per-authority probe rate control.

The scarce resource in bulk active measurement is not the scanner — it
is the authoritative servers being asked.  ZDNS throttles per
nameserver; we throttle per *authority* (one TLD authoritative server
per TLD, since every probe of a domain either asks its TLD authority
directly or recurses through its referral).  Each authority owns a
token bucket (reusing :class:`repro.serve.ratelimit.TokenBucket`) with
``rate == qps`` and ``burst == max(qps, 1)``: because simulation
timestamps are integral seconds, that shape guarantees no authority is
ever asked more than ``max(qps, 1)`` times within one simulated second
(probes are indivisible — a fractional cap must still be able to bank
one whole probe, or nothing could ever be granted).

A probe that finds the bucket empty is not dropped — it *stalls*: the
limiter reports how long until enough tokens accrue and the scheduler
re-queues the probe for that instant.  Stalled probes re-enter the
queue behind work already due at that time, which is what keeps a
congested authority from starving the rest of the fleet (fairness is
FIFO per due-instant; see the scheduler).

A probe instant may need more tokens than the bucket can ever hold at
once (three qtypes against ``qps=2``); :meth:`acquire_up_to` grants
whatever is available so the engine can send the front of the batch on
time and stall only the remainder — an all-or-nothing acquire would
deadlock on exactly the configured caps that matter.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.errors import ScanError
from repro.serve.ratelimit import TierPolicy, TokenBucket


class AuthorityRateLimiter:
    """Token buckets keyed by authority (TLD), all sharing one QPS cap.

    ``qps=None`` disables limiting entirely — the equivalence property
    (scan ≡ loop) only holds when probes execute exactly on the grid,
    so the default engine configuration runs unthrottled.
    """

    def __init__(self, qps: Optional[float] = None) -> None:
        if qps is not None and not (qps > 0 and math.isfinite(qps)):
            raise ScanError(f"authority qps must be finite and positive, "
                            f"got {qps}")
        self.qps = qps
        self._buckets: Dict[str, TokenBucket] = {}
        # Per-authority (current second, sent this second, max per second):
        # the compliance record benchmarks assert against.
        self._sent: Dict[str, list] = {}

    @property
    def enabled(self) -> bool:
        return self.qps is not None

    def _bucket(self, authority: str) -> TokenBucket:
        bucket = self._buckets.get(authority)
        if bucket is None:
            # Burst floors at one token: probes are indivisible, so a
            # fractional cap (qps=0.5) still has to be able to bank one
            # whole probe — otherwise nothing could ever be granted and
            # every stalled entry would defer forever.  The *rate*
            # keeps the configured average; peaks within one second
            # stay at max(1, qps).
            policy = TierPolicy(f"authority:{authority}",
                                rate=float(self.qps),
                                burst=max(float(self.qps), 1.0))
            bucket = TokenBucket(policy)
            self._buckets[authority] = bucket
        return bucket

    def try_acquire(self, authority: str, now: int, n: int = 1) -> bool:
        """Spend ``n`` probe tokens against ``authority`` at ``now``."""
        if not self.enabled:
            self._record(authority, now, n)
            return True
        if self._bucket(authority).try_spend(now, float(n)):
            self._record(authority, now, n)
            return True
        return False

    def acquire_up_to(self, authority: str, now: int, n: int) -> int:
        """Grant as many of ``n`` tokens as the bucket holds (0..n)."""
        if not self.enabled:
            self._record(authority, now, n)
            return n
        bucket = self._bucket(authority)
        bucket.refill(now)
        granted = min(n, int(bucket.tokens))
        if granted > 0:
            bucket.tokens -= granted
            self._record(authority, now, granted)
        return granted

    def delay_until(self, authority: str, now: int, n: int = 1) -> int:
        """Seconds until ``n`` tokens will be available (>= 1)."""
        if not self.enabled:
            return 0
        bucket = self._bucket(authority)
        bucket.refill(now)
        deficit = float(n) - bucket.tokens
        if deficit <= 0:
            return 1
        return max(1, math.ceil(deficit / bucket.policy.rate))

    def _record(self, authority: str, now: int, n: int) -> None:
        cell = self._sent.get(authority)
        if cell is None:
            self._sent[authority] = [now, n, n]
            return
        if cell[0] == now:
            cell[1] += n
        else:
            cell[0], cell[1] = now, n
        if cell[1] > cell[2]:
            cell[2] = cell[1]

    def max_sent_per_second(self) -> Dict[str, int]:
        """Peak probes observed in any one simulated second, per authority."""
        return {auth: cell[2] for auth, cell in sorted(self._sent.items())}
