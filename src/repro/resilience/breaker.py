"""Circuit breakers.

:class:`CircuitBreaker` implements the classic three-state machine —
CLOSED (traffic flows), OPEN (traffic refused after too many
failures), HALF_OPEN (a limited number of probes test recovery after a
cooldown) — keyed in the scan engine per TLD authority so one melting
authority cannot consume the whole probe budget.  Time is whatever
monotonic counter the caller passes in (the scan engine passes
simulated seconds), so the breaker itself is deterministic and
clock-free.  A refused probe rides the scan engine's one retry
schedule (``retry_backoff * 2 ** attempt``), by which time the breaker
may be half-open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs for :class:`CircuitBreaker` (see docs/resilience.md).

    The breaker trips when *either* ``failure_threshold`` consecutive
    failures occur, or the error rate over the last ``window`` outcomes
    reaches ``error_rate_threshold`` (with at least ``window`` outcomes
    observed).  After ``cooldown`` time units it admits up to
    ``half_open_probes`` trial calls; any failure reopens it, and
    ``half_open_probes`` consecutive successes close it.
    """

    failure_threshold: int = 5
    error_rate_threshold: float = 1.0
    window: int = 20
    cooldown: float = 300.0
    half_open_probes: int = 2

    def __post_init__(self) -> None:
        if self.failure_threshold <= 0:
            raise ConfigError(
                f"failure_threshold must be positive: {self.failure_threshold}")
        if not 0.0 < self.error_rate_threshold <= 1.0:
            raise ConfigError(
                f"error_rate_threshold must be in (0, 1]: "
                f"{self.error_rate_threshold}")
        if self.window <= 0:
            raise ConfigError(f"window must be positive: {self.window}")
        if self.cooldown < 0:
            raise ConfigError(f"cooldown must be >= 0: {self.cooldown}")
        if self.half_open_probes <= 0:
            raise ConfigError(
                f"half_open_probes must be positive: {self.half_open_probes}")


class CircuitBreaker:
    """One breaker instance (e.g. one scan authority).

    Callers drive it with three methods: :meth:`allow` before an
    operation (``False`` means shed the call), then exactly one of
    :meth:`record_success` / :meth:`record_failure` with the outcome.
    All three take ``now`` — any monotonic float — so the breaker
    works identically under simulated and wall time.
    """

    def __init__(self, config: Optional[BreakerConfig] = None,
                 name: str = "") -> None:
        self.config = config or BreakerConfig()
        self.name = name
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.half_open_inflight = 0
        self.half_open_successes = 0
        #: Sliding outcome window: 1 = failure, 0 = success.
        self._window: list = []
        #: Lifetime transition counts, keyed ``"closed->open"`` etc.
        self.transitions: Dict[str, int] = {}
        #: Calls refused while open.
        self.skipped = 0
        #: Optional observer called as ``on_transition(old, new)`` —
        #: the scan engine hooks metrics/logging in here.
        self.on_transition = None

    # -- driving ---------------------------------------------------------------

    def allow(self, now: float) -> bool:
        """May the caller attempt an operation right now?"""
        if self.state == OPEN:
            if (self.opened_at is not None
                    and now - self.opened_at >= self.config.cooldown):
                self._transition(HALF_OPEN)
            else:
                self.skipped += 1
                return False
        if self.state == HALF_OPEN:
            if self.half_open_inflight >= self.config.half_open_probes:
                self.skipped += 1
                return False
            self.half_open_inflight += 1
        return True

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        self._observe(0)
        if self.state == HALF_OPEN:
            self.half_open_inflight = max(0, self.half_open_inflight - 1)
            self.half_open_successes += 1
            if self.half_open_successes >= self.config.half_open_probes:
                self._transition(CLOSED)

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        self._observe(1)
        if self.state == HALF_OPEN:
            # One bad probe sends it straight back to open.
            self._open(now)
            return
        if self.state == CLOSED and self._should_trip():
            self._open(now)

    # -- internals -------------------------------------------------------------

    def _should_trip(self) -> bool:
        if self.consecutive_failures >= self.config.failure_threshold:
            return True
        if (self.config.error_rate_threshold < 1.0
                and len(self._window) >= self.config.window):
            rate = sum(self._window) / len(self._window)
            if rate >= self.config.error_rate_threshold:
                return True
        return False

    def _observe(self, outcome: int) -> None:
        self._window.append(outcome)
        if len(self._window) > self.config.window:
            del self._window[:len(self._window) - self.config.window]

    def _open(self, now: float) -> None:
        self._transition(OPEN)
        self.opened_at = now

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        key = f"{self.state}->{state}"
        self.transitions[key] = self.transitions.get(key, 0) + 1
        if self.on_transition is not None:
            self.on_transition(self.state, state)
        self.state = state
        if state == HALF_OPEN:
            self.half_open_inflight = 0
            self.half_open_successes = 0
        elif state == CLOSED:
            self.consecutive_failures = 0
            self._window.clear()
            self.opened_at = None

    def snapshot(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "skipped": self.skipped,
            "transitions": dict(sorted(self.transitions.items())),
        }
