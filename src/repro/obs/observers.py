"""Standing observers: rolling baselines, significance, mass events.

The anomaly-detection layer over pipeline/scan output streams (after
the ``world-observer`` significance model): each named *series* —
daily CT-candidate counts, dark-host counts, confirmed transients —
runs under a :class:`SeriesObserver` holding a rolling baseline of the
last *N* points.  A new point is **significant** when either detector
triggers against that baseline:

* **z-score** — ``|value - mean| / max(std, std_floor) > sigma_mult``;
* **step change** — ``|value - mean| / mean * 100 >= step_threshold_pct``
  (and ``|value - mean| >= step_min_delta`` — percent changes on a
  near-zero baseline are meaningless for count series).

An :class:`ObserverSuite` fans one stream of ``(series, ts, value)``
points across its observers, collects :class:`Anomaly` records, and
raises a :class:`MassEvent` when at least ``mass_event_k`` distinct
series are significant at the same instant (the registration-burst /
dark-host-spike trigger).  The suite is a registry provider, so its
anomaly and mass-event counts appear in ``repro metrics`` output.

Wired into the pipeline as the optional ``observers=`` hook of
:class:`~repro.core.pipeline.DarkDNSPipeline`: after step 5 the suite
ingests the run's daily series (:func:`observe_pipeline_result`).  The
module is dependency-free and duck-types the pipeline result, so the
layer map stays acyclic.

Everything is deterministic: thresholds are config, baselines are
arithmetic, and no RNG stream is touched.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Anomaly", "MassEvent", "RollingBaseline", "SeriesObserver",
    "ObserverSuite", "daily_counts", "observe_pipeline_result",
    "observe_world", "default_pipeline_suite",
    "ScenarioExpectation", "SCENARIO_EXPECTATIONS", "check_expectations",
]

#: Seconds per day — the bucketing unit of the daily series helpers
#: (kept local so ``repro.obs`` imports nothing from the layers above).
_DAY = 86_400


@dataclass(frozen=True)
class Anomaly:
    """One significant observation on one series."""

    series: str
    ts: int
    value: float
    #: Which detector fired: ``"zscore"`` or ``"step"``.
    kind: str
    #: The detector's score: the z value, or the percent step.
    score: float
    baseline_mean: float
    baseline_std: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "series": self.series, "ts": self.ts, "value": self.value,
            "kind": self.kind, "score": round(self.score, 3),
            "baseline_mean": round(self.baseline_mean, 3),
            "baseline_std": round(self.baseline_std, 3),
        }


@dataclass(frozen=True)
class MassEvent:
    """``mass_event_k`` or more series significant at one instant."""

    ts: int
    series: Tuple[str, ...]

    def as_dict(self) -> Dict[str, object]:
        return {"ts": self.ts, "series": list(self.series)}


class RollingBaseline:
    """Mean/std over the last ``window`` observed values."""

    __slots__ = ("window", "_values", "_sum", "_sumsq")

    def __init__(self, window: int = 30) -> None:
        if window < 2:
            raise ValueError(f"baseline window must be >= 2: {window}")
        self.window = window
        self._values: Deque[float] = deque()
        self._sum = 0.0
        self._sumsq = 0.0

    def push(self, value: float) -> None:
        value = float(value)
        self._values.append(value)
        self._sum += value
        self._sumsq += value * value
        if len(self._values) > self.window:
            old = self._values.popleft()
            self._sum -= old
            self._sumsq -= old * old

    def __len__(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        return self._sum / len(self._values) if self._values else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation of the window."""
        n = len(self._values)
        if n < 2:
            return 0.0
        variance = self._sumsq / n - (self._sum / n) ** 2
        # Rounding can push a zero-variance window epsilon-negative.
        return math.sqrt(max(0.0, variance))


class SeriesObserver:
    """One standing observer over one named metric series.

    Points must arrive in non-decreasing ``ts`` order (each series is
    a time stream).  A point is compared against the baseline of the
    points *before* it, then joins the baseline itself — a sustained
    shift therefore fires on its leading edge and is absorbed as the
    new normal over the next ``window`` points, exactly the standing-
    observer behaviour (not a one-shot threshold).

    ``std_floor`` guards the z-score against near-constant series: a
    count series that was [5, 5, 5, ...] must not flag a 6.
    """

    def __init__(self, name: str, window: int = 30,
                 sigma_mult: float = 4.0,
                 step_threshold_pct: float = 200.0,
                 min_points: int = 7,
                 std_floor: float = 1.0,
                 step_min_delta: float = 0.0) -> None:
        if min_points < 2:
            raise ValueError(f"min_points must be >= 2: {min_points}")
        if sigma_mult <= 0 or step_threshold_pct <= 0:
            raise ValueError("detector thresholds must be positive")
        self.name = name
        self.baseline = RollingBaseline(window)
        self.sigma_mult = sigma_mult
        self.step_threshold_pct = step_threshold_pct
        self.min_points = min_points
        self.std_floor = std_floor
        self.step_min_delta = step_min_delta
        self.points = 0
        self._last_ts: Optional[int] = None

    def observe(self, ts: int, value: float) -> List[Anomaly]:
        """Score one point against the rolling baseline, then absorb it.

        Returns the anomalies this point produced (0, 1, or 2 — one
        per detector that fired).
        """
        if self._last_ts is not None and ts < self._last_ts:
            raise ValueError(
                f"{self.name}: out-of-order point {ts} < {self._last_ts}")
        self._last_ts = ts
        anomalies: List[Anomaly] = []
        if len(self.baseline) >= self.min_points:
            mean = self.baseline.mean
            std = self.baseline.std
            z = (value - mean) / max(std, self.std_floor)
            if abs(z) > self.sigma_mult:
                anomalies.append(Anomaly(self.name, ts, value, "zscore",
                                         z, mean, std))
            if mean > 0 and abs(value - mean) >= self.step_min_delta:
                step_pct = (value - mean) / mean * 100.0
                if abs(step_pct) >= self.step_threshold_pct:
                    anomalies.append(Anomaly(self.name, ts, value, "step",
                                             step_pct, mean, std))
        self.baseline.push(value)
        self.points += 1
        return anomalies

    def state(self) -> Dict[str, object]:
        return {
            "points": self.points,
            "baseline_n": len(self.baseline),
            "baseline_mean": round(self.baseline.mean, 3),
            "baseline_std": round(self.baseline.std, 3),
        }


class ObserverSuite:
    """A set of standing observers plus the mass-event trigger.

    Series auto-create on first ingest with the suite's default
    detector parameters; :meth:`add_series` pre-declares a series with
    its own thresholds.  The suite is a registry provider (group
    ``"observers"`` when registered) whose snapshot reports anomaly and
    mass-event counts, per-series state and the recent anomalies.
    """

    def __init__(self, window: int = 30, sigma_mult: float = 4.0,
                 step_threshold_pct: float = 200.0, min_points: int = 7,
                 mass_event_k: int = 2, step_min_delta: float = 0.0) -> None:
        if mass_event_k < 1:
            raise ValueError(f"mass_event_k must be >= 1: {mass_event_k}")
        self._defaults = dict(window=window, sigma_mult=sigma_mult,
                              step_threshold_pct=step_threshold_pct,
                              min_points=min_points,
                              step_min_delta=step_min_delta)
        self.mass_event_k = mass_event_k
        self.observers: Dict[str, SeriesObserver] = {}
        self.anomalies: List[Anomaly] = []
        self.mass_events: List[MassEvent] = []
        #: Distinct significant series per instant (mass-event input).
        self._significant_at: Dict[int, set] = {}

    # -- series management ------------------------------------------------------

    def add_series(self, name: str, **overrides) -> SeriesObserver:
        """Declare a series, overriding the suite's default thresholds."""
        if name in self.observers:
            raise ValueError(f"series {name!r} already declared")
        params = dict(self._defaults)
        params.update(overrides)
        observer = SeriesObserver(name, **params)
        self.observers[name] = observer
        return observer

    def observer(self, name: str) -> SeriesObserver:
        """The series' observer, auto-created with suite defaults."""
        found = self.observers.get(name)
        if found is None:
            found = self.add_series(name)
        return found

    # -- ingestion -------------------------------------------------------------

    def ingest(self, series: str, ts: int, value: float) -> List[Anomaly]:
        """Feed one point; returns (and records) its anomalies."""
        found = self.observer(series).observe(ts, value)
        self.anomalies.extend(found)
        if found:
            significant = self._significant_at.setdefault(ts, set())
            before = len(significant)
            significant.add(series)
            # Fire exactly once per instant, when the k-th series joins.
            if (before < self.mass_event_k
                    and len(significant) >= self.mass_event_k):
                event = MassEvent(ts, tuple(sorted(significant)))
                self.mass_events.append(event)
        return found

    def ingest_series(self, series: str,
                      points: Iterable[Tuple[int, float]]) -> List[Anomaly]:
        """Feed ``(ts, value)`` points (must be time-ordered)."""
        out: List[Anomaly] = []
        for ts, value in points:
            out.extend(self.ingest(series, ts, value))
        return out

    # -- provider protocol -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "anomalies": len(self.anomalies),
            "mass_events": len(self.mass_events),
            "series": {name: obs.state()
                       for name, obs in sorted(self.observers.items())},
            "recent": [a.as_dict() for a in self.anomalies[-20:]],
        }


# ---------------------------------------------------------------------------
# Stream adapters: pipeline / scan output -> daily series
# ---------------------------------------------------------------------------

def daily_counts(timestamps: Iterable[int]) -> List[Tuple[int, int]]:
    """Bucket timestamps into per-day counts, sorted by day.

    Days with zero events between the first and last observed day are
    included — a standing observer must see the quiet days too, or a
    gap would never register as a step change.
    """
    buckets: Dict[int, int] = {}
    for ts in timestamps:
        day = ts - ts % _DAY
        buckets[day] = buckets.get(day, 0) + 1
    if not buckets:
        return []
    first, last = min(buckets), max(buckets)
    return [(day, buckets.get(day, 0))
            for day in range(first, last + _DAY, _DAY)]


def observe_pipeline_result(suite: ObserverSuite, result) -> List[Anomaly]:
    """Feed one pipeline run's output streams into a suite.

    Duck-typed over :class:`~repro.core.records.PipelineResult`:

    * ``registrations`` — CT candidates per day (``ct_seen_at``) — the
      registration-burst stream;
    * ``dark_hosts`` — monitored domains that never resolved, per
      detection day — the dark-host-spike stream;
    * ``confirmed_transients`` — confirmed transients per day.

    Returns every anomaly the run produced (also retained on the
    suite, along with any mass events).
    """
    candidates = result.candidates
    found = suite.ingest_series(
        "registrations",
        daily_counts(c.ct_seen_at for c in candidates.values()))
    dark = [candidates[d].ct_seen_at
            for d, report in result.monitors.items()
            if not report.ever_resolved and d in candidates]
    found.extend(suite.ingest_series("dark_hosts", daily_counts(dark)))
    confirmed = [candidates[d].ct_seen_at
                 for d in result.confirmed_transients if d in candidates]
    found.extend(suite.ingest_series("confirmed_transients",
                                     daily_counts(confirmed)))
    return found


def observe_world(suite: ObserverSuite, world) -> List[Anomaly]:
    """Feed world-level series: NS-infrastructure changes per day.

    Duck-typed over :class:`~repro.workload.scenario.World` (the module
    stays dependency-free): every lifecycle's ``ns_timeline`` entry
    beyond the first is a real nameserver change — the first entry is
    the initial NS set recorded at zone provisioning.  The resulting
    ``ns_changes`` series is what the TTL-decoupled migration scenario
    lights up.
    """
    changes: List[int] = []
    for registry in world.registries:
        for lifecycle in registry.lifecycles():
            first = True
            for ts, _value in lifecycle.ns_timeline.changes():
                if first:
                    first = False
                    continue
                changes.append(ts)
    return suite.ingest_series("ns_changes", daily_counts(changes))


def default_pipeline_suite(**overrides) -> ObserverSuite:
    """The suite the ``observers=`` pipeline hook expects.

    Tuned so the *default* calibrated world stays quiet while a
    registration burst — one day at several times the baseline —
    fires the ``registrations`` z-score observer.  Two departures from
    the generic :class:`ObserverSuite` defaults carry that tuning:
    ``sigma_mult=5.0`` (daily NRD volume has a weekly rhythm whose
    crests reach z ≈ 4 against a 30-day baseline at small scales),
    ``step_min_delta=10`` (percent steps on a near-zero baseline are
    meaningless), and ``std_floor=5`` on the two *sparse* series —
    ``dark_hosts`` and ``confirmed_transients`` are a-handful-a-day
    count streams at reproduction scales, where a jitter of a few
    counts is weather, not an event.
    """
    params = dict(window=30, sigma_mult=5.0, step_threshold_pct=200.0,
                  min_points=7, mass_event_k=2, step_min_delta=10.0)
    params.update(overrides)
    suite = ObserverSuite(**params)
    # ns_changes (observe_world) rides the same floor: a few NS
    # rewirings per day is weather at reproduction scales.
    for sparse in ("dark_hosts", "confirmed_transients", "ns_changes"):
        suite.add_series(sparse, std_floor=5.0)
    return suite


# ---------------------------------------------------------------------------
# Scenario expectations: which detector must each scenario light up?
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioExpectation:
    """What a :func:`default_pipeline_suite` must report for one scenario.

    Keyed by scenario *name* (plain strings, so this module keeps zero
    workload dependencies).  ``must_fire`` lists ``(series, kind)``
    pairs at least one anomaly of which must exist; ``must_quiet``
    lists series that must produce *no* anomaly at all; ``mass_event``
    asserts presence (True) or absence (False) of mass events, or
    neither (None).
    """

    scenario: str
    must_fire: Tuple[Tuple[str, str], ...] = ()
    must_quiet: Tuple[str, ...] = ()
    mass_event: Optional[bool] = None


#: One row per registered scenario (`repro.workload.scenarios`); the
#: scenario-matrix suite and CI job fail when a build stops meeting its
#: row.  ``baseline`` pins the converse: the calibrated world must not
#: trip any detector the adversarial scenarios rely on.
SCENARIO_EXPECTATIONS: Dict[str, ScenarioExpectation] = {
    e.scenario: e for e in (
        ScenarioExpectation(
            "baseline",
            must_quiet=("registrations", "dark_hosts",
                        "confirmed_transients", "ns_changes"),
            mass_event=False),
        ScenarioExpectation(
            "registrar-burst",
            must_fire=(("registrations", "zscore"),),
            must_quiet=("dark_hosts",)),
        ScenarioExpectation(
            "drop-catch-race",
            must_fire=(("dark_hosts", "zscore"),)),
        ScenarioExpectation(
            "ttl-decoupled-updates",
            must_fire=(("ns_changes", "zscore"),),
            must_quiet=("registrations", "dark_hosts")),
        ScenarioExpectation(
            "dynamic-update-hijack",
            must_fire=(("registrations", "zscore"),
                       ("dark_hosts", "zscore")),
            mass_event=True),
        ScenarioExpectation(
            "slow-zone-registry",
            must_fire=(("registrations", "step"),)),
    )
}


def check_expectations(suite: ObserverSuite, scenario: str) -> List[str]:
    """Compare a suite's recorded anomalies against a scenario's row.

    Returns human-readable problem strings (empty = expectations met).
    A scenario with no recorded row is itself a problem — every
    registered scenario must declare what it lights up.
    """
    expectation = SCENARIO_EXPECTATIONS.get(scenario)
    if expectation is None:
        return [f"no observer expectations recorded for {scenario!r}"]
    problems: List[str] = []
    fired = {(a.series, a.kind) for a in suite.anomalies}
    fired_series = {a.series for a in suite.anomalies}
    for series, kind in expectation.must_fire:
        if (series, kind) not in fired:
            problems.append(
                f"{scenario}: expected a {kind} anomaly on {series!r}, "
                "none fired")
    for series in expectation.must_quiet:
        if series in fired_series:
            count = sum(1 for a in suite.anomalies if a.series == series)
            problems.append(
                f"{scenario}: expected {series!r} to stay quiet, "
                f"{count} anomaly(ies) fired")
    if expectation.mass_event is True and not suite.mass_events:
        problems.append(f"{scenario}: expected a mass event, none fired")
    if expectation.mass_event is False and suite.mass_events:
        problems.append(
            f"{scenario}: expected no mass events, "
            f"{len(suite.mass_events)} fired")
    return problems
