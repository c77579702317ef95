"""`ScanEngine` — the bulk active-measurement facade.

The third monitor strategy (after the literal probe loop and the
analytic shortcut): a ZDNS-shaped engine that merges every monitored
domain's 10-min × 48-h probe grid into one time-ordered queue and
drives a worker fleet over it, with per-authority rate control,
retry/backoff, fleet-wide negative-answer dedup, and early termination
once a domain's fate is resolved.

Where the speed comes from — all without changing what is observed:

* one NS-liveness probe per instant is the floor; A/AAAA probes stop
  the moment the report's ``first_a``/``first_aaaa`` are captured
  (the loop keeps asking 288 times for an answer it already has);
* instants where the TLD authority just said NXDOMAIN skip the A/AAAA
  lookups entirely (recursion from that referral cannot answer
  differently);
* a delegation observed *removed* resolves the domain's fate — zone
  lifecycles are one-shot, so every remaining probe would see NXDOMAIN
  and the whole tail of the grid is dropped;
* per-(domain, qtype) Query objects are memoised and the resolver
  cache is bypassed (a 60 s TTL cap cannot survive a 600 s interval);
* the NS-liveness path revalidates against the TLD authority's
  delegation oracle and rebuilds the wire response only when the
  answer actually changed (:meth:`TLDAuthority.ns_liveness`) — the
  zone lookup still runs every probe, so observations are unchanged.

The engine is cooperative and deterministic — no threads; "workers"
are the per-resolver cache/pinning domains, exactly like the paper's
16-worker deployment, and simulated time advances with the queue.

Paper anchor: §3 (the measurement methodology) — 10-minute probes over
48 hours per CT-detected candidate with a 16-worker ZDNS-style fleet;
``docs/scan.md`` walks the architecture.

A property-based test asserts ``ScanEngine`` produces
:class:`~repro.core.records.MonitorReport` objects *identical* to
:class:`~repro.core.monitor.LoopMonitor` under default configuration
(no jitter, no throttle, no NXDOMAIN-streak cutoff); the scan
benchmark measures the throughput multiple at 100 k domains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bus.broker import Broker, TOPIC_OBSERVATIONS
from repro.core.records import MonitorReport
from repro.dnscore import name as dnsname
from repro.dnscore.message import RCode, Response, nxdomain, servfail, timeout
from repro.dnscore.records import RRType
from repro.dnscore.resolver import ResolverPoolMetrics
from repro.errors import ScanError
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.registry.registry import RegistryGroup
from repro.resilience.breaker import BreakerConfig, CircuitBreaker
from repro.resilience.faults import FaultPlan
from repro.resilience.metrics import get_resilience_metrics
from repro.scan.metrics import ScanMetrics
from repro.scan.ratelimit import AuthorityRateLimiter
from repro.scan.scheduler import ProbeEntry, ProbeScheduler
from repro.scan.store import ProbeResultStore
from repro.scan.workers import NegativeAnswerCache, ProbeWorker
from repro.simtime.clock import HOUR, MINUTE

#: How often (in queue pops) the depth histogram samples the queue.
_DEPTH_SAMPLE_EVERY = 64


@dataclass(frozen=True)
class ScanConfig:
    """Tunables of the bulk measurement engine.

    The first four fields mirror :class:`~repro.core.monitor.MonitorConfig`
    (the paper's probing parameters); the rest are scan-specific.  The
    defaults keep the engine *observation-equivalent* to the literal
    probe loop: jitter off, throttle off, NXDOMAIN-streak cutoff off.
    """

    probe_interval: int = 10 * MINUTE
    duration: int = 48 * HOUR
    workers: int = 16
    resolver_cache_ttl: int = 60
    #: Per-authority probe cap in queries per simulated second
    #: (None: unthrottled).
    qps_per_authority: Optional[float] = None
    #: SERVFAIL/TIMEOUT retries per probe instant.
    max_retries: int = 2
    #: First-retry delay in seconds; doubles per attempt (the retry is
    #: due ``retry_backoff * 2 ** attempt`` after the failed probe).
    retry_backoff: int = 5
    #: Max per-domain grid offset in seconds (deterministic; 0 = exact
    #: grid, required for loop equivalence).
    jitter: int = 0
    #: Terminate a never-resolved domain after this many consecutive
    #: NXDOMAIN instants (None: keep probing — the safe default, since
    #: a domain registered mid-window would be missed otherwise).
    terminate_nxdomain_streak: Optional[int] = None
    #: Stop probing a qtype whose host timed out through this many
    #: consecutive fully-retried instants (None: never give up).
    dark_host_suppress_after: Optional[int] = 3
    #: Hard cap on probes sent across the whole run (None: unlimited).
    probe_budget: Optional[int] = None
    #: Deterministic fault plan (``scan.servfail`` / ``scan.timeout``
    #: storms, ``scan.latency`` spikes); a string parses via
    #: :meth:`FaultPlan.parse`.
    fault_plan: Optional[FaultPlan] = None
    #: Per-TLD-authority circuit breaker (None: breakers off — the
    #: loop-equivalent default).
    breaker: Optional[BreakerConfig] = None

    def __post_init__(self) -> None:
        if isinstance(self.fault_plan, str):
            object.__setattr__(self, "fault_plan",
                               FaultPlan.parse(self.fault_plan))
        if self.probe_interval <= 0 or self.duration <= 0:
            raise ScanError("probe interval and duration must be positive")
        if self.workers <= 0:
            raise ScanError(f"worker count must be positive: {self.workers}")
        if self.max_retries < 0:
            raise ScanError(f"max_retries must be >= 0: {self.max_retries}")
        if self.retry_backoff <= 0:
            raise ScanError(f"retry_backoff must be positive: {self.retry_backoff}")
        if self.qps_per_authority is not None and self.qps_per_authority <= 0:
            raise ScanError("qps_per_authority must be positive")
        if not 0 <= self.jitter < self.probe_interval:
            raise ScanError(f"jitter must lie in [0, interval): "
                            f"{self.jitter} vs {self.probe_interval}")
        for name in ("terminate_nxdomain_streak", "dark_host_suppress_after",
                     "probe_budget"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ScanError(f"{name} must be positive, got {value}")

    @classmethod
    def from_monitor(cls, monitor_config, **overrides) -> "ScanConfig":
        """Adopt the paper parameters from a ``MonitorConfig``-shaped
        object (duck-typed to avoid a core → scan import cycle)."""
        params = dict(probe_interval=monitor_config.probe_interval,
                      duration=monitor_config.duration,
                      workers=monitor_config.workers,
                      resolver_cache_ttl=monitor_config.resolver_cache_ttl)
        params.update(overrides)
        return cls(**params)


class _ReportBuilder:
    """Accumulates one domain's observations into a MonitorReport."""

    __slots__ = ("domain", "tld", "start", "end", "interval",
                 "nominal_probes", "last_ns_ok", "ns_sets",
                 "first_a", "first_aaaa", "a_done", "aaaa_done",
                 "nxdomain_streak", "finalized", "kinds", "worker",
                 "last_ns_response")

    def __init__(self, domain: str, tld: str, start: int,
                 interval: int, duration: int, grid_len: int) -> None:
        self.domain = domain
        self.tld = tld
        self.start = start
        self.end = start + duration
        self.interval = interval
        # The report's probe count is the nominal grid budget — what the
        # loop strategy counts — so reports stay identical even when
        # dedup/termination let the engine send far fewer.
        self.nominal_probes = grid_len * 3
        self.last_ns_ok: Optional[int] = None
        self.ns_sets: List = []
        self.first_a: Tuple[str, ...] = ()
        self.first_aaaa: Tuple[str, ...] = ()
        self.a_done = False
        self.aaaa_done = False
        self.nxdomain_streak = 0
        self.finalized = False
        #: Qtypes still needed per grid instant — recomputed only when
        #: an address qtype completes, not on every pop.
        self.kinds: Tuple[RRType, ...] = (RRType.NS, RRType.A, RRType.AAAA)
        self.worker = None  # pinned by the engine at admission
        #: The previous instant's NS response object.  The authority
        #: reuses response objects while the delegation is unchanged,
        #: so an identity hit here skips NS-set extraction entirely.
        self.last_ns_response = None

    def refresh_kinds(self) -> None:
        kinds = [RRType.NS]
        if not self.a_done:
            kinds.append(RRType.A)
        if not self.aaaa_done:
            kinds.append(RRType.AAAA)
        self.kinds = tuple(kinds)

    def build(self) -> MonitorReport:
        return MonitorReport(
            domain=self.domain, monitor_start=self.start,
            monitor_end=self.end, probe_interval=self.interval,
            probes=self.nominal_probes,
            ever_resolved=self.last_ns_ok is not None,
            last_ns_ok=self.last_ns_ok, ns_sets=tuple(self.ns_sets),
            first_a=self.first_a, first_aaaa=self.first_aaaa,
            ns_changed=len(self.ns_sets) > 1)


class ScanEngine:
    """One configured bulk-measurement run over a registry group.

    Usable per-domain (``observe``, the monitor-strategy contract) or
    in bulk (``add_domain`` + ``run`` / ``observe_all``, where the
    shared queue, caches, and rate limiter earn their keep).  With a
    ``broker``, finished reports publish to the observations topic;
    with a ``store``, every probe outcome lands in the columnar sink.
    """

    def __init__(self, registries: RegistryGroup,
                 config: Optional[ScanConfig] = None,
                 broker: Optional[Broker] = None,
                 store: Optional[ProbeResultStore] = None) -> None:
        self.registries = registries
        self.config = config if config is not None else ScanConfig()
        self.broker = broker
        self.store = store
        self.metrics = ScanMetrics()
        self.pool = registries.resolver_pool(
            size=self.config.workers,
            max_cache_ttl=self.config.resolver_cache_ttl)
        # Latest engine wins the process-wide groups (registry
        # semantics); the pool gauges are pull-based, so registering
        # costs nothing on the probe hot path.
        get_registry().register("scan", self.metrics)
        get_registry().register("scan.resolver", ResolverPoolMetrics(self.pool))
        self.scheduler = ProbeScheduler(self.config.probe_interval,
                                        self.config.duration,
                                        jitter=self.config.jitter)
        self.limiter = AuthorityRateLimiter(self.config.qps_per_authority)
        self.negcache = NegativeAnswerCache()
        self.workers = [ProbeWorker(i, resolver, self.negcache, self.metrics)
                        for i, resolver in enumerate(self.pool.resolvers)]
        self.budget_exhausted = False
        self._builders: Dict[str, _ReportBuilder] = {}
        self._reports: Dict[str, MonitorReport] = {}
        self._pops = 0
        # Breakers are keyed per TLD authority and created lazily on
        # first probe.
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._resilience = get_resilience_metrics()
        self._log = get_logger("resilience")

    # -- admission -------------------------------------------------------------

    def add_domain(self, domain: str, start: int) -> None:
        """Schedule one domain's probe grid beginning at ``start``.

        Raises :class:`~repro.errors.ScanError` if the domain is
        already scheduled; reports come back from :meth:`run`.
        """
        domain = dnsname.normalize(domain)
        if domain in self._builders:
            raise ScanError(f"{domain} is already being scanned")
        grid_len = self.scheduler.add_domain(domain, start)
        builder = _ReportBuilder(
            domain, domain.tld, start,
            self.config.probe_interval, self.config.duration, grid_len)
        builder.worker = self.workers[self.pool.worker_index_for(domain)]
        self._builders[domain] = builder
        self.metrics.domains_scheduled.inc()

    # -- monitor-strategy contract ----------------------------------------------

    def observe(self, domain: str, start: int) -> MonitorReport:
        """Scan one domain to completion (the ``make_monitor`` contract).

        Args:
            domain: the domain to monitor (any spelling).
            start: the first probe instant (usually CT detection time).

        Returns:
            The finished :class:`MonitorReport` (memoised per domain).
        """
        domain = dnsname.normalize(domain)
        report = self._reports.get(domain)
        if report is not None:
            return report
        self.add_domain(domain, start)
        self.run()
        return self._reports[domain]

    def observe_all(self, starts: Mapping[str, int]) -> Dict[str, MonitorReport]:
        """Scan a whole batch through the shared queue; the bulk path.

        Args:
            starts: ``{domain: first-probe instant}`` for every domain
                to monitor (already-scheduled domains are not re-added).

        Returns:
            ``{domain (as passed): finished MonitorReport}``.
        """
        for domain, start in starts.items():
            if dnsname.normalize(domain) not in self._builders:
                self.add_domain(domain, start)
        self.run()
        return {d: self._reports[dnsname.normalize(d)] for d in starts}

    # -- the engine loop ---------------------------------------------------------

    def run(self) -> Dict[str, MonitorReport]:
        """Drain the probe queue; returns every finished report.

        A rate-limited instant is acquired *partially*: the limiter
        grants what its bucket holds, the front of the qtype batch runs
        on time, and only the stalled tail re-queues (as single-probe
        entries in the deferred band).  An all-or-nothing acquire would
        deadlock whenever one instant needs more tokens than the bucket
        can ever hold — three qtypes against ``qps=2``.

        Each drain is one ``scan.run`` span (probe and domain counts
        annotated); the loop itself carries no per-probe telemetry
        beyond the existing counters.
        """
        with span("scan.run") as sp:
            reports = self._run_loop()
            sp.annotate(domains=len(reports),
                        probes=int(self.metrics.probes_sent.value))
            return reports

    def _run_loop(self) -> Dict[str, MonitorReport]:
        # Hoisted locals: this loop runs once per probe instant and is
        # exactly what the scan benchmark measures.
        scheduler = self.scheduler
        limiter = self.limiter
        builders = self._builders
        budget = self.config.probe_budget
        suppressed = self.metrics.probes_suppressed
        stalls = self.metrics.rate_limit_stalls
        probe_lag = self.metrics.probe_lag
        pop = scheduler.pop
        # Probes sent are tallied in a local and flushed once: a
        # Counter method call per probe is measurable at millions of
        # probes.  ``base_sent`` keeps multi-run budget math right.
        base_sent = self.metrics.probes_sent.value
        sent = 0
        # How long a stalled probe waits for its next token: deficits
        # are < 1 token, so this equals delay_until() for qps >= 1 and
        # bounds it from above for fractional rates.
        stall_delay = (1 if limiter.qps is None
                       else max(1, math.ceil(1.0 / limiter.qps)))
        plan = self.config.fault_plan
        wants_latency = plan is not None and plan.wants("scan.latency")
        while True:
            entry = pop()
            if entry is None:
                break
            builder = builders[entry.domain]
            if builder.finalized:
                continue
            is_grid = entry.kind is None
            if wants_latency and is_grid and entry.due == entry.nominal:
                # Latency spike: defer the instant's first execution
                # (``due == nominal`` gates re-pops, so a rate-1.0
                # spike cannot livelock the queue).
                spec = plan.fires("scan.latency", entry.domain,
                                  str(entry.nominal), target=builder.tld,
                                  at=entry.nominal)
                if spec is not None and spec.delay > 0:
                    self._resilience.faults_injected.labels(
                        kind="scan.latency").inc()
                    scheduler.defer(entry, entry.due + max(1, int(spec.delay)))
                    continue
            if is_grid:
                kinds = builder.kinds
            else:
                kinds = ((entry.kind,)
                         if self._kind_open(builder, entry.kind) else ())
                if not kinds:
                    continue
            if (budget is not None
                    and base_sent + sent + len(kinds) > budget):
                self.budget_exhausted = True
                break
            needed = len(kinds)
            granted = limiter.acquire_up_to(builder.tld, entry.due, needed)
            if granted < needed:
                stalls.inc()
                if granted == 0:
                    scheduler.defer(entry, entry.due + stall_delay)
                    continue
                for kind in kinds[granted:]:
                    scheduler.schedule_retry(
                        builder.domain, kind, due=entry.due + stall_delay,
                        nominal=entry.nominal, attempt=entry.attempt,
                        grid_index=entry.grid_index, band=1)
                kinds = kinds[:granted]
            self._pops += 1
            if self._pops % _DEPTH_SAMPLE_EVERY == 0:
                self.metrics.queue_depth.observe(len(scheduler) + 1)
            if is_grid:
                # Executed instants only — a stalled entry re-pops many
                # times but its instant (and its suppressed A/AAAA)
                # happens once.
                probe_lag.observe(entry.due - entry.nominal)
                if needed < 3:
                    suppressed.inc(3 - needed)
            worker = builder.worker
            for kind in kinds:
                sent += self._probe(builder, worker, kind, entry)
                if builder.finalized:
                    break
            if is_grid and not builder.finalized:
                if not scheduler.advance_entry(entry):
                    self._finalize(builder)
        self.metrics.probes_sent.inc(sent)
        for worker in self.workers:
            worker.flush_stats()
        for builder in self._builders.values():
            self._finalize(builder)
        return dict(self._reports)

    # -- per-probe handling -------------------------------------------------------

    def _kind_open(self, builder: _ReportBuilder, kind: RRType) -> bool:
        if kind is RRType.A:
            return not builder.a_done
        if kind is RRType.AAAA:
            return not builder.aaaa_done
        return True

    def _probe(self, builder: _ReportBuilder, worker: ProbeWorker,
               kind: RRType, entry: ProbeEntry) -> int:
        """Execute one probe; returns how many queries were sent (0/1)."""
        now = entry.due
        domain = builder.domain
        if kind is not RRType.NS and self.negcache.covers(domain, now):
            # This instant's authority verdict was NXDOMAIN: recursion
            # cannot answer differently, so skip the lookup outright.
            self.negcache.hits += 1
            self.metrics.negcache_hits.inc()
            if self.store is not None:
                self.store.record(domain, builder.tld, now, entry.nominal,
                                  nxdomain(worker.query_for(domain, kind),
                                           served_at=now),
                                  worker.index, entry.attempt, negcache=True)
            return 0
        breaker = self._breaker_for(builder.tld)
        if breaker is not None and not breaker.allow(now):
            # Open circuit: refuse the probe outright and synthesize a
            # timeout, so the ordinary retry path reprobes after
            # backoff — by which time the breaker may be half-open.
            self._resilience.breaker_skips.inc()
            response = timeout(worker.query_for(domain, kind), served_at=now)
            sent = 0
        else:
            response = self._inject_or_probe(builder, worker, kind, now,
                                             entry)
            if breaker is not None:
                if response.rcode in (RCode.SERVFAIL, RCode.TIMEOUT):
                    breaker.record_failure(now)
                else:
                    breaker.record_success(now)
            sent = 1
        if self.store is not None:
            self.store.record(domain, builder.tld, now, entry.nominal,
                              response, worker.index, entry.attempt,
                              negcache=False)
        if kind is RRType.NS:
            self._handle_ns(builder, response, now, entry)
        else:
            self._handle_addr(builder, kind, response, entry)
        return sent

    def _inject_or_probe(self, builder: _ReportBuilder, worker: ProbeWorker,
                         kind: RRType, now: int,
                         entry: ProbeEntry) -> Response:
        """Run the probe — unless the fault plan says the authority is
        melting, in which case synthesize the failure it would see."""
        plan = self.config.fault_plan
        if plan is not None:
            key = (builder.domain, kind.name, str(entry.nominal))
            for fault, synthesize in (("scan.servfail", servfail),
                                      ("scan.timeout", timeout)):
                if plan.wants(fault) and plan.fires(
                        fault, *key, target=builder.tld,
                        attempt=entry.attempt, at=now):
                    self._resilience.faults_injected.labels(kind=fault).inc()
                    return synthesize(worker.query_for(builder.domain, kind),
                                      served_at=now)
        return worker.probe(builder.domain, kind, now)

    def _breaker_for(self, tld: str) -> Optional[CircuitBreaker]:
        if self.config.breaker is None:
            return None
        breaker = self._breakers.get(tld)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker, name=tld)
            transitions = self._resilience.breaker_transitions
            log = self._log

            def on_transition(old: str, new: str, tld: str = tld) -> None:
                transitions.labels(transition=f"{old}->{new}").inc()
                log.warning(f"scan breaker {tld}: {old} -> {new}",
                            authority=tld, transition=f"{old}->{new}")

            breaker.on_transition = on_transition
            self._breakers[tld] = breaker
        return breaker

    def _handle_ns(self, builder: _ReportBuilder, response: Response,
                   now: int, entry: ProbeEntry) -> None:
        if response.rcode is RCode.NOERROR and response.records:
            builder.last_ns_ok = now
            builder.nxdomain_streak = 0
            if response is not builder.last_ns_response:
                # A new response object means the delegation may have
                # changed; an identity hit means it cannot have.
                builder.last_ns_response = response
                observed = frozenset(r.rdata for r in response.records)
                if not builder.ns_sets or builder.ns_sets[-1] != observed:
                    builder.ns_sets.append(observed)
        elif response.rcode is RCode.NXDOMAIN:
            builder.nxdomain_streak += 1
            if builder.last_ns_ok is not None:
                # Delegation observed, now gone: zone lifecycles are
                # one-shot, so every remaining probe would see NXDOMAIN.
                self._terminate(builder)
            elif (self.config.terminate_nxdomain_streak is not None
                  and builder.nxdomain_streak
                  >= self.config.terminate_nxdomain_streak):
                self._terminate(builder)
        elif response.rcode in (RCode.SERVFAIL, RCode.TIMEOUT):
            self._maybe_retry(builder, RRType.NS, entry)

    def _handle_addr(self, builder: _ReportBuilder, kind: RRType,
                     response: Response, entry: ProbeEntry) -> None:
        if response.is_positive:
            rdatas = tuple(sorted(response.rdatas()))
            if kind is RRType.A:
                builder.first_a = rdatas
                builder.a_done = True
            else:
                builder.first_aaaa = rdatas
                builder.aaaa_done = True
            builder.refresh_kinds()
            self.negcache.note_answered(builder.domain, kind)
        elif response.rcode in (RCode.SERVFAIL, RCode.TIMEOUT):
            self._maybe_retry(builder, kind, entry)
        elif response.rcode is RCode.NOERROR:
            # NODATA: the host answered, it just has no records yet.
            self.negcache.note_answered(builder.domain, kind)

    def _maybe_retry(self, builder: _ReportBuilder, kind: RRType,
                     entry: ProbeEntry) -> None:
        if entry.attempt < self.config.max_retries:
            # The final grid instant finalises the domain as soon as its
            # probes return, which drops any retry queued behind it, so
            # only earlier instants' retries are queued and counted.
            if entry.grid_index + 1 < entry.state.grid_len:
                self.metrics.retries.inc()
                self.scheduler.schedule_retry(
                    builder.domain, kind,
                    due=entry.due + self.config.retry_backoff * 2 ** entry.attempt,
                    nominal=entry.nominal, attempt=entry.attempt + 1,
                    grid_index=entry.grid_index)
            return
        # Retry chain exhausted for this instant.
        if kind is RRType.NS or self.config.dark_host_suppress_after is None:
            return
        streak = self.negcache.note_dark(builder.domain, kind)
        if streak >= self.config.dark_host_suppress_after:
            # The host has been dark for enough consecutive instants;
            # stop burning probes on it (first_a/first_aaaa stay empty,
            # exactly what the loop would report).
            if kind is RRType.A:
                builder.a_done = True
            else:
                builder.aaaa_done = True
            builder.refresh_kinds()

    # -- lifecycle ----------------------------------------------------------------

    def _terminate(self, builder: _ReportBuilder) -> None:
        self.metrics.terminated_early.inc()
        self._finalize(builder)

    def _finalize(self, builder: _ReportBuilder) -> None:
        if builder.finalized:
            return
        builder.finalized = True
        self.scheduler.terminate(builder.domain)
        report = builder.build()
        self._reports[builder.domain] = report
        self.metrics.domains_completed.inc()
        if self.broker is not None:
            self.broker.produce(TOPIC_OBSERVATIONS, builder.domain, report,
                                builder.start)

    # -- observability -------------------------------------------------------------

    @property
    def reports(self) -> Dict[str, MonitorReport]:
        """Finished reports so far, keyed by canonical domain."""
        return dict(self._reports)

    def snapshot(self) -> Dict[str, object]:
        """Engine + fleet metrics, JSON-ready."""
        snap = self.metrics.snapshot()
        snap["resolver"] = self.pool.aggregate_stats().snapshot()
        snap["qps_limit"] = self.config.qps_per_authority
        snap["authority_peak_qps"] = self.limiter.max_sent_per_second()
        snap["queue"] = {"pending": len(self.scheduler),
                         "domains": self.scheduler.domain_count}
        snap["budget_exhausted"] = self.budget_exhausted
        if self._breakers:
            snap["breakers"] = {tld: breaker.snapshot()
                                for tld, breaker
                                in sorted(self._breakers.items())}
        if self.store is not None:
            snap["store"] = self.store.summary()
        return snap
