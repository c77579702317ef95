"""Scenario builder: from calibrated targets to a populated world.

``build_world(ScenarioConfig(...))`` constructs every substrate the
paper's deployment touched — registries with live provisioning, CAs
logging precerts to CT, the snapshot archive, DZDB history, blocklists,
the NOD feed, and a message broker — populated by three months of
synthetic registration activity whose statistics are calibrated to the
paper's tables.  The DarkDNS pipeline (:mod:`repro.core`) then measures
that world exactly as the paper measured the Internet.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.bus.broker import Broker
from repro.ct.ca import CA_PROFILES, CertificateAuthority, ca_index_sampler
from repro.ct.certstream import CertstreamFeed
from repro.ct.ctlog import CTLog
from repro.czds.archive import SnapshotArchive
from repro.czds.dzdb import DZDB
from repro.dnscore.interned import configure_interner
from repro.errors import (
    ConfigError,
    ResilienceError,
    ValidationError,
    WorkerCrashError,
)
from repro.heap import gc_paused
from repro.intel.blocklist import BlocklistPanel
from repro.intel.labels import GroundTruth
from repro.intel.nod import NODFeed
from repro.obs.log import get_logger
from repro.obs.profiler import SamplingProfiler, active as profiler_active
from repro.obs.progress import build_progress
from repro.obs.spans import Span, span, tracer
from repro.registry.lifecycle import DomainLifecycle, RemovalReason
from repro.registry.policy import DEFAULT_POLICIES, policy_for
from repro.registry.registrar import TakedownModel
from repro.registry.registry import Registry, RegistryGroup, lifecycle_rows
from repro.resilience.faults import FaultPlan
from repro.resilience.metrics import get_resilience_metrics
from repro.simtime.clock import DAY, HOUR, MINUTE, PAPER_WINDOW, Window, day_floor
from repro.simtime.rng import RngStream, StreamBank, WeightedSampler
from repro.workload import calibration as cal
from repro.workload.actors import (
    ActorProfile,
    BENIGN_PROFILES,
    FAST_MALICIOUS_PROFILES,
    SLOW_MALICIOUS_PROFILES,
    pick_profile,
    profile_sampler,
)
from repro.workload.calibration import CCTLDTargets, TLDTargets, month_window
from repro.workload.campaign import (
    Campaign,
    CertPlan,
    GhostCertPlan,
    NSChangePlan,
    RegistrationPlan,
    plan_campaign,
)
from repro.workload.namegen import (
    NameGenerator,
    month_scoped,
    subdomain_names,
)
from repro.workload.scenarios import (
    MonthPlanContext,
    Scenario,
    get_scenario,
)

#: Snapshot-collection slack past the analysis window (paper §4.2).
TRANSIENT_SLACK = 3 * DAY


@dataclass
class ScenarioConfig:
    """Knobs of a scenario run.

    ``scale`` multiplies every population in the paper's tables; the
    default 1/500 builds a ≈35 k-registration world in a few seconds.
    Benchmarks use 1/200 for tighter statistics.
    """

    seed: int = 7
    scale: float = 1 / 500
    window: Window = PAPER_WINDOW
    #: Restrict to a subset of gTLDs (None: all calibrated TLDs).
    tlds: Optional[Sequence[str]] = None
    include_cctld: bool = True
    cctld: CCTLDTargets = field(default_factory=CCTLDTargets)
    #: Ablation B: disable DV-token ghost certificates.
    ghost_certs: bool = True
    #: Disable held (serverHold) old registrations.
    held_domains: bool = True
    #: Scale override for the ccTLD ground-truth population (None:
    #: follow ``scale``).  The §4.4b bench uses 1.0 — the paper's .nl
    #: counts are small in absolute terms.
    cctld_scale: Optional[float] = None
    #: Snapshot cadence for the archive (Ablation A sweeps this).
    snapshot_interval: int = DAY
    #: Worker processes for per-``(tld, month)`` world generation:
    #: 1 = serial (in-process), N > 1 = a pool of N, 0 = one per CPU
    #: core.  Any value produces the bit-identical world
    #: (``world_fingerprint`` is invariant — see
    #: ``docs/determinism.md``); this knob only trades processes for
    #: wall-clock.
    parallel: int = 1
    #: Deterministic fault plan (``--fault-plan``); a string parses via
    #: :meth:`FaultPlan.parse`.  The supervised parallel build survives
    #: injected ``worker.crash`` faults and still produces the
    #: bit-identical world (docs/resilience.md).
    fault_plan: Optional[FaultPlan] = None
    #: Registered scenario plugin driving this build (``--scenario``);
    #: None builds the plain calibrated world — byte-identical to
    #: ``"baseline"`` (the identity plugin).  See
    #: :mod:`repro.workload.scenarios` / ``docs/scenarios.md``.
    scenario: Optional[str] = None
    #: Knob overrides for the scenario plugin (``name:knob=value`` CLI
    #: specs land here); unknown knobs fail validation immediately.
    scenario_knobs: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 < self.scale <= 1:
            raise ConfigError("scale must be in (0, 1]")
        if self.parallel < 0:
            raise ConfigError("parallel must be >= 0 (0 = one per core)")
        if isinstance(self.fault_plan, str):
            self.fault_plan = FaultPlan.parse(self.fault_plan)
        if self.scenario is not None:
            # Resolves name + knob names now, so a bad --scenario spec
            # fails before any build work (uniform exit-2 at the CLI).
            get_scenario(self.scenario, self.scenario_knobs)

    def plugin(self) -> Optional[Scenario]:
        """The configured scenario plugin instance (None: plain build)."""
        if self.scenario is None:
            return None
        return get_scenario(self.scenario, self.scenario_knobs)


@dataclass
class World:
    """Everything a pipeline run or analysis needs, fully wired."""

    config: ScenarioConfig
    window: Window
    registries: RegistryGroup
    archive: SnapshotArchive
    dzdb: DZDB
    logs: List[CTLog]
    cas: List[CertificateAuthority]
    certstream: CertstreamFeed
    blocklists: BlocklistPanel
    nod: NODFeed
    broker: Broker
    ground_truth: GroundTruth
    targets: Dict[str, TLDTargets]
    cctld_tld: Optional[str]
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def gtlds(self) -> List[str]:
        return sorted(self.targets)

    def domain_exists(self, domain: str, ts: int) -> bool:
        """The CA's existence oracle: does the delegation resolve?"""
        lifecycle = self.registries.find_lifecycle(domain)
        return lifecycle is not None and lifecycle.in_zone_at(ts)


# ---------------------------------------------------------------------------
# Plan generation
# ---------------------------------------------------------------------------

_FAST_TAKEDOWN = TakedownModel()


def _spread_times(rng: RngStream, window: Window, count: int) -> List[int]:
    """Registration instants across a window with a weekly rhythm.

    Weekends carry ≈80 % of weekday volume (registration activity is
    business-driven), and times spread uniformly within the day.
    """
    days = list(window.days())
    if not days:
        days = [window.start]
    weights = []
    for day in days:
        weekday = (day // DAY + 4) % 7  # epoch day 0 was a Thursday
        weights.append(0.8 if weekday in (5, 6) else 1.0)
    day_sampler = WeightedSampler(days, weights)
    times = [day_sampler.pick(rng) + rng.randrange(DAY) for _ in range(count)]
    times.sort()
    return times


def _sample_fast_lifetime(rng: RngStream, median: int) -> int:
    """Fast-takedown delay: the Figure 2 lifetime branch."""
    return int(rng.truncated(
        lambda: rng.lognormal_from_median(median, 0.85),
        low=5 * MINUTE, high=DAY - 30 * MINUTE))


def _sample_slow_removal(rng: RngStream) -> int:
    return int(rng.truncated(
        lambda: rng.lognormal_from_median(12 * DAY, 0.9),
        low=DAY, high=80 * DAY))


def _cert_plan(rng: RngStream, profile: ActorProfile, domain: str,
               early_prob: float) -> Optional[CertPlan]:
    """Early / late / no certificate decision for an ordinary NRD."""
    p_early = min(0.98, early_prob * profile.cert.affinity)
    if rng.bernoulli(p_early):
        delay = profile.cert.sample_delay(rng)
        sans: Tuple[str, ...] = ()
        if rng.bernoulli(profile.san_rich_prob):
            sans = tuple(subdomain_names(rng, domain, rng.randint(1, 4)))
        return CertPlan(delay_after_publish=delay, extra_sans=sans)
    if rng.bernoulli(cal.LATE_CERT_SHARE):
        # Late certificate: arrives after the zone snapshot already
        # lists the domain, so step 1 filters it (it is not a candidate).
        delay = int(rng.uniform(1.5 * DAY, 25 * DAY))
        return CertPlan(delay_after_publish=delay)
    return None


def _decorate_plan(plan: RegistrationPlan, rng: RngStream,
                   early_prob: float) -> None:
    """Attach cert/NS-change/lameness decisions to a planned NRD."""
    plan.cert = _cert_plan(rng, plan.profile, plan.domain, early_prob)
    if rng.bernoulli(cal.NS_CHANGE_PROB):
        new_provider = plan.profile.dns_mix.pick(rng)
        if new_provider.name == plan.dns_provider.name:
            new_provider = plan.profile.dns_mix.pick(rng)
        plan.ns_change = NSChangePlan(
            delay_after_publish=int(rng.uniform(1 * HOUR, 20 * HOUR)),
            new_dns_provider=new_provider)
    plan.lame = rng.bernoulli(cal.LAME_PROB)


def _plan_month_for_tld(config: ScenarioConfig, targets: TLDTargets,
                        month: str, bank: StreamBank,
                        namegen: NameGenerator
                        ) -> Tuple[List[RegistrationPlan], List[GhostCertPlan]]:
    rng = bank.stream("gen", targets.tld, month)
    window = month_window(month)
    early_prob = targets.early_cert_prob()
    plans: List[RegistrationPlan] = []

    # Loop-local aliases: one bound-method lookup instead of one per
    # draw.  The inlined ``rng_random() < p`` comparisons replace
    # ``rng.bernoulli(p)`` for calibration constants that are fixed in
    # (0, 1), where both consume exactly one draw.
    rng_random = rng.random
    benign = profile_sampler(BENIGN_PROFILES)
    slow_malicious = profile_sampler(SLOW_MALICIOUS_PROFILES)
    fast_malicious = profile_sampler(FAST_MALICIOUS_PROFILES)

    # --- ordinary zone-NRD volume -------------------------------------------
    n_nrd = targets.monthly_nrd.get(month, 0)
    tld = targets.tld
    for ts in _spread_times(rng, window, n_nrd):
        if rng_random() < cal.DELETED_SHARE_OF_NRD:
            if rng_random() < cal.EARLY_REMOVED_MALICIOUS_SHARE:
                profile = slow_malicious.pick(rng)
                removal = _sample_slow_removal(rng)
            else:
                profile = benign.pick(rng)
                removal = int(rng.uniform(2 * DAY, 30 * DAY))
        else:
            profile = benign.pick(rng)
            removal = None
        plan = RegistrationPlan(
            domain=namegen.by_style(profile.name_style, tld),
            tld=tld, created_at=ts, profile=profile,
            registrar=profile.registrar_mix.pick(rng),
            dns_provider=profile.dns_mix.pick(rng),
            web_provider=profile.web_mix.pick(rng),
            removal_delay=removal)
        _decorate_plan(plan, rng, early_prob)
        plans.append(plan)

    # --- fast-takedown (transient-class) volume ---------------------------------
    n_fast = targets.fast_takedown_count(month)
    n_campaign = int(round(n_fast * cal.CAMPAIGN_FRACTION))
    n_single = n_fast - n_campaign
    fast_plans: List[RegistrationPlan] = []
    campaign_seq = 0
    while n_campaign > 0:
        size = min(n_campaign, rng.randint(4, 16))
        profile = fast_malicious.pick(rng)
        start = window.start + rng.randrange(max(1, window.duration - HOUR))
        campaign = Campaign(
            campaign_id=f"{tld}-{month}-c{campaign_seq}",
            profile=profile, tld=tld, start_at=start, size=size)
        fast_plans.extend(plan_campaign(campaign, namegen, rng))
        n_campaign -= size
        campaign_seq += 1
    for ts in _spread_times(rng, window, n_single):
        profile = fast_malicious.pick(rng)
        fast_plans.append(RegistrationPlan(
            domain=namegen.by_style(profile.name_style, tld),
            tld=tld, created_at=ts, profile=profile,
            registrar=profile.registrar_mix.pick(rng),
            dns_provider=profile.dns_mix.pick(rng),
            web_provider=profile.web_mix.pick(rng)))
    for plan in fast_plans:
        plan.fast_takedown = True
        plan.has_history = rng_random() < cal.FAST_DOMAIN_HISTORY_PROB
        plan.removal_delay = _sample_fast_lifetime(rng, _FAST_TAKEDOWN.fast_median)
        if rng_random() < cal.TRANSIENT_CERT_COVERAGE:
            delay = plan.profile.cert.sample_delay(rng)
            plan.cert = CertPlan(delay_after_publish=delay)
        plan.lame = rng.bernoulli(cal.LAME_PROB)
    plans.extend(fast_plans)

    # --- ghost certificates (DV-token reuse, cause iii) ---------------------------
    ghosts: List[GhostCertPlan] = []
    if config.ghost_certs:
        ghost_gen = month_scoped(rng.child("ghostnames"),
                                 cal.month_index(month), kind="gh")
        for _ in range(targets.ghost_count(month)):
            requested_at = window.start + rng.randrange(window.duration)
            token_age = int(rng.uniform(30 * DAY, 390 * DAY))
            validated_at = requested_at - token_age
            ghosts.append(GhostCertPlan(
                domain=ghost_gen.by_style(
                    rng.choice(["dga", "typosquat"]), targets.tld),
                tld=targets.tld, requested_at=requested_at,
                validated_at=validated_at,
                first_seen=validated_at - int(rng.uniform(0, 60 * DAY)),
                last_seen=validated_at + int(rng.uniform(5 * DAY, 200 * DAY)),
                in_dzdb=rng.bernoulli(0.98)))

    # --- scenario plugin hook ----------------------------------------------------
    # Runs identically in the serial build and in every pool worker
    # (this function is shard code), over streams the base build never
    # touches — so scenario worlds inherit the jobs=1 ≡ jobs=N proof,
    # and the "baseline" identity plugin reproduces scenario=None.
    plugin = config.plugin()
    if plugin is not None:
        plugin.transform_month_plan(MonthPlanContext(
            config=config, targets=targets, month=month, window=window,
            rng=bank.stream("scenario", targets.tld, month),
            namegen=month_scoped(bank.stream("scnames", targets.tld, month),
                                 cal.month_index(month), kind="sc"),
            plans=plans, ghosts=ghosts))
    return plans, ghosts


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------

def _execute_registration(plan: RegistrationPlan, registry: Registry,
                          rng: RngStream) -> DomainLifecycle:
    ns_hosts = plan.dns_provider.nameservers_for(plan.domain)
    a_addrs = (plan.web_provider.address_for(plan.domain),)
    aaaa_addrs = ((plan.web_provider.ipv6_for(plan.domain),)
                  if rng.bernoulli(0.7) else ())
    lifecycle = registry.register(
        plan.domain, plan.created_at, plan.registrar.name,
        ns_hosts=ns_hosts, a_addrs=a_addrs, aaaa_addrs=aaaa_addrs,
        dns_provider=plan.dns_provider.name,
        web_provider=plan.web_provider.name,
        is_malicious=plan.profile.is_malicious,
        abuse_kind=plan.profile.abuse_kind,
        actor=plan.profile.name, campaign=plan.campaign_id, lame=plan.lame)
    removed_at = plan.removed_at
    if removed_at is not None:
        was_fast = plan.fast_takedown
        reason = (_FAST_TAKEDOWN.sample_reason(rng, was_fast)
                  if plan.profile.is_malicious
                  else RemovalReason.RIGHT_OF_CANCELLATION)
        registry.schedule_removal(plan.domain, removed_at, reason)
    if plan.ns_change is not None and lifecycle.zone_added_at is not None:
        change_at = lifecycle.zone_added_at + plan.ns_change.delay_after_publish
        if removed_at is None or change_at < removed_at:
            provider = plan.ns_change.new_dns_provider
            registry.change_nameservers(
                plan.domain, change_at,
                provider.nameservers_for(plan.domain),
                dns_provider=provider.name)
    return lifecycle


# ---------------------------------------------------------------------------
# Per-(tld, month) shard population (shared by the serial and
# multi-core builds)
# ---------------------------------------------------------------------------

#: A build shard: one gTLD-month of generation work.
ShardKey = Tuple[str, str]

#: Builder statistics accumulated during generation (merged additively
#: across per-shard results, so every key must be a plain counter).
_STAT_KEYS: Tuple[str, ...] = (
    "registrations", "fast_takedowns", "ghost_certs", "held_domains",
    "cert_requests", "cert_rejections", "baseline",
)

#: Market-share sampler over CA *indices* — one ``random()`` draw per
#: pick, draw-identical to sampling the CA objects, but the result (an
#: int) crosses process boundaries for free.
_CA_INDICES = ca_index_sampler()

#: A certificate request gathered during generation:
#: ``(request_at, domain, extra_sans | None, pinned_ca_index | None)``.
CertEvent = Tuple[int, str, Optional[Tuple[str, ...]], Optional[int]]

#: A ghost certificate or held domain reusing a cached DV token:
#: ``(pinned_ca_index | None, domain, validated_at, request_at)``.
Reuse = Tuple[Optional[int], str, int, int]

#: One built shard as it crosses the process boundary: ``(lifecycle
#: rows, dirty zone ticks, DZDB rows, token reuses, cert events,
#: counters)``.
ShardArrays = Tuple[List[Tuple], Tuple[int, ...], List[Tuple],
                    List[Reuse], List[CertEvent], Dict[str, int]]


def shard_estimates(config: ScenarioConfig,
                    targets: Dict[str, TLDTargets]) -> Dict[ShardKey, int]:
    """Registration-count estimate per ``(tld, month)`` build shard.

    Pure function of the calibrated targets — ordinary NRDs,
    fast-takedown volume, ghost/held populations, plus the baseline
    population that rides in each TLD's first-month shard.  This is
    the LPT scheduling weight (:func:`lpt_order`): it need not be
    exact, only rank-faithful, so the biggest shards start first.
    """
    estimates: Dict[ShardKey, int] = {}
    for tld, tld_targets in targets.items():
        for index, month in enumerate(cal.MONTH_KEYS):
            n = tld_targets.monthly_nrd.get(month, 0)
            n += tld_targets.fast_takedown_count(month)
            if config.ghost_certs:
                n += tld_targets.ghost_count(month)
            if config.held_domains:
                n += tld_targets.held_count(month)
            if index == 0:
                n += int(round(tld_targets.total_nrd
                               * cal.BASELINE_FRACTION))
            estimates[(tld, month)] = n
    return estimates


def lpt_order(estimates: Dict[ShardKey, int]) -> List[ShardKey]:
    """Longest-processing-time submission order over shard estimates.

    Largest estimate first; ties break on the shard key so the order —
    and therefore worker/pid arrival patterns in telemetry — is
    deterministic for a given target set.  Feeding a work-stealing
    pool in this order *is* LPT scheduling: each free worker takes the
    largest remaining shard.
    """
    return sorted(estimates, key=lambda key: (-estimates[key], key))


def _populate_shard(config: ScenarioConfig, tld_targets: TLDTargets,
                    month: str, bank: StreamBank, registry: Registry,
                    dzdb: DZDB, reuses: List[Reuse],
                    cert_events: List[CertEvent],
                    stats: Dict[str, int]) -> None:
    """Generate one ``(tld, month)`` shard onto the substrates.

    Monthly NRD + fast-takedown plans (with execution against
    ``registry``), the month's ghost-certificate DV tokens and held
    domains, and — in the TLD's *first-month* shard only — the
    pre-window baseline zone population.  All randomness comes from
    ``(tld, month)``-scoped streams of ``bank`` (name generation,
    plan generation, execution, held domains).  Ghost certificates and
    held domains go to ``reuses`` with their CA still undrawn unless
    pinned: :func:`_settle_reuses` draws it later, in canonical shard
    order, so the same code runs in worker processes.
    """
    tld = tld_targets.tld
    month_i = cal.month_index(month)

    if month_i == 0:
        # Baseline zone population (pre-window, establishes snapshot 0)
        # rides in the first-month shard; its streams stay TLD-scoped
        # because exactly one shard ever touches them.
        n_base = int(round(tld_targets.total_nrd * cal.BASELINE_FRACTION))
        base_gen = NameGenerator(bank.stream("names", tld, "base"),
                                 namespace="b-")
        base_rng = bank.stream("gen", tld, "base")
        for _ in range(n_base):
            profile = pick_profile(base_rng, BENIGN_PROFILES)
            created = config.window.start - int(
                base_rng.uniform(5 * DAY, 300 * DAY))
            domain = base_gen.by_style(profile.name_style, tld)
            registry.register(
                domain, created, profile.registrar_mix.pick(base_rng).name,
                ns_hosts=profile.dns_mix.pick(base_rng).nameservers_for(domain),
                a_addrs=("198.18.63.1",), actor=profile.name)
            dzdb.observe(domain, created + DAY)
            stats["baseline"] += 1

    namegen = month_scoped(bank.stream("names", tld, month), month_i)
    exec_rng = bank.stream("exec", tld, month)
    plans, ghosts = _plan_month_for_tld(
        config, tld_targets, month, bank, namegen)
    for plan in plans:
        lifecycle = _execute_registration(plan, registry, exec_rng)
        stats["registrations"] += 1
        if plan.fast_takedown:
            stats["fast_takedowns"] += 1
        if plan.has_history:
            # Re-registered dropped name: it carries zone-file
            # history, which is what DZDB sees for §4.2.
            dropped = plan.created_at - int(
                exec_rng.uniform(60 * DAY, 500 * DAY))
            dzdb.add_interval(
                plan.domain,
                dropped - int(exec_rng.uniform(30 * DAY, 300 * DAY)),
                dropped)
        if plan.cert is not None and lifecycle.zone_added_at is not None:
            request_at = lifecycle.zone_added_at + plan.cert.delay_after_publish
            cert_events.append((request_at, plan.domain,
                                plan.cert.extra_sans or None, None))
    for ghost in ghosts:
        if ghost.in_dzdb:
            dzdb.add_interval(ghost.domain, ghost.first_seen,
                              ghost.last_seen)
        reuses.append((ghost.ca_index, ghost.domain, ghost.validated_at,
                       ghost.requested_at))
        stats["ghost_certs"] += 1

    # Held (serverHold) domains: old registrations that went dark
    # before the window but still hold valid DV tokens.  Split by
    # month so every shard's held population draws from its own
    # streams (the counts are per-month in calibration already).
    if config.held_domains:
        held_gen = month_scoped(bank.stream("names", tld, month, "held"),
                                month_i, kind="h")
        held_rng = bank.stream("gen", tld, month, "held")
        for _ in range(tld_targets.held_count(month)):
            profile = pick_profile(held_rng, BENIGN_PROFILES)
            created = config.window.start - int(
                held_rng.uniform(60 * DAY, 350 * DAY))
            domain = held_gen.by_style(profile.name_style, tld)
            provider = profile.dns_mix.pick(held_rng)
            registry.register(
                domain, created, profile.registrar_mix.pick(held_rng).name,
                ns_hosts=provider.nameservers_for(domain),
                a_addrs=("198.18.63.2",), dns_provider=provider.name,
                actor=profile.name)
            hold_at = config.window.start - int(
                held_rng.uniform(5 * DAY, 50 * DAY))
            registry.place_hold(domain, max(hold_at, created + DAY))
            dzdb.add_interval(domain, created + DAY, hold_at)
            validated_at = max(created + 2 * DAY, hold_at - 300 * DAY)
            request_at = config.window.start + held_rng.randrange(
                config.window.duration)
            reuses.append((None, domain, validated_at, request_at))
            stats["held_domains"] += 1


def _settle_reuses(reuses: List[Reuse], capick: RngStream,
                   cas: Sequence[CertificateAuthority],
                   cert_events: List[CertEvent]) -> None:
    """Pin each reuse's CA, seed its DV token, and queue its request.

    An unpinned reuse draws its CA from ``capick``, the one stream
    shared across shards, so callers settle shards in canonical
    ``(tld, month)`` order: the serial build after each shard, the
    multi-core build in its canonical end pass.
    """
    for pinned, domain, validated_at, request_at in reuses:
        ca_index = pinned if pinned is not None else _CA_INDICES.pick(capick)
        cas[ca_index].seed_token(domain, validated_at)
        cert_events.append((request_at, domain, None, ca_index))


# ---------------------------------------------------------------------------
# Multi-core build: per-(tld, month) worker shards + whole-shard merge
# ---------------------------------------------------------------------------


def shard_keys(targets: Dict[str, TLDTargets]) -> List[ShardKey]:
    """Every ``(tld, month)`` build shard in canonical order.

    Canonical order — sorted TLDs, months chronological — is the order
    the serial build populates shards in, and the order scenario-global
    merge results (shared-stream CA picks included) are applied in.
    """
    return [(tld, month)
            for tld in sorted(targets) for month in cal.MONTH_KEYS]


def shard_label(key: ShardKey) -> str:
    """Display/fault-target form of a shard key (``com:2023-11``)."""
    return f"{key[0]}:{key[1]}"


def _build_shard_arrays(config: ScenarioConfig, tld_targets: TLDTargets,
                        month: str) -> ShardArrays:
    """Build one shard against private substrates; return compact arrays.

    The process-agnostic shard core: reconstructs the scenario's
    stream bank from the master seed, populates a private
    registry/DZDB, and returns everything as picklable arrays —
    registration rows, dirty zone ticks, DZDB intervals, token reuses
    (CA unpicked unless pinned), certificate-request events, and
    counters.  No lifecycle, CA, or timeline object crosses the
    process boundary.
    The arrays depend only on the config and the shard, so a rebuilt
    shard returns the identical result.

    Both the pool worker (:func:`_build_shard_worker`) and the
    supervisor's in-process rebuild of a failed shard call this — the
    rebuild must NOT run the worker wrapper, whose tracer reset would
    wipe the parent's live spans.
    """
    bank = StreamBank(config.seed)
    registry = Registry(policy_for(tld_targets.tld))
    dzdb = DZDB()
    reuses: List[Reuse] = []
    cert_events: List[CertEvent] = []
    stats = dict.fromkeys(_STAT_KEYS, 0)
    with span("build.populate_shard", tld=tld_targets.tld,
              month=month) as sp:
        _populate_shard(config, tld_targets, month, bank, registry, dzdb,
                        reuses, cert_events, stats)
        sp.annotate(nrd=tld_targets.monthly_nrd.get(month, 0))
    return (lifecycle_rows(registry), tuple(registry.dirty_tick_indices()),
            dzdb.export_rows(), reuses, cert_events, stats)


def _build_shard_worker(
        payload: Tuple[ScenarioConfig, TLDTargets, str, Optional[float]]):
    """Worker entry point: one ``(tld, month)`` shard in a pool process.

    Wraps :func:`_build_shard_arrays` with the per-process concerns —
    tracer reset, optional sampling profiler, GC pause, interner
    sizing — and with the build-side fault injection: when the
    scenario's fault plan fires ``worker.crash`` the worker raises
    :class:`~repro.errors.WorkerCrashError`, so the supervisor sees a
    failed future exactly as it would for a real worker bug.  Fault
    targets match the ``tld:month`` shard label (``fnmatch``
    patterns like ``com:*`` or ``*:2023-12`` select shards).  The
    injection decision is a pure function of ``(plan seed, tld,
    month)``.

    The worker instruments itself: its (forked) process tracer is
    reset and records a ``build.populate_shard`` span, and when the
    parent build is being profiled (``profile_interval`` is set) it
    runs its own :class:`SamplingProfiler`.  Finished span records and
    collapsed-stack counts ride back in the shard result for the
    parent to stitch (:meth:`Tracer.adopt_spans` /
    :meth:`SamplingProfiler.merge_counts`).
    """
    config, tld_targets, month, profile_interval = payload
    trace = tracer()
    trace.detach_sink()   # the inherited sink handle belongs to the parent
    trace.reset()
    tld = tld_targets.tld
    label = f"{tld}:{month}"
    plan = config.fault_plan
    if plan is not None and plan.fires("worker.crash", tld, month,
                                       target=label):
        raise WorkerCrashError(f"injected worker crash: shard {label}")
    profiler: Optional[SamplingProfiler] = None
    if profile_interval is not None:
        profiler = SamplingProfiler(interval=profile_interval).start()
    was_enabled = gc.isenabled()
    if was_enabled:
        # Same rationale as the parent's gc_paused: everything this
        # worker allocates stays live until the shard is pickled back,
        # so cyclic collections only re-scan a growing heap.  The
        # process exits right after, so no freeze/restore dance.
        gc.disable()
    try:
        configure_interner(4 * tld_targets.total_nrd + 10_000)
        arrays = _build_shard_arrays(config, tld_targets, month)
        if profiler is not None:
            profiler.stop()
        return (arrays, os.getpid(), trace.export_records(),
                profiler.export_counts() if profiler is not None else [])
    finally:
        if profiler is not None:
            profiler.stop()
        if was_enabled:
            gc.enable()


def _resolve_jobs(parallel: int, n_shards: int) -> int:
    """Effective worker count: 0 → one per core, capped by shard count."""
    if parallel == 0:
        parallel = os.cpu_count() or 1
    return max(1, min(parallel, n_shards))


def _merge_shards(config: ScenarioConfig, targets: Dict[str, TLDTargets],
                  jobs: int, registries: RegistryGroup, dzdb: DZDB,
                  settle: Callable[[List[Reuse]], None],
                  cert_events: List[CertEvent],
                  stats: Dict[str, int],
                  merge_span: Optional[Span] = None,
                  on_rows: Optional[Callable[[int], None]] = None) -> None:
    """Build every ``(tld, month)`` shard in a process pool and merge.

    Shard granularity is one gTLD-month: every stream a shard draws
    from is ``(tld, month)``-scoped, so the ~`3 × n_tlds` shards are
    mutually independent and the worker phase is no longer bounded by
    the largest *TLD* — only by the largest single month, a ~3×
    smaller straggler.  Shards are
    submitted in LPT order (:func:`lpt_order` over
    :func:`shard_estimates`), so the biggest months start first.

    Each shard's result carries its lifecycle rows whole, and rows are
    applied as soon as they are applicable: a TLD's months must enter
    its registry in chronological order (insertion order is
    canonical), so a landed month waits only until its predecessors
    have merged.  Everything whose *scenario-global* order could
    depend on worker timing — DZDB intervals, token reuses (whose
    unpinned CA picks ``settle`` draws from the shared stream),
    counters — is buffered and applied in canonical ``(tld, month)``
    order at the end, so the built world is identical run to run and
    to the serial build, byte for byte.  (Certificate events need no
    buffering: the builder sorts them on the unique ``(ts, domain)``
    key before executing.)

    Telemetry stitching: each completed shard carries the worker's
    finished span records and (when profiling) its collapsed-stack
    counts.  Spans are adopted into the parent tracer re-rooted under
    ``merge_span`` with a stable ``worker=N`` label (N = arrival order
    of the worker pid, labels only — never fingerprinted); profile
    counts fold into the parent's active profiler.  ``on_rows`` is the
    live-progress hook, called with each merged shard's row count;
    the ``progress`` gauges additionally expose ``shards done/total``
    and the longest-in-flight shard label for the heartbeat.

    Supervision has one recovery path: a shard whose future raises (a
    real worker bug or an injected ``worker.crash``), or that is lost
    when a worker dies at the OS level and breaks the pool, is rebuilt
    in-process via :func:`_build_shard_arrays` in canonical order once
    the pool has drained.  Shard results are deterministic, so a
    resubmission could only recover from a fault that re-rolls per
    attempt; the rebuild recovers from every fault the pool can see.
    Nothing from a failed attempt is applied, so recovery is invisible
    to the world bytes: the fingerprint under injected crashes equals
    the fault-free one (``docs/resilience.md``).
    """
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    profiler = profiler_active()
    profile_interval = None
    if profiler is not None:
        # Workers sample wall time but only get cpu/jobs of a core when
        # the pool oversubscribes the machine — scale their interval by
        # the oversubscription factor so sample density (and sampling
        # overhead) per CPU-second stays what the configured interval
        # asks for.  A no-op (factor 1) when cores >= jobs.
        oversub = max(1.0, jobs / (os.cpu_count() or jobs))
        profile_interval = profiler.interval * oversub
    keys = shard_keys(targets)
    submission = lpt_order(shard_estimates(config, targets))
    # fork keeps worker start-up (re-import, re-calibration) off the
    # critical path where the platform allows it.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None)

    trace = tracer()
    worker_ids: Dict[int, int] = {}
    metrics = get_resilience_metrics()
    log = get_logger("resilience")
    progress = build_progress()

    months = cal.MONTH_KEYS
    #: Per-TLD merge cursor: index of the month whose shard must merge
    #: before the next month's rows may enter the registry.
    month_pos: Dict[str, int] = {tld: 0 for tld in sorted(targets)}
    #: Landed shard results awaiting in-order application.
    landed: Dict[ShardKey, ShardArrays] = {}
    #: Merged shards' scenario-global results, applied in canonical
    #: order at the end.
    deferred: Dict[ShardKey, tuple] = {}
    #: Failed shards headed for the in-process rebuild.
    fallback: Set[ShardKey] = set()

    pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
    pending: Dict[object, Tuple[ShardKey, float]] = {}

    progress.set_shards_source(lambda: (len(deferred), len(keys)))

    def _slowest_shard() -> str:
        entries = list(pending.values())
        if not entries:
            return ""
        key, _t0 = min(entries, key=lambda e: e[1])
        return shard_label(key)

    progress.set_current_shard_source(_slowest_shard)

    def advance_merge() -> None:
        # Apply every applicable shard: per TLD, months strictly in
        # chronological order (registry insertion order is canonical).
        for tld, pos in month_pos.items():
            registry_tld = registries.get(tld)
            while pos < len(months) and (tld, months[pos]) in landed:
                key = (tld, months[pos])
                (rows, dirty_ticks, dzdb_rows, reuses, shard_events,
                 shard_stats) = landed.pop(key)
                registry_tld.register_many(rows, dirty_ticks)
                if on_rows is not None:
                    on_rows(len(rows))
                cert_events.extend(shard_events)
                deferred[key] = (dzdb_rows, reuses, shard_stats)
                pos += 1
            month_pos[tld] = pos

    def record_result(key: ShardKey, result) -> None:
        arrays, worker_pid, span_records, profile_counts = result
        worker = worker_ids.setdefault(worker_pid, len(worker_ids))
        trace.adopt_spans(span_records, parent=merge_span, worker=worker)
        if profiler is not None and profile_counts:
            profiler.merge_counts(profile_counts)
        landed[key] = arrays

    def rebuild_later(key: ShardKey, reason: str) -> None:
        metrics.worker_failures.labels(reason=reason).inc()
        metrics.serial_fallbacks.inc()
        fallback.add(key)

    try:
        for key in submission:
            future = pool.submit(_build_shard_worker,
                                 (config, targets[key[0]], key[1],
                                  profile_interval))
            pending[future] = (key, time.monotonic())
        while pending:
            done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
            for future in done:
                key = pending.pop(future)[0]
                try:
                    result = future.result()
                except BrokenProcessPool:
                    raise  # every in-flight shard is lost; see below
                except Exception as exc:
                    if isinstance(exc, WorkerCrashError):
                        metrics.faults_injected.labels(
                            kind="worker.crash").inc()
                    log.warning(f"build shard {shard_label(key)} crashed; "
                                f"rebuilding in-process",
                                tld=key[0], month=key[1], reason="crash")
                    rebuild_later(key, "crash")
                    continue
                record_result(key, result)
            advance_merge()
    except BrokenProcessPool:
        # A worker died at the OS level (segfault, OOM kill): the pool
        # is unusable and every in-flight shard is lost.  Rebuild every
        # shard without a result in-process rather than killing the run.
        pending.clear()
        lost = [key for key in keys
                if key not in deferred and key not in landed
                and key not in fallback]
        log.error("worker pool broke; rebuilding lost shards in-process",
                  shards=",".join(map(shard_label, lost)))
        for key in lost:
            rebuild_later(key, "pool_broken")
    finally:
        pool.shutdown(cancel_futures=True)

    # Settle the stragglers in canonical order: rebuild failed shards
    # in-process, and let each settled shard unblock the landed months
    # behind it.
    for key in keys:
        if key in fallback:
            with span("recovery.serial_fallback", tld=key[0],
                      month=key[1]):
                landed[key] = _build_shard_arrays(
                    config, targets[key[0]], key[1])
        advance_merge()
    if len(deferred) != len(keys):  # impossible by construction; loud > quiet
        missing = [shard_label(k) for k in keys if k not in deferred]
        raise ResilienceError(
            f"shards never merged: {', '.join(missing)}")

    for key in sorted(deferred):
        dzdb_rows, reuses, shard_stats = deferred[key]
        dzdb.merge_rows(dzdb_rows)
        settle(reuses)
        for stat_key, value in shard_stats.items():
            stats[stat_key] += value


def build_world(config: Optional[ScenarioConfig] = None) -> World:
    """Construct and populate a scenario world.

    Args:
        config: scenario knobs (seed, scale, TLD subset, ablation
            toggles, ``parallel`` worker count); defaults to
            ``ScenarioConfig()`` — the 1/500-scale paper window.

    Returns:
        A fully wired :class:`World`: per-TLD registries populated with
        three months of calibrated registration activity, CT logs fed
        by the scenario's CAs, the snapshot archive, DZDB history,
        blocklists, the NOD feed, and a message broker.

    The build is deterministic in ``config.seed`` — and *only* the
    seed: :func:`world_fingerprint` is bit-identical for any
    ``parallel`` setting, so the multi-core build is a pure wall-clock
    lever (the contract and its mechanics live in
    ``docs/determinism.md``).  The cyclic GC is paused while the world
    materialises and the finished heap is frozen; see
    :func:`repro.heap.gc_paused`.
    """
    with gc_paused():
        with span("build.world") as sp:
            try:
                world = _build_world(config)
            finally:
                # The progress gauge's source dies with the build.
                build_progress().clear()
            sp.annotate(sim_sec=world.window.end - world.window.start,
                        registrations=world.stats.get("registrations", 0))
            return world


def _build_world(config: Optional[ScenarioConfig]) -> World:
    config = config if config is not None else ScenarioConfig()
    plugin = config.plugin()
    if plugin is not None:
        # configure() runs once, here in the parent, before anything is
        # derived from the config; workers receive the configured copy
        # in their payloads and never re-apply it.
        config = plugin.configure(config)
    bank = StreamBank(config.seed)
    with span("build.calibrate"):
        targets = cal.build_targets(config.scale)
    if config.tlds is not None:
        unknown = set(config.tlds) - set(targets)
        if unknown:
            raise ConfigError(f"unknown TLDs requested: {sorted(unknown)}")
        targets = {t: targets[t] for t in config.tlds}
    if plugin is not None:
        # Target transforms land before shard estimates and worker
        # payloads are derived, so both see the scenario's targets.
        targets = plugin.transform_targets(config, targets)

    # Size the process name interner from the planned world volume so
    # it is scale-aware before the first name materialises: roughly one
    # domain + one www SAN + occasional extra SANs + ghost/held/baseline
    # populations per NRD.  The hint only grows alias bounds — interned
    # names are unbounded by design (no mid-run eviction).
    configure_interner(4 * sum(t.total_nrd for t in targets.values()) + 10_000)

    registries = RegistryGroup(Registry(policy_for(t)) for t in targets)
    cctld_tld: Optional[str] = None
    if config.include_cctld:
        cctld_tld = config.cctld.tld
        registries.add(Registry(policy_for(cctld_tld)))

    logs = [CTLog("argon2024", merge_delay=25),
            CTLog("xenon2024", merge_delay=40),
            CTLog("nimbus2024", merge_delay=60)]

    def exists(domain: str, ts: int) -> bool:
        lifecycle = registries.find_lifecycle(domain)
        return lifecycle is not None and lifecycle.in_zone_at(ts)

    cas = [CertificateAuthority(profile.name, exists,
                                [logs[i % len(logs)]],
                                validation_delay=5 + 5 * i)
           for i, profile in enumerate(CA_PROFILES)]

    dzdb = DZDB()
    stats: Dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)

    # Cert request events gathered first, executed in time order so the
    # CT logs incorporate entries monotonically.  Ghost/held requests pin
    # the CA (by index) holding the cached DV token; ordinary requests
    # pick a CA by market share at issuance time.
    cert_events: List[CertEvent] = []
    capick = bank.stream("capick")

    def settle(reuses: List[Reuse]) -> None:
        _settle_reuses(reuses, capick, cas, cert_events)

    # --- gTLD populations -------------------------------------------------------
    # Each (tld, month) shard's generation is independent given its
    # streams; only the CA picks of its token reuses draw from a shared
    # stream, and settle() makes them in canonical shard order.  So the
    # serial and multi-core paths run the SAME per-shard code
    # (_populate_shard) — serial against the live substrates in
    # canonical shard order, parallel against worker-private ones whose
    # whole-shard results merge in canonical order.  Either way the
    # resulting world is bit-identical (docs/determinism.md).
    n_shards = len(targets) * len(cal.MONTH_KEYS)
    jobs = _resolve_jobs(config.parallel, n_shards)
    progress = build_progress()
    if jobs > 1:
        # Workers instrument themselves (span + profiler); the parent
        # stitches their records in under this merge span as shards
        # arrive, and the merged-row count feeds the progress gauge.
        merged_rows = {"n": 0}

        def _count_rows(n: int) -> None:
            merged_rows["n"] += n

        progress.set_registrations_source(lambda: merged_rows["n"])
        with span("build.merge_shards", jobs=jobs,
                  shards=n_shards) as merge_span:
            _merge_shards(config, targets, jobs, registries, dzdb,
                          settle, cert_events, stats,
                          merge_span=merge_span
                          if isinstance(merge_span, Span) else None,
                          on_rows=_count_rows)
    else:
        # The serial build's stats dict is live (bumped per
        # registration), so it is the progress source directly.
        progress.set_registrations_source(
            lambda: stats["registrations"] + stats["baseline"]
            + stats["held_domains"])
        shards_done = {"n": 0}
        progress.set_shards_source(lambda: (shards_done["n"], n_shards))
        for tld, tld_targets in sorted(targets.items()):
            registry = registries.get(tld)
            for month in cal.MONTH_KEYS:
                reuses: List[Reuse] = []
                with span("build.populate_shard", tld=tld,
                          month=month) as sp:
                    _populate_shard(config, tld_targets, month, bank,
                                    registry, dzdb, reuses,
                                    cert_events, stats)
                    sp.annotate(nrd=tld_targets.monthly_nrd.get(month, 0))
                settle(reuses)
                shards_done["n"] += 1

    # --- ccTLD population (the §4.4b ground-truth registry) ------------------------
    if cctld_tld is not None:
        with span("build.populate_cctld", tld=cctld_tld):
            cc_scale = (config.cctld_scale if config.cctld_scale is not None
                        else config.scale)
            # Ordinary registrations track the global scale (they only
            # give the ccTLD zone realistic bulk); the ground-truth
            # fast-deletion population tracks cctld_scale so §4.4b can
            # run at absolute paper counts without inflating everything
            # else.
            cc_scaled = config.cctld.scaled(config.scale)
            cc_truth = config.cctld.scaled(cc_scale)
            registry = registries.get(cctld_tld)
            cc_gen = NameGenerator(bank.stream("names", cctld_tld))
            cc_rng = bank.stream("gen", cctld_tld)
            cc_exec = bank.stream("exec", cctld_tld)
            for month, _days in cal.MONTHS:
                window = month_window(month)
                for ts in _spread_times(cc_rng, window,
                                        cc_scaled.monthly_nrd):
                    profile = pick_profile(cc_rng, BENIGN_PROFILES)
                    plan = RegistrationPlan(
                        domain=cc_gen.by_style(profile.name_style,
                                               cctld_tld),
                        tld=cctld_tld, created_at=ts, profile=profile,
                        registrar=profile.registrar_mix.pick(cc_rng),
                        dns_provider=profile.dns_mix.pick(cc_rng),
                        web_provider=profile.web_mix.pick(cc_rng))
                    _decorate_plan(plan, cc_rng, early_prob=0.55)
                    lifecycle = _execute_registration(plan, registry,
                                                      cc_exec)
                    if (plan.cert is not None
                            and lifecycle.zone_added_at is not None):
                        cert_events.append((
                            lifecycle.zone_added_at
                            + plan.cert.delay_after_publish,
                            plan.domain, plan.cert.extra_sans or None,
                            None))
            # Fast deletions (the 714 / 334 / 99 ground truth).
            n_fast_cc = cc_truth.deleted_under_24h
            for ts in _spread_times(cc_rng, config.window, n_fast_cc):
                profile = pick_profile(cc_rng, FAST_MALICIOUS_PROFILES)
                plan = RegistrationPlan(
                    domain=cc_gen.by_style(profile.name_style, cctld_tld),
                    tld=cctld_tld, created_at=ts, profile=profile,
                    registrar=profile.registrar_mix.pick(cc_rng),
                    dns_provider=profile.dns_mix.pick(cc_rng),
                    web_provider=profile.web_mix.pick(cc_rng),
                    fast_takedown=True,
                    removal_delay=_sample_fast_lifetime(
                        cc_rng, config.cctld.fast_median))
                if cc_rng.bernoulli(config.cctld.cert_coverage):
                    plan.cert = CertPlan(
                        delay_after_publish=profile.cert.sample_delay(cc_rng))
                lifecycle = _execute_registration(plan, registry, cc_exec)
                stats["fast_takedowns"] += 1
                if (plan.cert is not None
                        and lifecycle.zone_added_at is not None):
                    cert_events.append((
                        lifecycle.zone_added_at
                        + plan.cert.delay_after_publish,
                        plan.domain, plan.cert.extra_sans or None, None))

    # --- execute certificate requests in time order ---------------------------------
    with span("build.issue_certs") as sp:
        cert_events.sort(key=lambda e: (e[0], e[1]))
        issue_rng = bank.stream("capick", "issue")
        for request_at, domain, sans, pinned_index in cert_events:
            if request_at >= config.window.end:
                continue
            ca = cas[pinned_index if pinned_index is not None
                     else _CA_INDICES.pick(issue_rng)]
            try:
                ca.request_certificate(domain, request_at,
                                       extra_sans=sans or ())
                stats["cert_requests"] += 1
            except ValidationError:
                stats["cert_rejections"] += 1
        sp.annotate(requests=stats["cert_requests"],
                    rejections=stats["cert_rejections"])

    # --- observation channels ---------------------------------------------------------
    with span("build.observation_channels"):
        covered = sorted(targets) + ([cctld_tld] if cctld_tld else [])
        # The snapshot collection runs 3 days past the analysis window —
        # the paper's ±3-day slack for late-published zone files, which
        # also keeps end-of-window registrations out of the transient set.
        archive_window = Window(config.window.start,
                                config.window.end + TRANSIENT_SLACK)
        archive = SnapshotArchive(registries, archive_window,
                                  interval=config.snapshot_interval,
                                  covered_tlds=covered)
        certstream = CertstreamFeed(logs)
        blocklists = BlocklistPanel(seed=config.seed)
        nod = NODFeed()
        broker = Broker()
        ground_truth = GroundTruth(registries, archive, config.window)

    return World(
        config=config, window=config.window, registries=registries,
        archive=archive, dzdb=dzdb, logs=logs, cas=cas,
        certstream=certstream, blocklists=blocklists, nod=nod,
        broker=broker, ground_truth=ground_truth, targets=targets,
        cctld_tld=cctld_tld, stats=stats)


def world_fingerprint(world: World) -> str:
    """Digest of every *sampled* value in a world.

    Two worlds built from the same :class:`ScenarioConfig` must produce
    the same fingerprint — and any change to it means an "optimization"
    perturbed sampling.  The golden test in ``tests/test_determinism.py``
    pins fingerprints per seed, so the fast path stays provably
    value-preserving across PRs.

    Covered: every lifecycle field and record timeline, CT log entries,
    CA-held DV tokens, DZDB history, and the builder's stats.  Excluded
    by design: certificate serials and Merkle state (serials come from a
    process-global counter, so they differ between builds in the same
    process without any sampled value changing).
    """
    h = hashlib.blake2b(digest_size=16)

    def feed(*parts) -> None:
        for part in parts:
            # isinstance, not str(part): str() copies str *subclasses*
            # (interned Names), and this loop renders every domain in
            # the world.  The digested bytes are identical either way.
            h.update((part if isinstance(part, str)
                      else str(part)).encode("utf-8"))
            h.update(b"\x1f")
        h.update(b"\n")

    def feed_timeline(tag: str, timeline) -> None:
        for ts, value in timeline.changes():
            if isinstance(value, frozenset):
                rendered = ",".join(sorted(value))
            elif isinstance(value, tuple):
                rendered = ",".join(value)
            else:
                rendered = str(value)
            feed(tag, ts, rendered)

    for registry in sorted(world.registries, key=lambda r: r.tld):
        feed("registry", registry.tld)
        for lc in sorted(registry.lifecycles(), key=lambda l: l.domain):
            feed("lc", lc.domain, lc.registrar, lc.created_at,
                 lc.zone_added_at, lc.removed_at, lc.zone_removed_at,
                 lc.dns_provider, lc.web_provider, lc.is_malicious,
                 lc.abuse_kind, lc.removal_reason, lc.actor, lc.campaign,
                 lc.held, lc.lame, lc.rdap_sync_lag)
            feed_timeline("ns", lc.ns_timeline)
            feed_timeline("a", lc.a_timeline)
            feed_timeline("aaaa", lc.aaaa_timeline)
    for log in world.logs:
        feed("log", log.log_id)
        for entry in log.entries():
            cert = entry.certificate
            feed("entry", entry.logged_at, cert.common_name,
                 ",".join(cert.sans), cert.issuer, cert.not_before,
                 cert.not_after, cert.reused_validation)
    for ca in world.cas:
        feed("ca", ca.name)
        for token in sorted(ca.tokens(), key=lambda t: t.domain):
            feed("token", token.domain, token.validated_at)
    for record in sorted(world.dzdb.records(), key=lambda r: r.domain):
        feed("dzdb", record.domain, record.first_seen, record.last_seen)
    feed("stats", sorted(world.stats.items()))
    return h.hexdigest()


def small_world(seed: int = 7, tlds: Sequence[str] = ("com", "xyz"),
                scale: float = 1 / 5000,
                include_cctld: bool = False) -> World:
    """A tiny world for tests and the quickstart example."""
    return build_world(ScenarioConfig(
        seed=seed, scale=scale, tlds=list(tlds),
        include_cctld=include_cctld))
