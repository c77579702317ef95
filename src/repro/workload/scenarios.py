"""Scenario plugin engine: composable adversarial worlds.

Instead of forking :func:`~repro.workload.scenario.build_world` per
experiment, a *scenario* is a small plugin that composes over the
existing lifecycle/timeline machinery through three hooks, each running
at a well-defined point of the (deterministic, multi-core) build:

* :meth:`Scenario.configure` — rewrite the :class:`ScenarioConfig`
  before any substrate exists (e.g. a slow registry publishing
  snapshots every other day);
* :meth:`Scenario.transform_targets` — rewrite the calibrated
  :class:`~repro.workload.calibration.TLDTargets` before the shard
  plan (``shard_estimates``) is derived from them;
* :meth:`Scenario.transform_month_plan` — extend or perturb one
  ``(tld, month)`` shard's registration/ghost plans through a
  :class:`MonthPlanContext`.

The month-plan hook runs *inside* ``_plan_month_for_tld`` — identically
in the serial build and in every pool worker — and draws only from the
shard's dedicated ``("scenario", tld, month)`` / ``("scnames", ...)``
streams, so every scenario world keeps the build's two invariants:

* ``world_fingerprint`` is bit-identical for any ``parallel`` setting
  (jobs=1 ≡ jobs=N, pinned per scenario in
  ``benchmarks/BENCH_scenarios.json``);
* ``scenario="baseline"`` builds the *same bytes* as ``scenario=None``
  — an identity plugin touches no stream the base build reads.

Registering a plugin::

    @register_scenario
    class MyScenario(Scenario):
        name = "my-scenario"
        description = "One line for the CLI listing."
        knobs = (Knob("event_day", 45.0, "window day the event lands on"),)

        def transform_month_plan(self, ctx: MonthPlanContext) -> None:
            if not ctx.contains_day(int(self.knob("event_day"))):
                return
            ...

Every registered scenario is pinned by the scenario-matrix suite
(``tests/test_scenarios.py``): a committed fingerprint golden, a
jobs=1 ≡ jobs=2 proof, and an observer
expectation (``repro.obs.observers.SCENARIO_EXPECTATIONS``) asserting
which anomaly detector the scenario must light up.  Authoring guide:
``docs/scenarios.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Type

from repro.ct.ca import ca_index_sampler
from repro.errors import ConfigError
from repro.simtime.clock import DAY, HOUR, MINUTE, Window
from repro.simtime.rng import RngStream, stable_hash01
from repro.workload.actors import (
    BENIGN_PROFILES,
    FAST_MALICIOUS_PROFILES,
    ActorProfile,
    profile_sampler,
)
from repro.workload.calibration import TLDTargets
from repro.workload.campaign import (
    CertPlan,
    GhostCertPlan,
    NSChangePlan,
    RegistrationPlan,
)
from repro.workload.namegen import NameGenerator

__all__ = [
    "Knob", "Scenario", "MonthPlanContext",
    "register_scenario", "get_scenario", "scenario_names",
    "iter_scenarios", "parse_scenario_spec",
]

#: CA market-share sampler over indices — ``add_ghost`` pins a ghost's
#: CA from the scenario stream with exactly one draw.
_CA_INDICES = ca_index_sampler()

_BENIGN = profile_sampler(BENIGN_PROFILES)
_FAST_MALICIOUS = profile_sampler(FAST_MALICIOUS_PROFILES)


@dataclass(frozen=True)
class Knob:
    """One named, numeric scenario parameter with its default."""

    name: str
    default: float
    description: str


@dataclass
class MonthPlanContext:
    """Everything a scenario's month-plan hook may read or extend.

    One context exists per ``(tld, month)`` build shard.  ``rng`` is the
    shard's dedicated ``("scenario", tld, month)`` stream and ``namegen``
    a ``sc``-namespaced month-scoped generator — both untouched by the
    base build, so a hook that draws nothing leaves the world bytes
    unchanged.  ``plans`` / ``ghosts`` are the shard's live plan lists;
    mutate them in place or use the ``add_*`` helpers.
    """

    config: "object"        # ScenarioConfig (typed loosely: no cycle)
    targets: TLDTargets
    month: str
    window: Window
    rng: RngStream
    namegen: NameGenerator
    plans: List[RegistrationPlan]
    ghosts: List[GhostCertPlan]

    # -- time helpers ---------------------------------------------------------

    def day_ts(self, day: int) -> int:
        """Midnight of window-relative day ``day`` (day 0 = window start)."""
        return self.config.window.start + day * DAY

    def contains_day(self, day: int) -> bool:
        """Does window-relative day ``day`` fall inside this month?"""
        ts = self.day_ts(day)
        return self.window.start <= ts < self.window.end

    def month_days(self) -> int:
        return (self.window.end - self.window.start) // DAY

    # -- volume helpers -------------------------------------------------------

    def scaled_count(self, fraction: float, key: str) -> int:
        """``fraction`` of this shard's monthly NRD volume, stochastically
        rounded (same :func:`~repro.simtime.rng.stable_hash01` trick as
        calibration, so small per-TLD expectations stay unbiased at
        aggressive scale-down)."""
        value = fraction * self.targets.monthly_nrd.get(self.month, 0)
        base = int(value)
        frac = value - base
        bump = stable_hash01(f"{self.targets.tld}|{self.month}|{key}",
                             "scenario") < frac
        return base + (1 if bump else 0)

    # -- plan factories -------------------------------------------------------

    def add_registration(self, profile: ActorProfile, ts: int, *,
                         style: Optional[str] = None,
                         cert_delay: Optional[int] = None,
                         lame: bool = False, has_history: bool = False,
                         removal_delay: Optional[int] = None,
                         campaign_id: Optional[str] = None
                         ) -> RegistrationPlan:
        """Append one scenario registration (infrastructure drawn from
        the scenario stream, name from the ``sc`` namespace)."""
        rng = self.rng
        plan = RegistrationPlan(
            domain=self.namegen.by_style(style or profile.name_style,
                                         self.targets.tld),
            tld=self.targets.tld, created_at=int(ts), profile=profile,
            registrar=profile.registrar_mix.pick(rng),
            dns_provider=profile.dns_mix.pick(rng),
            web_provider=profile.web_mix.pick(rng),
            removal_delay=removal_delay, lame=lame,
            has_history=has_history, campaign_id=campaign_id)
        if cert_delay is not None:
            plan.cert = CertPlan(delay_after_publish=int(cert_delay))
        self.plans.append(plan)
        return plan

    def add_ghost(self, requested_at: int, *,
                  style: str = "dga") -> GhostCertPlan:
        """Append one ghost certificate with its CA pre-pinned.

        The CA is drawn here, from the scenario stream, so a scenario's
        ghosts leave the calibrated ghosts' CA picks untouched.
        """
        rng = self.rng
        requested_at = int(requested_at)
        token_age = int(rng.uniform(30 * DAY, 390 * DAY))
        validated_at = requested_at - token_age
        ghost = GhostCertPlan(
            domain=self.namegen.by_style(style, self.targets.tld),
            tld=self.targets.tld, requested_at=requested_at,
            validated_at=validated_at,
            first_seen=validated_at - int(rng.uniform(0, 60 * DAY)),
            last_seen=validated_at + int(rng.uniform(5 * DAY, 200 * DAY)),
            in_dzdb=rng.bernoulli(0.98),
            ca_index=_CA_INDICES.pick(rng))
        self.ghosts.append(ghost)
        return ghost


class Scenario:
    """Base scenario plugin: three hooks, all optional.

    Subclasses set ``name`` / ``description`` / ``knobs`` as class
    attributes and override any hook.  Instances carry the resolved
    knob values (defaults merged with the caller's overrides) in
    ``params``; unknown knob names are a :class:`ConfigError` — the
    CLI's uniform exit-2 contract.
    """

    name: str = ""
    description: str = ""
    knobs: Tuple[Knob, ...] = ()

    def __init__(self, **overrides: float) -> None:
        params = {knob.name: knob.default for knob in self.knobs}
        for key, value in overrides.items():
            if key not in params:
                known = ", ".join(sorted(params)) or "none"
                raise ConfigError(
                    f"scenario {self.name!r} has no knob {key!r} "
                    f"(knobs: {known})")
            try:
                params[key] = float(value)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"scenario knob {key!r} must be a number, "
                    f"got {value!r}") from None
        self.params: Dict[str, float] = params

    def knob(self, name: str) -> float:
        return self.params[name]

    # -- hooks ----------------------------------------------------------------

    def configure(self, config):
        """Rewrite the scenario config before the build starts.

        Runs once, in the parent process, before targets are built.
        Return a (possibly replaced) config; never mutate the caller's.
        """
        return config

    def transform_targets(self, config,
                          targets: Dict[str, TLDTargets]
                          ) -> Dict[str, TLDTargets]:
        """Rewrite the calibrated per-TLD targets.

        Runs once, after the TLD filter and before any shard is
        planned, so the serial build and every worker see the returned
        targets.
        """
        return targets

    def transform_month_plan(self, ctx: MonthPlanContext) -> None:
        """Extend/perturb one ``(tld, month)`` shard's plans in place.

        Runs per shard at the end of ``_plan_month_for_tld`` — in the
        serial build and in every worker alike.  Draw only from
        ``ctx.rng`` / ``ctx.namegen``.
        """


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Type[Scenario]] = {}


def register_scenario(cls: Type[Scenario]) -> Type[Scenario]:
    """Class decorator: add a :class:`Scenario` subclass to the registry."""
    if not cls.name:
        raise ValueError(f"scenario class {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"scenario {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def scenario_names() -> List[str]:
    """Every registered scenario name, sorted."""
    return sorted(_REGISTRY)


def iter_scenarios() -> List[Type[Scenario]]:
    """Registered scenario classes in name order (the CLI listing)."""
    return [_REGISTRY[name] for name in scenario_names()]


def get_scenario(name: str,
                 knobs: Optional[Dict[str, float]] = None) -> Scenario:
    """Instantiate a registered scenario with knob overrides.

    Unknown names raise :class:`ConfigError` listing what *is*
    available — surfaced by the CLI as the uniform exit-2 error line.
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        available = ", ".join(scenario_names()) or "none registered"
        raise ConfigError(
            f"unknown scenario {name!r} (available: {available})")
    return cls(**(knobs or {}))


def parse_scenario_spec(spec: str) -> Tuple[str, Dict[str, float]]:
    """Parse a CLI scenario spec: ``name`` or ``name:knob=v,knob=v``.

    Returns ``(name, knob overrides)``; malformed specs raise
    :class:`ConfigError`.  Name/knob validity is checked later by
    :func:`get_scenario` (via ``ScenarioConfig.__post_init__``).
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    if not name:
        raise ConfigError(f"empty scenario name in spec {spec!r}")
    knobs: Dict[str, float] = {}
    if rest:
        for part in rest.split(","):
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(
                    f"bad scenario knob {part!r} in {spec!r} "
                    "(expected knob=value)")
            try:
                knobs[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"scenario knob {key!r} must be a number, "
                    f"got {value.strip()!r}") from None
    return name, knobs


# ---------------------------------------------------------------------------
# Shipped scenarios
# ---------------------------------------------------------------------------

@register_scenario
class Baseline(Scenario):
    """The control: all hooks are identities, so the built world is
    byte-identical to ``scenario=None`` (asserted in
    ``tests/test_determinism.py``) and every observer stays quiet."""

    name = "baseline"
    description = "The calibrated paper world, untouched (control)."


@register_scenario
class RegistrarBurst(Scenario):
    """A registrar promotion floods one day with ordinary registrations.

    The 8x burst day from the PR-6 observer fixture, promoted from a
    post-hoc series edit to a *generated* world: ``burst_mult`` times
    the normal daily volume lands on ``burst_day``, every registration
    bundling the promo's free certificate — so the CT-candidate
    (``registrations``) series spikes while the burst population
    resolves normally and ``dark_hosts`` stays quiet.
    """

    name = "registrar-burst"
    description = ("One day of registrar-promotion volume at burst_mult x "
                   "the daily rate, certs bundled.")
    knobs = (
        Knob("burst_day", 60.0, "window day the promotion lands on"),
        Knob("burst_mult", 8.0, "burst-day volume as a multiple of the "
                                "normal daily rate"),
    )

    def transform_month_plan(self, ctx: MonthPlanContext) -> None:
        day = int(self.knob("burst_day"))
        if not ctx.contains_day(day):
            return
        extra = ctx.scaled_count(
            (self.knob("burst_mult") - 1.0) / ctx.month_days(), "burst")
        burst_ts = ctx.day_ts(day)
        rng = ctx.rng
        for _ in range(extra):
            profile = _BENIGN.pick(rng)
            ctx.add_registration(
                profile, burst_ts + rng.randrange(DAY),
                cert_delay=profile.cert.sample_delay(rng))


@register_scenario
class DropCatchRace(Scenario):
    """Drop-catch services race to re-register a batch of expiring names.

    On ``race_day`` a ``race_frac`` slice of the monthly volume drops
    and is re-registered within the hour.  Each name draws several
    competing services, and every service pre-validated the names it
    meant to catch while they were still delegated — so the *winners*
    re-register (zone history, certed within minutes, parked lame) and
    the *losers* (``lose_ratio`` per winner) issue their pre-staged
    certificates anyway, for names they never obtained: CT entries with
    no delegation behind them, which is what spikes ``dark_hosts``.
    The catch economy also runs hotter overall: calibrated transient
    volume is boosted by ``transient_boost``, which also grows the
    ghost/held populations.
    """

    name = "drop-catch-race"
    description = ("A one-hour drop-catch race: winners re-register with "
                   "instant certs, losers burn pre-staged certs dark.")
    knobs = (
        Knob("race_day", 45.0, "window day of the drop-catch race"),
        Knob("race_frac", 0.03, "re-registered (winner) volume as a "
                                "fraction of monthly NRD volume"),
        Knob("lose_ratio", 1.5, "losing pre-staged certs per won name"),
        Knob("transient_boost", 0.25, "fractional boost to calibrated "
                                      "transient volume"),
    )

    def transform_targets(self, config, targets):
        boost = 1.0 + self.knob("transient_boost")
        return {
            tld: replace(t, monthly_transient_observed={
                month: int(round(count * boost))
                for month, count in t.monthly_transient_observed.items()})
            for tld, t in targets.items()
        }

    def transform_month_plan(self, ctx: MonthPlanContext) -> None:
        day = int(self.knob("race_day"))
        if not ctx.contains_day(day):
            return
        race_ts = ctx.day_ts(day)
        rng = ctx.rng
        # Winners: re-registered within the hour, certed within minutes,
        # parked lame while the catcher shops the name around.
        for _ in range(ctx.scaled_count(self.knob("race_frac"), "race-win")):
            ctx.add_registration(
                _FAST_MALICIOUS.pick(rng), race_ts + rng.randrange(HOUR),
                cert_delay=int(rng.uniform(5 * MINUTE, 15 * MINUTE)),
                lame=True, has_history=True)
        # Losers: the competing services pre-validated the same drop list
        # while the names were still delegated, and their automation
        # issues the staged certificates at race time whether or not the
        # catch landed — certs for names nobody re-registered, which the
        # monitor can never resolve.
        n_lose = ctx.scaled_count(
            self.knob("race_frac") * self.knob("lose_ratio"), "race-lose")
        for _ in range(n_lose):
            ghost = ctx.add_ghost(race_ts + rng.randrange(HOUR),
                                  style="dictionary")
            # Dropped names are always in DZDB — they were delegated
            # until shortly before the race (validation happened while
            # the zone entry was still live).
            ctx.ghosts[-1] = replace(
                ghost, in_dzdb=True,
                last_seen=max(ghost.validated_at + DAY,
                              race_ts - int(rng.uniform(DAY, 40 * DAY))))


@register_scenario
class TTLDecoupledUpdates(Scenario):
    """A mass NS-infrastructure migration decoupled from TTL cadence.

    Modelled on "Decoupling DNS Update Timing from TTL Values"
    (PAPERS.md): a provider pushes a fleet-wide nameserver migration on
    ``storm_day``, rewiring ``storm_frac`` of the live registrations in
    one day regardless of their published TTLs.  Registrations and
    certificates are untouched — only the world-level ``ns_changes``
    series (``observe_world``) lights up.
    """

    name = "ttl-decoupled-updates"
    description = ("A one-day fleet-wide NS migration rewiring storm_frac "
                   "of live registrations.")
    knobs = (
        Knob("storm_day", 65.0, "window day of the migration storm"),
        Knob("storm_frac", 0.08, "fraction of live registrations rewired"),
    )

    def transform_month_plan(self, ctx: MonthPlanContext) -> None:
        storm_ts = ctx.day_ts(int(self.knob("storm_day")))
        frac = self.knob("storm_frac")
        rng = ctx.rng
        for plan in ctx.plans:
            if plan.created_at >= storm_ts:
                continue
            removed = plan.removed_at
            if removed is not None and removed <= storm_ts + DAY:
                continue
            if rng.random() >= frac:
                continue
            provider = plan.profile.dns_mix.pick(rng)
            if provider.name == plan.dns_provider.name:
                provider = plan.profile.dns_mix.pick(rng)
            plan.ns_change = NSChangePlan(
                delay_after_publish=(storm_ts + rng.randrange(DAY)
                                     - plan.created_at),
                new_dns_provider=provider)


@register_scenario
class DynamicUpdateHijack(Scenario):
    """Non-secure dynamic-update hijack: a burst of certs for names that
    were never registered.

    Modelled on "Don't Get Hijacked" (PAPERS.md): an attacker abusing
    unauthenticated dynamic updates obtains DV certificates for a batch
    of DGA names within a few hours of ``hijack_day``.  Every cert is a
    CT candidate that never resolves, so ``registrations`` *and*
    ``dark_hosts`` spike at the same instant — the mass-event trigger.
    """

    name = "dynamic-update-hijack"
    description = ("A few-hour burst of hijack-obtained certificates for "
                   "never-registered names.")
    knobs = (
        Knob("hijack_day", 70.0, "window day of the hijack burst"),
        Knob("hijack_frac", 0.04, "burst size as a fraction of monthly "
                                  "NRD volume"),
    )

    def transform_month_plan(self, ctx: MonthPlanContext) -> None:
        day = int(self.knob("hijack_day"))
        if not ctx.contains_day(day):
            return
        n = ctx.scaled_count(self.knob("hijack_frac"), "hijack")
        t0 = ctx.day_ts(day)
        for _ in range(n):
            ctx.add_ghost(t0 + ctx.rng.randrange(8 * HOUR))


@register_scenario
class SlowZoneRegistry(Scenario):
    """A registry that publishes slowly and stalls outright for days.

    Snapshots come every ``snapshot_days`` days instead of daily
    (Ablation A's knob, scenario-packaged), and a provisioning outage
    swallows every registration from ``outage_day`` for ``outage_days``
    — the backlog flushes in the first hours after recovery, so the
    CT-candidate series dips and then floods: the ``registrations``
    step-change detector's shape.
    """

    name = "slow-zone-registry"
    description = ("Multi-day snapshot cadence plus a provisioning outage "
                   "whose backlog flushes at once.")
    knobs = (
        Knob("snapshot_days", 2.0, "days between zone snapshots"),
        Knob("outage_day", 40.0, "window day the outage starts"),
        Knob("outage_days", 3.0, "outage length in days"),
    )

    def configure(self, config):
        return replace(config,
                       snapshot_interval=int(self.knob("snapshot_days")) * DAY)

    def transform_month_plan(self, ctx: MonthPlanContext) -> None:
        start_ts = ctx.day_ts(int(self.knob("outage_day")))
        end_ts = start_ts + int(self.knob("outage_days")) * DAY
        if end_ts + 6 * HOUR >= ctx.config.window.end:
            return
        rng = ctx.rng
        for plan in ctx.plans:
            if start_ts <= plan.created_at < end_ts:
                plan.created_at = end_ts + rng.randrange(6 * HOUR)
