"""Deterministic fault injection: the chaos plane of the repro stack.

A :class:`FaultPlan` describes *which* faults to inject (worker
crashes in the parallel build, SERVFAIL/timeout storms and latency
spikes in scan, stalled consumers in serve, torn segment writes in the
feed log) and *when* they fire — and every decision is a pure function
of ``(plan seed, fault kind, injection-site key)`` drawn through the
existing :class:`~repro.simtime.rng.RngStream` layer.  That purity is
the whole point: chaos runs are bit-reproducible (same seed → same
injection schedule), decisions are independent of worker scheduling or
arrival order, and the recovery machinery can be proven
value-preserving against the ``world_fingerprint`` goldens *with the
faults on*.

Fault kinds (the ``kind`` column of ``docs/resilience.md``):

=================  =========================================================
``worker.crash``   a parallel-build shard raises :class:`WorkerCrashError`
``scan.servfail``  a probe comes back SERVFAIL without reaching the
                   authority (per-authority storm via ``target``)
``scan.timeout``   as above, but TIMEOUT
``scan.latency``   a grid instant is deferred ``delay`` simulated seconds
``serve.stall``    a consumer's poll returns nothing (stalled client)
``log.torn_write`` a sealed segment file loses its final bytes after the
                   atomic rename (simulates a torn write / power cut)
=================  =========================================================

Plans parse from three spellings, all accepted by ``--fault-plan``:

* a compact CLI spec — ``"seed=3;worker.crash:target=com:*,rate=1"``;
* inline JSON — ``'{"seed": 3, "faults": [{"kind": "worker.crash", ...}]}'``;
* a path to a JSON file with the same shape.

Injection *events* are counted by kind in the process-wide
``resilience`` metric group (``faults_injected``) so a chaos run's
schedule is observable after the fact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.simtime.rng import RngStream

#: Every injectable fault kind (parse-time validation).
FAULT_KINDS = (
    "worker.crash",
    "scan.servfail", "scan.timeout", "scan.latency",
    "serve.stall",
    "log.torn_write",
)

#: Spec parameters and their parsers (shared by CLI and JSON forms).
_PARAMS = {
    "rate": float,
    "target": str,
    "fires": int,
    "delay": float,
    "start": int,
    "end": int,
}


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault: kind, probability, scope, and shape.

    ``rate`` is the per-opportunity firing probability; ``target`` is
    an ``fnmatch`` pattern against the injection site's primary key
    (TLD, authority, or client id — ``None`` matches everything);
    ``fires`` caps the *attempt index* the fault can fire on, which
    only scan retries advance (``fires=1`` spares every retry of a
    failed probe instant; other kinds always fire on attempt 0);
    ``delay`` shapes latency faults; ``start``/``end`` gate the fault
    to a simulated-time window (storms).
    """

    kind: str
    rate: float = 1.0
    target: Optional[str] = None
    fires: Optional[int] = None
    delay: float = 0.0
    start: Optional[int] = None
    end: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r} "
                f"(choose from {', '.join(FAULT_KINDS)})")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"fault rate must be in [0, 1]: {self.rate}")
        if self.fires is not None and self.fires <= 0:
            raise ConfigError(f"fires must be positive: {self.fires}")
        if self.delay < 0:
            raise ConfigError(f"delay must be >= 0: {self.delay}")

    def applies(self, target: Optional[str], attempt: int,
                at: Optional[int]) -> bool:
        """Static gates: scope, attempt cap, and time window."""
        if self.target is not None and (
                target is None or not fnmatchcase(str(target), self.target)):
            return False
        if self.fires is not None and attempt >= self.fires:
            return False
        if at is not None:
            if self.start is not None and at < self.start:
                return False
            if self.end is not None and at >= self.end:
                return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultSpec` — the whole chaos schedule.

    The plan is frozen and picklable (it crosses into build worker
    processes inside :class:`~repro.workload.scenario.ScenarioConfig`)
    and holds **no mutable decision state**: :meth:`fires` derives a
    fresh child stream per injection site, so the verdict for a site
    never depends on how many other sites were consulted first.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = ()
    #: Kinds present, precomputed so the "no fault of this kind"
    #: hot-path check is one frozenset lookup.
    _kinds: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_kinds",
                           frozenset(s.kind for s in self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def wants(self, kind: str) -> bool:
        """Cheap pre-check: does any spec target this kind at all?"""
        return kind in self._kinds

    def stream(self, kind: str, *key: object) -> RngStream:
        """The derived stream for one injection site (auxiliary draws,
        e.g. how many bytes a torn write loses)."""
        return RngStream(self.seed, "fault", kind, *map(str, key))

    def fires(self, kind: str, *key: object, target: Optional[str] = None,
              attempt: int = 0, at: Optional[int] = None
              ) -> Optional[FaultSpec]:
        """Decide whether ``kind`` fires at the site identified by ``key``.

        Returns the matching spec (first match wins, spec order) or
        ``None``.  The Bernoulli draw comes from a fresh stream derived
        from ``(seed, kind, key, attempt)``, so the decision is
        order-independent and reproducible across processes.
        """
        if kind not in self._kinds:
            return None
        for index, spec in enumerate(self.specs):
            if spec.kind != kind or not spec.applies(target, attempt, at):
                continue
            if spec.rate >= 1.0:
                return spec
            draw = RngStream(self.seed, "fault", str(index), kind,
                             *map(str, key), str(attempt)).random()
            if draw < spec.rate:
                return spec
        return None

    # -- parsing ---------------------------------------------------------------

    @classmethod
    def parse(cls, text: Optional[str], seed: int = 0) -> Optional["FaultPlan"]:
        """Parse ``--fault-plan`` input: CLI spec, JSON text, or JSON path.

        Returns ``None`` for empty input.  Raises
        :class:`~repro.errors.ConfigError` on any malformed input —
        the CLI's uniform exit-2 contract.
        """
        if text is None or not text.strip():
            return None
        text = text.strip()
        if text.startswith("{") or text.startswith("["):
            return cls.from_json(text, seed=seed)
        if os.path.exists(text):
            try:
                payload = open(text, "r", encoding="utf-8").read()
            except OSError as exc:
                raise ConfigError(f"cannot read fault plan {text}: {exc}")
            return cls.from_json(payload, seed=seed)
        return cls.from_spec(text, seed=seed)

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse the compact CLI grammar.

        ``seed=N;kind:param=value,param=value;kind2:...`` — kinds from
        :data:`FAULT_KINDS`, params from ``rate``/``target``/``fires``/
        ``delay``/``start``/``end``.
        """
        specs: List[FaultSpec] = []
        for segment in spec.split(";"):
            segment = segment.strip()
            if not segment:
                continue
            if segment.startswith("seed="):
                try:
                    seed = int(segment[len("seed="):])
                except ValueError:
                    raise ConfigError(
                        f"bad fault-plan seed: {segment!r}") from None
                continue
            kind, _, params = segment.partition(":")
            specs.append(cls._build_spec(kind.strip(),
                                         _parse_params(params)))
        if not specs:
            raise ConfigError(f"fault plan {spec!r} names no faults")
        return cls(seed=seed, specs=tuple(specs))

    @classmethod
    def from_json(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse the JSON shape (inline text or file contents)."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"fault plan is not valid JSON: {exc}")
        if isinstance(payload, list):
            payload = {"faults": payload}
        if not isinstance(payload, dict):
            raise ConfigError("fault plan JSON must be an object or array")
        seed = payload.get("seed", seed)
        if not isinstance(seed, int):
            raise ConfigError(f"fault plan seed must be an int: {seed!r}")
        faults = payload.get("faults")
        if not isinstance(faults, list) or not faults:
            raise ConfigError("fault plan JSON needs a non-empty "
                              "'faults' array")
        specs = []
        for entry in faults:
            if not isinstance(entry, dict) or "kind" not in entry:
                raise ConfigError(f"fault entry needs a 'kind': {entry!r}")
            params = {k: v for k, v in entry.items() if k != "kind"}
            specs.append(cls._build_spec(entry["kind"], params))
        return cls(seed=seed, specs=tuple(specs))

    @staticmethod
    def _build_spec(kind: str, params: Dict[str, object]) -> FaultSpec:
        unknown = set(params) - set(_PARAMS)
        if unknown:
            raise ConfigError(
                f"unknown fault parameter(s) {sorted(unknown)} for "
                f"{kind!r} (choose from {sorted(_PARAMS)})")
        coerced = {}
        for name, value in params.items():
            try:
                coerced[name] = _PARAMS[name](value)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"bad value for fault parameter {name}: "
                    f"{value!r}") from None
        return FaultSpec(kind=kind, **coerced)


def _parse_params(text: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for part in filter(None, (p.strip() for p in text.split(","))):
        name, eq, value = part.partition("=")
        if not eq:
            raise ConfigError(f"fault parameter needs '=': {part!r}")
        params[name.strip()] = value.strip()
    return params
