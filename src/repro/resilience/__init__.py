"""Failure handling for the repro stack: deterministic fault injection,
supervised build workers, circuit breakers, and crash-safe logs.

The package has three pillars (see ``docs/resilience.md``):

* :mod:`repro.resilience.faults` — :class:`FaultPlan`, the seeded
  chaos schedule parsed from ``--fault-plan`` (same seed → same
  injection schedule, bit-reproducible);
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`, which the
  scan engine keys per TLD authority;
* :mod:`repro.resilience.metrics` — the process-wide ``resilience``
  registry group counting every injected fault and every recovery.

The consuming subsystems (``workload.scenario`` supervision,
``scan.engine`` breakers, ``serve.segments`` salvage) live where the
behaviour they protect lives; this package only holds the shared
mechanism.
"""

from repro.resilience.breaker import BreakerConfig, CircuitBreaker
from repro.resilience.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.resilience.metrics import (
    ResilienceMetrics,
    get_resilience_metrics,
    reset_resilience_metrics,
)

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "ResilienceMetrics",
    "get_resilience_metrics",
    "reset_resilience_metrics",
]
