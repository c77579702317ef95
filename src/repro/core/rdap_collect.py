"""Pipeline step 2: collect RDAP registration data for candidates.

The collector drains the candidate topic and issues one RDAP query per
domain shortly after detection (the paper's Azure workers poll the
Kafka topic, so there is a small queueing delay), cycling client IPs
and never retrying failures — §3 step 2 and the ethics appendix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.bus.broker import Broker, TOPIC_RDAP
from repro.core.records import Candidate
from repro.registry.rdap import RDAPClient, RDAPResult
from repro.registry.registry import RegistryGroup
from repro.simtime.clock import MINUTE
from repro.simtime.rng import stable_hash01


@dataclass(frozen=True)
class RDAPCollectorConfig:
    """Queueing-delay bounds between detection and the RDAP query."""

    min_delay: int = MINUTE
    max_delay: int = 10 * MINUTE


class RDAPCollector:
    """Step-2 operator: candidate stream → RDAP results."""

    def __init__(self, registries: RegistryGroup,
                 config: RDAPCollectorConfig = RDAPCollectorConfig(),
                 broker: Optional[Broker] = None,
                 client: Optional[RDAPClient] = None) -> None:
        self.config = config
        self.client = client if client is not None else RDAPClient(registries)
        self.broker = broker

    def query_time(self, candidate: Candidate) -> int:
        """Deterministic per-domain queueing delay after detection."""
        span = max(0, self.config.max_delay - self.config.min_delay)
        jitter = int(stable_hash01(candidate.domain, "rdap-delay") * span)
        return candidate.ct_seen_at + self.config.min_delay + jitter

    def collect(self, candidates: Iterable[Candidate]) -> Dict[str, RDAPResult]:
        """Fetch RDAP for every candidate, in detection order."""
        ordered = sorted(candidates, key=lambda c: (c.ct_seen_at, c.domain))
        results: Dict[str, RDAPResult] = {}
        for candidate in ordered:
            ts = self.query_time(candidate)
            result = self.client.fetch(candidate.domain, ts)
            results[candidate.domain] = result
            if self.broker is not None:
                self.broker.produce(TOPIC_RDAP, candidate.domain, result, ts)
        return results
