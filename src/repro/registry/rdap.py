"""RDAP: the registration-data lookup channel (RFC 7482 semantics).

Step 2 of the paper's pipeline queries RDAP for every candidate NRD to
obtain the authoritative creation timestamp and registrar identity.
Three failure modes matter (§4.2):

(i)   *too late* — the domain was already deleted when queried, the
      registry no longer exposes the object (404);
(ii)  *too early* — registry RDAP lags provisioning, the object is not
      yet visible (404);
(iii) *never existed* — the candidate came from a certificate issued on
      a cached DV token for a domain that is not registered at all.

Plus operational noise: rate limiting and server errors (≈3 % baseline).
The paper sends queries from four workers with distinct IPs at ≤1 qps
and never retries; :class:`RDAPClient` reproduces that discipline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.dnscore import name as dnsname
from repro.errors import (
    RDAPError,
    RDAPNotFound,
    RDAPRateLimited,
    RDAPServerError,
)
from repro.heap import frozen_slots
from repro.registry.registrar import registrar_by_name
from repro.registry.registry import Registry, RegistryGroup
from repro.simtime.clock import HOUR, isoformat
from repro.simtime.rng import stable_hash01


#: RDAP status lists, shared by every record that carries one.
STATUSES_ACTIVE = ("active",)
STATUSES_HELD = ("serverHold",)


@frozen_slots
@dataclass(frozen=True)
class RDAPRecord:
    """The fields of an RDAP domain object the pipeline consumes."""

    domain: str
    created_at: int
    registrar: str
    registrar_iana_id: int
    statuses: Tuple[str, ...]
    fetched_at: int

    @property
    def handle(self) -> str:
        """The registry's object handle, ``<DOMAIN>-<TLD>``."""
        domain = self.domain.upper()
        return f"{domain}-{domain.rpartition('.')[2]}"

    @property
    def created_iso(self) -> str:
        return isoformat(self.created_at)


class RDAPFailure(enum.Enum):
    """Classification of a failed RDAP fetch."""

    NOT_FOUND = "not_found"
    RATE_LIMITED = "rate_limited"
    SERVER_ERROR = "server_error"
    NO_SERVER = "no_server"

    def __str__(self) -> str:
        return self.value


@frozen_slots
@dataclass(frozen=True)
class RDAPResult:
    """Outcome of one RDAP fetch attempt (the pipeline never retries)."""

    domain: str
    queried_at: int
    record: Optional[RDAPRecord] = None
    failure: Optional[RDAPFailure] = None

    @property
    def ok(self) -> bool:
        return self.record is not None


class TokenBucket:
    """Continuous-refill token bucket (per client IP rate limiting)."""

    def __init__(self, rate_per_hour: int, burst: Optional[int] = None) -> None:
        self.rate = rate_per_hour / HOUR  # tokens per second
        self.capacity = float(burst if burst is not None else max(1, rate_per_hour // 60))
        self._tokens = self.capacity
        self._updated = 0

    def try_acquire(self, ts: int) -> bool:
        if ts > self._updated:
            self._tokens = min(self.capacity,
                               self._tokens + (ts - self._updated) * self.rate)
            self._updated = ts
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class RDAPServer:
    """The registry-side RDAP service for one TLD."""

    def __init__(self, registry: Registry,
                 deleted_retention: int = 0,
                 flaky_prob: Optional[float] = None) -> None:
        self.registry = registry
        self.policy = registry.policy
        self.deleted_retention = deleted_retention
        #: Probability a structurally fine query still fails (rate
        #: limiting bursts, 5xx, connection errors) — the paper's ≈3 %.
        self.flaky_prob = (flaky_prob if flaky_prob is not None
                           else self.policy.rdap_server_error_prob)
        self._buckets: Dict[str, TokenBucket] = {}
        self.queries = 0
        self.failures = 0

    def _bucket_for(self, client_ip: str) -> TokenBucket:
        bucket = self._buckets.get(client_ip)
        if bucket is None:
            bucket = TokenBucket(self.policy.rdap_rate_limit_per_hour)
            self._buckets[client_ip] = bucket
        return bucket

    def query_status(self, domain: str, ts: int,
                     client_ip: str = "192.0.2.1",
                     ) -> Tuple[Optional[RDAPRecord], Optional[RDAPFailure], str]:
        """Look up a domain object without raising.

        Returns ``(record, failure, detail)`` where exactly one of
        ``record``/``failure`` is set and ``detail`` is the
        human-readable failure reason (empty on success).  This is the
        collector's path: at paper scale roughly a third of step-2
        queries fail by design (§4.2), and paying exception
        construction + unwind per expected failure (~1 µs each) was
        pure overhead.  :meth:`query` keeps the raising contract for
        callers that want it.
        """
        self.queries += 1
        norm = dnsname.normalize(domain)
        if not self._bucket_for(client_ip).try_acquire(ts):
            self.failures += 1
            return (None, RDAPFailure.RATE_LIMITED,
                    f"{client_ip} over limit for .{self.registry.tld}")
        # Deterministic per-(domain, hour) operational flakiness.
        if stable_hash01(f"{norm}|{ts // HOUR}", "rdap-flaky") < self.flaky_prob:
            self.failures += 1
            return (None, RDAPFailure.SERVER_ERROR,
                    f"transient RDAP failure for {norm}")
        lifecycle = self.registry.find(norm)
        if lifecycle is None:
            self.failures += 1
            return (None, RDAPFailure.NOT_FOUND,
                    f"{norm} has no registration object")
        if ts < lifecycle.created_at + lifecycle.rdap_sync_lag:
            # Cause (ii): RDAP data not yet in sync.
            self.failures += 1
            return (None, RDAPFailure.NOT_FOUND,
                    f"{norm} not yet visible in RDAP")
        if (lifecycle.removed_at is not None
                and ts >= lifecycle.removed_at + self.deleted_retention):
            # Cause (i): we were too late, the object is gone.
            self.failures += 1
            return (None, RDAPFailure.NOT_FOUND,
                    f"{norm} was already deleted")
        registrar = registrar_by_name(lifecycle.registrar)
        record = RDAPRecord(
            domain=norm,
            created_at=lifecycle.created_at,
            registrar=registrar.name,
            registrar_iana_id=registrar.iana_id,
            statuses=STATUSES_HELD if lifecycle.held else STATUSES_ACTIVE,
            fetched_at=ts,
        )
        return record, None, ""

    def query(self, domain: str, ts: int, client_ip: str = "192.0.2.1") -> RDAPRecord:
        """Look up a domain object; raises an RDAP error on failure."""
        record, failure, detail = self.query_status(domain, ts, client_ip)
        if record is not None:
            return record
        if failure is RDAPFailure.RATE_LIMITED:
            raise RDAPRateLimited(detail)
        if failure is RDAPFailure.SERVER_ERROR:
            raise RDAPServerError(detail)
        raise RDAPNotFound(detail)


class RDAPClient:
    """The measurement-side RDAP collector.

    Cycles queries across ``worker_ips`` (the paper used four Azure
    workers with distinct IPv4 addresses) and *never retries* failures,
    per the paper's ethics section.
    """

    DEFAULT_IPS = ("203.0.113.10", "203.0.113.11", "203.0.113.12", "203.0.113.13")

    def __init__(self, registries: RegistryGroup,
                 worker_ips: Iterable[str] = DEFAULT_IPS,
                 deleted_retention: int = 0) -> None:
        self.registries = registries
        self.worker_ips = tuple(worker_ips)
        if not self.worker_ips:
            raise RDAPError("need at least one worker IP")
        self._servers: Dict[str, RDAPServer] = {}
        self._rr = 0
        #: Fetch attempts so far, and how many of them failed.
        self.fetches = 0
        self.failures = 0
        self.deleted_retention = deleted_retention

    def server_for(self, tld: str) -> Optional[RDAPServer]:
        server = self._servers.get(tld)
        if server is None:
            try:
                registry = self.registries.get(tld)
            except Exception:
                return None
            server = RDAPServer(registry, deleted_retention=self.deleted_retention)
            self._servers[tld] = server
        return server

    def _next_ip(self) -> str:
        ip = self.worker_ips[self._rr % len(self.worker_ips)]
        self._rr += 1
        return ip

    def fetch(self, domain: str, ts: int) -> RDAPResult:
        """One fetch attempt; failures are recorded, never retried.

        Uses the non-raising :meth:`RDAPServer.query_status` flow: a
        failed fetch is an expected outcome here, not an exception.
        """
        norm = dnsname.normalize(domain)
        server = self.server_for(norm.tld)
        if server is None:
            result = RDAPResult(norm, ts, failure=RDAPFailure.NO_SERVER)
        else:
            record, failure, _ = server.query_status(
                norm, ts, client_ip=self._next_ip())
            result = RDAPResult(norm, ts, record=record, failure=failure)
        self.fetches += 1
        if result.record is None:
            self.failures += 1
        return result

    @property
    def failure_rate(self) -> float:
        if not self.fetches:
            return 0.0
        return self.failures / self.fetches
