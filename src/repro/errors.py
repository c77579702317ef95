"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Sub-hierarchies mirror the
subsystems: DNS data model, registry operations, certificate issuance,
streaming bus, and pipeline configuration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class SimulationError(ReproError):
    """The simulation engine was driven incorrectly (e.g. time went backwards)."""


# --------------------------------------------------------------------------
# DNS data model
# --------------------------------------------------------------------------

class DNSError(ReproError):
    """Base class for DNS data-model errors."""


class NameError_(DNSError):
    """A domain name is syntactically invalid.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`NameError`; exported as ``DomainNameError`` from
    :mod:`repro.dnscore`.
    """


DomainNameError = NameError_


class RecordError(DNSError):
    """A resource record is malformed (bad type, bad rdata, bad TTL)."""


class ZoneError(DNSError):
    """A zone operation failed (duplicate delegation, unknown name, ...)."""


class PSLError(DNSError):
    """Public Suffix List lookup failed (no known suffix for the name)."""


# --------------------------------------------------------------------------
# Registry / registrar / RDAP
# --------------------------------------------------------------------------

class RegistryError(ReproError):
    """Base class for registry-side failures."""


class RegistrationError(RegistryError):
    """A registration request was rejected (taken, bad name, policy)."""


class UnknownDomainError(RegistryError):
    """The registry has no record of the requested domain."""


class RDAPError(RegistryError):
    """Base class for RDAP query failures."""


class RDAPNotFound(RDAPError):
    """RDAP 404: the registry does not (yet/anymore) expose the domain."""


class RDAPRateLimited(RDAPError):
    """RDAP 429: the client exceeded the registry's rate limit."""


class RDAPServerError(RDAPError):
    """RDAP 5xx: transient registry-side failure."""


# --------------------------------------------------------------------------
# Certificates / CT
# --------------------------------------------------------------------------

class CTError(ReproError):
    """Base class for certificate/CT errors."""


class ValidationError(CTError):
    """Domain validation failed: the CA could not prove control."""


# --------------------------------------------------------------------------
# Bus
# --------------------------------------------------------------------------

class BusError(ReproError):
    """Base class for message-bus errors."""


class UnknownTopicError(BusError):
    """A consumer or producer referenced a topic that does not exist."""


class OffsetError(BusError):
    """A consumer seeked outside the valid offset range."""


# --------------------------------------------------------------------------
# Feed serving
# --------------------------------------------------------------------------

class ServeError(ReproError):
    """Base class for feed-distribution (``repro.serve``) errors."""


class UnknownClientError(ServeError):
    """An operation referenced a client id with no active subscription."""


class EvictedClientError(ServeError):
    """The client was evicted as a slow consumer and must resubscribe."""


# --------------------------------------------------------------------------
# Bulk scanning
# --------------------------------------------------------------------------

class ScanError(ReproError):
    """Base class for bulk-measurement (``repro.scan``) errors."""


# --------------------------------------------------------------------------
# Resilience (fault injection, supervision, breakers, crash safety)
# --------------------------------------------------------------------------

class ResilienceError(ReproError):
    """Base class for failure-handling (``repro.resilience``) errors.

    Every subclass rides the uniform CLI error contract: one clean
    line on stderr and exit code 2 (``repro.cli.main`` catches
    :class:`ReproError`), never a traceback.
    """


class WorkerCrashError(ResilienceError):
    """A build worker process died (or an injected fault killed it)."""


class SegmentCorruptionError(ResilienceError):
    """A persisted log segment failed its CRC or JSON parse.

    :meth:`~repro.serve.segments.SegmentedLog.load` handles this
    internally (salvage + quarantine); it only escapes through the
    strict single-line parser used by tests and tooling."""
