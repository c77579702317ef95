"""Certificate Transparency logs.

A :class:`CTLog` is an append-only sequence of precertificates.  Entries
carry the *log* timestamp (when the log incorporated the precert), which
trails issuance by the log's merge delay — one component of the
detection latency the paper measures.

Neither precertificates nor CT logs expose a reliable "insert" wall
clock to stream consumers, which is why the paper uses the
Certstream-reported receive time (§4.1 footnote 4); the feed model in
:mod:`repro.ct.certstream` adds that last hop.  The method never checks
an inclusion proof, so a log keeps no Merkle tree: only what Certstream
and the world fingerprint read, each entry's log time and certificate.
"""

from __future__ import annotations

from array import array
from itertools import count
from typing import Iterator, List

from repro.ct.certificate import Certificate
from repro.errors import CTError


class LogEntry:
    """One incorporated precertificate, built on demand from the log's
    columns: paper-scale logs keep no object per entry."""

    __slots__ = ("index", "logged_at", "certificate")

    def __init__(self, index: int, logged_at: int,
                 certificate: Certificate) -> None:
        self.index = index
        self.logged_at = logged_at
        self.certificate = certificate


class CTLog:
    """A CT log with a fixed merge delay.

    Stored as two parallel columns — log times in an ``array('q')`` and
    the certificates in a list — so an entry's index is its position.
    """

    def __init__(self, log_id: str, merge_delay: int = 30) -> None:
        if merge_delay < 0:
            raise CTError("merge delay cannot be negative")
        self.log_id = log_id
        self.merge_delay = merge_delay
        self._logged_at = array("q")
        self._certificates: List[Certificate] = []

    def __len__(self) -> int:
        return len(self._certificates)

    def submit(self, certificate: Certificate, submitted_at: int) -> LogEntry:
        """Submit a precert; it is incorporated after the merge delay."""
        if not certificate.is_precert:
            raise CTError("logs in this simulation accept only precertificates")
        times = self._logged_at
        logged_at = submitted_at + self.merge_delay
        if times and logged_at < times[-1]:
            # Logs serialise incorporation; respect monotone order.
            logged_at = times[-1]
        index = len(times)
        times.append(logged_at)
        self._certificates.append(certificate)
        return LogEntry(index, logged_at, certificate)

    def entries(self) -> Iterator[LogEntry]:
        """Every entry in log order."""
        return map(LogEntry, count(), self._logged_at, self._certificates)
