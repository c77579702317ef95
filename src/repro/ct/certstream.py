"""Certstream: the public live feed of CT log entries.

The paper's step 1 consumes Certstream, which multiplexes many CT logs
into one stream of (timestamp, certificate) messages.  The stream
timestamp — when Certstream *received* the entry — is the only usable
observation clock (precerts and logs carry no insert time, §4.1
footnote 4), so it is the timestamp every latency analysis uses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.ct.certificate import Certificate
from repro.ct.ctlog import CTLog, LogEntry
from repro.simtime.rng import stable_hash01


@dataclass(frozen=True)
class CertstreamEvent:
    """One message on the Certstream firehose."""

    seen_at: int          # Certstream-reported receive time
    log_id: str
    certificate: Certificate

    @property
    def domains(self) -> List[str]:
        return self.certificate.dns_names()

    @property
    def all_names_raw(self) -> Tuple[str, ...]:
        return (self.certificate.common_name, *self.certificate.sans)


class CertstreamFeed:
    """Merges CT logs into one time-ordered event stream.

    ``propagation_delay(log_id, entry)`` models the CT-log→Certstream
    hop (default: 1-10 s deterministic jitter).  Events are yielded in
    ``seen_at`` order across all logs, exactly what a Certstream client
    observes.
    """

    def __init__(self, logs: Iterable[CTLog],
                 max_propagation_delay: int = 10,
                 drop_prob: float = 0.0) -> None:
        self.logs = list(logs)
        self.max_propagation_delay = max_propagation_delay
        #: Certstream is best-effort; a nonzero drop probability models
        #: missed messages for robustness tests.
        self.drop_prob = drop_prob

    def _seen_at(self, log: CTLog, entry: LogEntry) -> int:
        jitter = 1 + int(stable_hash01(
            f"{log.log_id}|{entry.index}", "certstream") *
            max(0, self.max_propagation_delay - 1))
        return entry.logged_at + jitter

    def _dropped(self, log: CTLog, entry: LogEntry) -> bool:
        if self.drop_prob <= 0.0:
            return False
        return stable_hash01(f"{log.log_id}|{entry.index}", "csdrop") < self.drop_prob

    def events(self, start_ts: Optional[int] = None,
               end_ts: Optional[int] = None) -> Iterator[CertstreamEvent]:
        """All events with ``start_ts <= seen_at < end_ts``, time-ordered."""
        heap: List[Tuple[int, int, int, CertstreamEvent]] = []
        for li, log in enumerate(self.logs):
            for entry in log.entries():
                if self._dropped(log, entry):
                    continue
                seen_at = self._seen_at(log, entry)
                if start_ts is not None and seen_at < start_ts:
                    continue
                if end_ts is not None and seen_at >= end_ts:
                    continue
                event = CertstreamEvent(seen_at=seen_at, log_id=log.log_id,
                                        certificate=entry.certificate)
                heapq.heappush(heap, (seen_at, li, entry.index, event))
        while heap:
            yield heapq.heappop(heap)[3]

    def event_count(self) -> int:
        return sum(len(log) for log in self.logs)
