"""The public newly-registered-domain feed ("zonestream").

Contribution (2) of the paper: an open live feed of newly registered
domains, including transients, published for the research community.
:class:`PublicFeed` is that artefact — an ordered stream of detection
records with JSONL round-tripping so downstream users can replay it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.records import Candidate
from repro.heap import frozen_slots
from repro.obs.log import get_logger
from repro.simtime.clock import DAY, day_floor, isoformat

log = get_logger("core.feed")

#: One record as compact JSON with sorted keys (see FeedRecord.to_json).
_JSON_TEMPLATE = ('{"domain":%s,"seen_at":%r,"seen_at_iso":"%s",'
                  '"source":%s,"tld":%s}')
#: The string encoder json.dumps uses under its default ensure_ascii.
_quote = json.encoder.encode_basestring_ascii


@frozen_slots
@dataclass(frozen=True)
class FeedRecord:
    """One message on the public feed."""

    domain: str
    tld: str
    seen_at: int
    source: str = "ct"

    def to_json(self) -> str:
        # The text of json.dumps(..., separators=(",", ":"),
        # sort_keys=True) over the five fields, written out: every
        # sealed log segment encodes each of its records, and building
        # and sorting a dict per record cost four times this.
        quote = _quote
        return _JSON_TEMPLATE % (quote(self.domain), self.seen_at,
                                 isoformat(self.seen_at), quote(self.source),
                                 quote(self.tld))

    @classmethod
    def from_json(cls, line: str) -> "FeedRecord":
        """Parse one feed line.

        Raises ValueError, KeyError or TypeError for a line that is not
        a record: a missing field, a ``domain``, ``tld`` or ``source``
        that is not a string, or a ``seen_at`` that is not a finite
        whole number (JSON admits ``Infinity`` and ``1e400``, a bool is
        an int).
        """
        payload = json.loads(line)
        domain, tld = payload["domain"], payload["tld"]
        source = payload.get("source", "ct")
        if not all(isinstance(text, str) for text in (domain, tld, source)):
            raise TypeError("domain, tld and source must be strings")
        seen_at = payload["seen_at"]
        if isinstance(seen_at, bool) or not isinstance(seen_at, (int, float)):
            raise TypeError(f"seen_at must be a number: {seen_at!r}")
        if not (math.isfinite(seen_at) and seen_at == int(seen_at)):
            raise ValueError(f"seen_at must be a whole number: {seen_at!r}")
        return cls(domain=domain, tld=tld, seen_at=int(seen_at),
                   source=source)


def read_jsonl_records(path: Path,
                       quarantine: bool = True) -> Tuple[List[FeedRecord], int]:
    """Read feed records from a JSONL file, tolerating corruption.

    Blank lines are ignored; malformed lines are skipped and counted.
    With ``quarantine`` (the default) the rejected lines are also
    preserved verbatim in a ``<name>.rejects`` sidecar next to the
    archive, so a corrupted feed can be triaged (and re-ingested after
    repair) instead of silently losing data.  Returns ``(records,
    skipped)`` — the shared loader behind :meth:`PublicFeed.from_jsonl`
    and the feed server's archive replay, so their tolerance semantics
    cannot drift apart.
    """
    path = Path(path)
    records: List[FeedRecord] = []
    rejects: List[str] = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(FeedRecord.from_json(line))
            except (ValueError, KeyError, TypeError):
                rejects.append(line)
    if rejects:
        from repro.resilience.metrics import get_resilience_metrics
        get_resilience_metrics().rejected_lines.inc(len(rejects))
        if quarantine:
            sidecar = path.parent / (path.name + ".rejects")
            with sidecar.open("a", encoding="utf-8") as fh:
                for line in rejects:
                    fh.write(line)
                    fh.write("\n")
            log.warning(
                f"{path}: quarantined {len(rejects)} malformed feed "
                f"line(s) to {sidecar.name}",
                skipped=len(rejects), sidecar=str(sidecar))
    return records, len(rejects)


class PublicFeed:
    """An append-only, time-ordered detection feed."""

    def __init__(self) -> None:
        self._records: List[FeedRecord] = []
        self._domains: Set[str] = set()
        #: Malformed lines skipped by the last :meth:`from_jsonl` load.
        self.load_errors: int = 0

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FeedRecord]:
        return iter(self._records)

    def publish(self, candidate: Candidate) -> FeedRecord:
        record = FeedRecord(domain=candidate.domain, tld=candidate.tld,
                            seen_at=candidate.ct_seen_at)
        self._records.append(record)
        self._domains.add(record.domain)
        return record

    def finalize(self) -> None:
        """Sort by observation time (publishers may ingest out of order)."""
        self._records.sort(key=lambda r: (r.seen_at, r.domain))

    @property
    def domains(self) -> Set[str]:
        return set(self._domains)

    def records_on_day(self, day_start: int) -> List[FeedRecord]:
        day_start = day_floor(day_start)
        return [r for r in self._records
                if day_start <= r.seen_at < day_start + DAY]

    def domains_on_day(self, day_start: int) -> Set[str]:
        return {r.domain for r in self.records_on_day(day_start)}

    # -- persistence ----------------------------------------------------------

    def to_jsonl(self, path: Path) -> int:
        """Write the feed as JSON lines; returns the record count."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for record in self._records:
                fh.write(record.to_json())
                fh.write("\n")
        return len(self._records)

    @classmethod
    def from_jsonl(cls, path: Path) -> "PublicFeed":
        """Load a feed archive, quarantining malformed lines.

        Real archive files get truncated and corrupted; one bad line
        must not lose the rest of the feed.  Rejected lines are counted
        in :attr:`load_errors`, preserved in the ``.rejects`` sidecar,
        and reported once through the structured log (level
        ``warning``, logger ``core.feed``) by the shared loader.  The
        loaded feed is re-finalized so ordering invariants hold even
        for archives written out of order.
        """
        feed = cls()
        records, skipped = read_jsonl_records(path)
        for record in records:
            feed._records.append(record)
            feed._domains.add(record.domain)
        feed.load_errors = skipped
        feed.finalize()
        return feed
