"""Segmented append-only log backing the feed-distribution service.

The public feed must be servable to many consumers at different read
positions, which an in-memory list cannot do once the feed outgrows a
single process lifetime.  :class:`SegmentedLog` stores feed records in
**segments** — bounded runs of consecutive offsets — that roll when they
reach a record-count or time-span limit, exactly like the log segments
of a Kafka partition.  Each segment carries an offset index (its base
offset) and a time index (first/last record timestamp), so replaying
"everything since timestamp T" touches only the segments whose time
range can overlap T instead of scanning the whole log.

Sealed segments can be persisted as JSONL files under a directory and
reloaded later, which is how a feed server restarts without replaying
the producing pipeline.  A per-domain **compaction** pass rewrites
sealed segments keeping only the newest record per domain — the
"current state" view consumers ask for when they do not care about
history (the same contract as a Kafka compacted topic).

Persistence is crash-safe: segment files are written to a tmp file,
fsynced, and atomically renamed into place, and every line carries a
CRC32 column (``<json>\\t<crc32 hex>``).  A line without a valid CRC
column is corrupt.  :meth:`SegmentedLog.load` therefore **never
raises** on a damaged directory: the longest clean prefix of each file
is salvaged, torn tails (a CRC-less line counts as torn) are
quarantined to a ``.torn`` sidecar, later segments are re-based over
any lost records, and all of it is counted in
:meth:`SegmentedLog.stats` and the process-wide ``resilience`` metric
group.  A ``log.torn_write`` fault plan tears writes deterministically
to exercise exactly this path.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.feed import FeedRecord
from repro.errors import OffsetError, SegmentCorruptionError, ServeError
from repro.obs.log import get_logger
from repro.resilience.faults import FaultPlan
from repro.resilience.metrics import get_resilience_metrics


def encode_segment_line(json_text: str) -> str:
    """One persisted log line: compact JSON + tab + CRC32 of the JSON.

    Compact JSON contains no raw tab, so the last tab always separates
    the checksum column.
    """
    crc = zlib.crc32(json_text.encode("utf-8")) & 0xFFFFFFFF
    return f"{json_text}\t{crc:08x}"


def decode_segment_line(line: str) -> str:
    """Verify a persisted line's CRC and return the JSON payload.

    Raises :class:`~repro.errors.SegmentCorruptionError` on a missing
    CRC column, a checksum mismatch or an unparseable checksum field.
    """
    text, sep, crc_hex = line.rpartition("\t")
    if not sep:
        raise SegmentCorruptionError("no CRC column")
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        raise SegmentCorruptionError(
            f"unparseable CRC field {crc_hex!r}") from None
    actual = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise SegmentCorruptionError(
            f"CRC mismatch: {actual:08x} != {expected:08x}")
    return text


@dataclass(frozen=True)
class SegmentInfo:
    """Index entry describing one segment (for stats and lookups)."""

    base_offset: int
    length: int
    first_ts: int
    last_ts: int
    sealed: bool

    @property
    def end_offset(self) -> int:
        return self.base_offset + self.length


class Segment:
    """One bounded run of consecutive offsets."""

    __slots__ = ("base_offset", "records", "first_ts", "last_ts", "sealed")

    def __init__(self, base_offset: int) -> None:
        self.base_offset = base_offset
        self.records: List[FeedRecord] = []
        self.first_ts: Optional[int] = None
        self.last_ts: Optional[int] = None
        self.sealed = False

    def __len__(self) -> int:
        return len(self.records)

    @property
    def end_offset(self) -> int:
        return self.base_offset + len(self.records)

    def append(self, record: FeedRecord) -> int:
        if self.sealed:
            raise ServeError("cannot append to a sealed segment")
        if self.first_ts is None:
            self.first_ts = record.seen_at
        # Producers may publish slightly out of order; the time index
        # must cover the true min/max to keep replay_since() correct.
        self.first_ts = min(self.first_ts, record.seen_at)
        self.last_ts = (record.seen_at if self.last_ts is None
                        else max(self.last_ts, record.seen_at))
        offset = self.end_offset
        self.records.append(record)
        return offset

    def info(self) -> SegmentInfo:
        return SegmentInfo(
            base_offset=self.base_offset, length=len(self.records),
            first_ts=self.first_ts if self.first_ts is not None else 0,
            last_ts=self.last_ts if self.last_ts is not None else 0,
            sealed=self.sealed)


class SegmentedLog:
    """An offset-addressed log of feed records with rolling segments.

    ``max_segment_records`` and ``max_segment_span`` bound each
    segment's record count and covered time span; hitting either rolls
    the active segment.  ``directory`` (optional) enables persistence:
    sealed segments are written as ``segment-<base>.jsonl`` on roll and
    on :meth:`flush`.
    """

    def __init__(self, max_segment_records: int = 4096,
                 max_segment_span: Optional[int] = None,
                 directory: Optional[Path] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        if max_segment_records <= 0:
            raise ServeError("max_segment_records must be positive")
        if max_segment_span is not None and max_segment_span <= 0:
            raise ServeError("max_segment_span must be positive")
        self.max_segment_records = max_segment_records
        self.max_segment_span = max_segment_span
        self.directory = Path(directory) if directory is not None else None
        if isinstance(fault_plan, str):
            fault_plan = FaultPlan.parse(fault_plan)
        self.fault_plan = fault_plan
        self._segments: List[Segment] = [Segment(0)]
        self._compactions = 0
        #: Salvage accounting, populated by :meth:`load` on a damaged
        #: directory (and surfaced in :meth:`stats`).
        self.torn_lines = 0
        self.records_salvaged = 0
        self.segments_quarantined = 0

    # -- append / roll --------------------------------------------------------

    @property
    def _active(self) -> Segment:
        return self._segments[-1]

    @property
    def start_offset(self) -> int:
        """First offset still held (compaction may advance it past 0)."""
        return self._segments[0].base_offset

    @property
    def end_offset(self) -> int:
        """Offset the next appended record will receive."""
        return self._active.end_offset

    def __len__(self) -> int:
        return sum(len(s) for s in self._segments)

    def append(self, record: FeedRecord) -> int:
        """Append one record, rolling the active segment when full."""
        active = self._active
        if self._should_roll(active, record):
            self.roll()
            active = self._active
        return active.append(record)

    def _should_roll(self, segment: Segment, record: FeedRecord) -> bool:
        if not len(segment):
            return False
        if len(segment) >= self.max_segment_records:
            return True
        if self.max_segment_span is not None and segment.first_ts is not None:
            span = max(record.seen_at, segment.last_ts or 0) - segment.first_ts
            if span >= self.max_segment_span:
                return True
        return False

    def roll(self) -> Optional[SegmentInfo]:
        """Seal the active segment and open a new one.

        No-op (returns None) when the active segment is empty.  Sealed
        segments are persisted immediately when a directory is set.
        """
        active = self._active
        if not len(active):
            return None
        active.sealed = True
        if self.directory is not None:
            self._write_segment(active)
        self._segments.append(Segment(active.end_offset))
        return active.info()

    # -- reads ----------------------------------------------------------------

    def read(self, offset: int, max_records: int = 500) -> List[FeedRecord]:
        """Read up to ``max_records`` starting at a global offset."""
        if offset < 0:
            raise OffsetError(f"negative offset {offset}")
        if offset < self.start_offset:
            raise OffsetError(
                f"offset {offset} compacted away (log starts at "
                f"{self.start_offset})")
        out: List[FeedRecord] = []
        for segment in self._find_segments_from(offset):
            if len(out) >= max_records:
                break
            start = max(0, offset - segment.base_offset)
            out.extend(segment.records[start:start + max_records - len(out)])
        return out

    def _find_segments_from(self, offset: int) -> Iterator[Segment]:
        """Segments that may contain ``offset`` or later (binary search)."""
        lo, hi = 0, len(self._segments) - 1
        first = len(self._segments) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._segments[mid].end_offset > offset:
                first = mid
                hi = mid - 1
            else:
                lo = mid + 1
        return iter(self._segments[first:])

    def replay_since(self, since_ts: int,
                     max_records: Optional[int] = None) -> List[FeedRecord]:
        """All records with ``seen_at >= since_ts``, using the time index.

        Segments whose ``last_ts`` precedes ``since_ts`` are skipped
        without touching their records.
        """
        out: List[FeedRecord] = []
        for segment in self._segments:
            if segment.last_ts is None or segment.last_ts < since_ts:
                continue
            for record in segment.records:
                if record.seen_at >= since_ts:
                    out.append(record)
                    if max_records is not None and len(out) >= max_records:
                        return out
        return out

    def iter_records(self) -> Iterator[FeedRecord]:
        for segment in self._segments:
            yield from segment.records

    # -- compaction -----------------------------------------------------------

    def compact(self) -> int:
        """Rewrite sealed segments keeping only the newest record per
        domain; returns the number of records dropped.

        Offsets of surviving records change (they are re-packed into
        fresh sealed segments starting at the old ``start_offset``), so
        compaction is for state-serving logs, not offset-stable replay —
        the same trade Kafka's compacted topics make.  The active
        (unsealed) segment is left untouched.
        """
        sealed = [s for s in self._segments if s.sealed]
        if not sealed:
            return 0
        latest: Dict[str, FeedRecord] = {}
        total = 0
        for segment in sealed:
            for record in segment.records:
                total += 1
                prior = latest.get(record.domain)
                if prior is None or record.seen_at >= prior.seen_at:
                    latest[record.domain] = record
        survivors = sorted(latest.values(),
                           key=lambda r: (r.seen_at, r.domain))
        dropped = total - len(survivors)

        rebuilt: List[Segment] = []
        base = self._segments[0].base_offset
        current = Segment(base)
        for record in survivors:
            if len(current) >= self.max_segment_records:
                current.sealed = True
                rebuilt.append(current)
                current = Segment(current.end_offset)
            current.append(record)
        current.sealed = True
        rebuilt.append(current)

        # Re-base the active segment after the compacted tail.
        active = self._segments[-1] if not self._segments[-1].sealed else None
        tail_end = rebuilt[-1].end_offset
        if active is not None:
            active.base_offset = tail_end
            self._segments = rebuilt + [active]
        else:
            self._segments = rebuilt + [Segment(tail_end)]
        self._compactions += 1
        if self.directory is not None:
            self._rewrite_directory()
        return dropped

    # -- persistence ----------------------------------------------------------

    def _segment_path(self, segment: Segment) -> Path:
        assert self.directory is not None
        return self.directory / f"segment-{segment.base_offset:012d}.jsonl"

    def _write_segment(self, segment: Segment) -> None:
        """Persist one sealed segment atomically: tmp + fsync + rename.

        The ``.tmp`` name never matches the ``segment-*.jsonl`` glob,
        so a crash mid-write leaves at worst a stray tmp file — never a
        half-written segment that :meth:`load` would pick up.  A
        ``log.torn_write`` fault truncates the payload *before* the
        rename, simulating the torn write a power cut produces on
        filesystems without data journaling.
        """
        assert self.directory is not None
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._segment_path(segment)
        payload = "".join(encode_segment_line(record.to_json()) + "\n"
                          for record in segment.records).encode("utf-8")
        plan = self.fault_plan
        if (plan is not None and payload
                and plan.fires("log.torn_write", path.name)):
            cut = 1 + plan.stream("log.torn_write", path.name).randrange(
                min(len(payload), 256))
            payload = payload[:-cut]
            get_resilience_metrics().faults_injected["log.torn_write"] += 1
        tmp = path.parent / (path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _rewrite_directory(self) -> None:
        """Replace on-disk segments after compaction re-packed offsets."""
        assert self.directory is not None
        self.directory.mkdir(parents=True, exist_ok=True)
        for stale in self.directory.glob("segment-*.jsonl"):
            stale.unlink()
        for segment in self._segments:
            if segment.sealed and len(segment):
                self._write_segment(segment)

    def flush(self) -> int:
        """Seal + persist everything buffered; returns segments written."""
        if self.directory is None:
            raise ServeError("flush() needs a log directory")
        self.roll()
        written = 0
        for segment in self._segments:
            if segment.sealed and len(segment):
                self._write_segment(segment)
                written += 1
        return written

    @staticmethod
    def _read_segment_file(path: Path) -> Tuple[List[FeedRecord], List[str]]:
        """Read one segment file, tolerating a torn tail.

        Returns ``(records, torn)``: the longest decodable prefix and
        the raw lines dropped from the first corrupt line on.  A torn
        write only ever damages a suffix, so everything after the
        first bad line is suspect and quarantined wholesale.
        """
        records: List[FeedRecord] = []
        torn: List[str] = []
        try:
            lines = path.read_text(encoding="utf-8",
                                   errors="replace").split("\n")
        except OSError:
            return [], []
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                records.append(FeedRecord.from_json(decode_segment_line(line)))
            except (SegmentCorruptionError, ValueError, KeyError, TypeError):
                torn = [l for l in lines[index:] if l.strip()]
                break
        return records, torn

    @classmethod
    def load(cls, directory: Path, **kwargs) -> "SegmentedLog":
        """Rebuild a log from a directory of sealed segment files.

        Damage-tolerant by contract: this never raises on a corrupt or
        truncated directory.  Each file contributes its longest clean
        prefix; torn tails are appended to a ``<segment>.torn`` sidecar
        and counted (:attr:`torn_lines`); files with nothing salvageable
        are dropped (:attr:`segments_quarantined`); and when records
        were lost, later segments are re-based so offsets stay
        contiguous — every complete record in the directory survives.
        Any salvage rewrites the directory to the repaired state, so the
        next load is clean.
        """
        directory = Path(directory)
        log = cls(directory=directory, **kwargs)
        paths = sorted(directory.glob("segment-*.jsonl"))
        if not paths:
            return log
        metrics = get_resilience_metrics()
        logger = get_logger("resilience")
        segments: List[Segment] = []
        next_base: Optional[int] = None
        dirty = False
        for path in paths:
            base = int(path.stem.split("-", 1)[1])
            records, torn = cls._read_segment_file(path)
            if torn:
                dirty = True
                log.torn_lines += len(torn)
                log.records_salvaged += len(records)
                metrics.torn_lines.inc(len(torn))
                metrics.records_salvaged.inc(len(records))
                sidecar = path.parent / (path.name + ".torn")
                with sidecar.open("a", encoding="utf-8") as fh:
                    for line in torn:
                        fh.write(line + "\n")
                logger.warning(
                    f"segment {path.name}: salvaged {len(records)} "
                    f"record(s), quarantined {len(torn)} torn line(s)",
                    segment=path.name, salvaged=len(records), torn=len(torn))
            if not records:
                dirty = True
                log.segments_quarantined += 1
                metrics.segments_quarantined.inc()
                continue
            if next_base is not None and base != next_base:
                # A predecessor lost tail records (or a whole file is
                # gone): close the gap so offsets stay contiguous.
                dirty = True
                logger.warning(
                    f"segment {path.name}: re-based {base} -> {next_base}",
                    segment=path.name)
            segment = Segment(next_base if next_base is not None else base)
            for record in records:
                segment.append(record)
            segment.sealed = True
            segments.append(segment)
            next_base = segment.end_offset
        if not segments:
            return log
        log._segments = segments + [Segment(segments[-1].end_offset)]
        if dirty:
            log._rewrite_directory()
        return log

    # -- introspection --------------------------------------------------------

    @property
    def compactions(self) -> int:
        return self._compactions

    def segment_infos(self) -> List[SegmentInfo]:
        return [s.info() for s in self._segments]

    def stats(self) -> Dict[str, int]:
        return {
            "segments": len(self._segments),
            "sealed_segments": sum(1 for s in self._segments if s.sealed),
            "records": len(self),
            "start_offset": self.start_offset,
            "end_offset": self.end_offset,
            "compactions": self._compactions,
            "torn_lines": self.torn_lines,
            "records_salvaged": self.records_salvaged,
            "segments_quarantined": self.segments_quarantined,
        }
