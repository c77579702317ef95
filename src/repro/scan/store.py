"""Columnar sink for raw probe outcomes.

The paper archives every measurement to Parquet-on-object-storage for
longitudinal analysis; :class:`ProbeResultStore` is that sink for the
scan engine, built on the bus's :class:`~repro.bus.columnar.ColumnStore`
(one row per probe outcome) with the two queries longitudinal analysis
actually needs: everything about one domain, and everything inside a
time range.  Both are served from the column store's lazily built
secondary indexes, so appends stay O(1) while queries avoid full scans.

The store is optional — at 100 k domains × 288 instants the raw table
is tens of millions of rows, so the engine only records probes when a
store is attached (the CLI's ``--store`` flag, tests, forensics).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from repro.bus.columnar import ColumnStore
from repro.dnscore.message import Response

#: One row per probe outcome (including retries and dedup hits).
PROBE_COLUMNS = ("domain", "tld", "ts", "nominal_ts", "qtype", "rcode",
                 "answers", "worker", "attempt", "negcache")


class ProbeResultStore:
    """Append-only probe-outcome table with domain and time queries."""

    def __init__(self, name: str = "scan.probes") -> None:
        self.table = ColumnStore(name, PROBE_COLUMNS)

    def __len__(self) -> int:
        return len(self.table)

    def record(self, domain: str, tld: str, ts: int, nominal_ts: int,
               response: Response, worker: int, attempt: int,
               negcache: bool) -> None:
        # ``ts`` is the engine's execution time, passed explicitly:
        # dedup'd responses are reused across instants, so their
        # ``served_at`` reflects first construction, not this probe.
        self.table.append({
            "domain": domain,
            "tld": tld,
            "ts": ts,
            "nominal_ts": nominal_ts,
            "qtype": response.query.qtype.value,
            "rcode": response.rcode.name,
            "answers": "|".join(sorted(r.rdata for r in response.records)),
            "worker": worker,
            "attempt": attempt,
            "negcache": negcache,
        })

    # -- queries ---------------------------------------------------------------

    def for_domain(self, domain: str) -> List[Dict[str, Any]]:
        """Every probe outcome recorded for ``domain``, append order."""
        return self.table.rows_where("domain", domain)

    def time_range(self, start: int, end: int) -> List[Dict[str, Any]]:
        """Probe outcomes with ``start <= ts < end``, in time order."""
        return self.table.rows_in_range("ts", start, end)

    def rcode_counts(self) -> Dict[str, int]:
        return self.table.group_count("rcode")

    def qtype_counts(self) -> Dict[str, int]:
        return self.table.group_count("qtype")

    # -- persistence -----------------------------------------------------------

    def save(self, path: Path) -> None:
        self.table.save(Path(path))

    @classmethod
    def load(cls, path: Path) -> "ProbeResultStore":
        store = cls.__new__(cls)
        store.table = ColumnStore.load(Path(path))
        return store

    def summary(self) -> Dict[str, Any]:
        return {
            "rows": len(self),
            "domains": len(set(self.table.column("domain"))),
            "rcodes": self.rcode_counts(),
            "qtypes": self.qtype_counts(),
        }
