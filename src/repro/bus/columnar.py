"""Columnar record store — the Parquet-on-object-storage stand-in.

The paper persists every measurement to Parquet files in object storage
for longitudinal analysis.  :class:`ColumnStore` keeps the same shape:
append row dicts, store them column-wise, filter/project efficiently,
and round-trip to a simple portable JSON container on disk.  No
third-party dependency — the point is the access pattern, not the codec.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.errors import BusError


class ColumnStore:
    """An append-only table stored column-wise.

    Point and range lookups can be served from lazily built secondary
    indexes (:meth:`rows_where`, :meth:`rows_in_range`): an index is
    created on first use, caught up incrementally on later queries, and
    never blocks appends — the access pattern of a measurement sink
    that is written hot and queried occasionally.
    """

    def __init__(self, name: str, columns: Sequence[str]) -> None:
        if not columns:
            raise BusError("a table needs at least one column")
        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        self._data: Dict[str, List[Any]] = {c: [] for c in self.columns}
        # column -> ({value: [row indices]}, rows indexed so far)
        self._hash_indexes: Dict[str, List[Any]] = {}
        # column -> ([sorted values], [parallel row indices], rows so far)
        self._sorted_indexes: Dict[str, List[Any]] = {}

    def __len__(self) -> int:
        return len(self._data[self.columns[0]])

    def append(self, row: Dict[str, Any]) -> None:
        """Append one row; missing keys become None, extras are rejected."""
        extras = set(row) - set(self.columns)
        if extras:
            raise BusError(f"{self.name}: unknown columns {sorted(extras)}")
        for column in self.columns:
            self._data[column].append(row.get(column))

    def extend(self, rows: Iterator[Dict[str, Any]]) -> int:
        count = 0
        for row in rows:
            self.append(row)
            count += 1
        return count

    def column(self, name: str) -> List[Any]:
        try:
            return self._data[name]
        except KeyError:
            raise BusError(f"{self.name}: no column {name!r}") from None

    def row(self, index: int) -> Dict[str, Any]:
        return {c: self._data[c][index] for c in self.columns}

    def rows(self) -> Iterator[Dict[str, Any]]:
        for i in range(len(self)):
            yield self.row(i)

    def filter(self, predicate: Callable[[Dict[str, Any]], bool]) -> "ColumnStore":
        out = ColumnStore(self.name, self.columns)
        for row in self.rows():
            if predicate(row):
                out.append(row)
        return out

    def select(self, *columns: str) -> List[Tuple]:
        cols = [self.column(c) for c in columns]
        return list(zip(*cols)) if cols else []

    def group_count(self, column: str) -> Dict[Any, int]:
        counts: Dict[Any, int] = {}
        for value in self.column(column):
            counts[value] = counts.get(value, 0) + 1
        return counts

    # -- indexed lookups ---------------------------------------------------------

    def _hash_index(self, column: str) -> Dict[Any, List[int]]:
        values = self.column(column)
        state = self._hash_indexes.get(column)
        if state is None:
            state = [{}, 0]
            self._hash_indexes[column] = state
        index, upto = state
        for i in range(upto, len(values)):
            index.setdefault(values[i], []).append(i)
        state[1] = len(values)
        return index

    def rows_where(self, column: str, value: Any) -> List[Dict[str, Any]]:
        """All rows whose ``column`` equals ``value`` (hash-indexed)."""
        return [self.row(i) for i in self._hash_index(column).get(value, ())]

    def _sorted_index(self, column: str) -> Tuple[List[Any], List[int]]:
        values = self.column(column)
        state = self._sorted_indexes.get(column)
        if state is None:
            state = [[], [], 0]
            self._sorted_indexes[column] = state
        keys, rows, upto = state
        if upto < len(values):
            for i in range(upto, len(values)):
                keys.append(values[i])
                rows.append(i)
            order = sorted(range(len(keys)), key=keys.__getitem__)
            state[0] = [keys[j] for j in order]
            state[1] = [rows[j] for j in order]
            state[2] = len(values)
        return state[0], state[1]

    def rows_in_range(self, column: str, lo: Any, hi: Any) -> List[Dict[str, Any]]:
        """Rows with ``lo <= column < hi``, in column order (sorted index)."""
        keys, rows = self._sorted_index(column)
        start = bisect_left(keys, lo)
        end = bisect_left(keys, hi)
        return [self.row(i) for i in rows[start:end]]

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "columns": list(self.columns),
                "data": {c: self._data[c] for c in self.columns}}

    def save(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, separators=(",", ":"))

    @classmethod
    def load(cls, path: Path) -> "ColumnStore":
        with Path(path).open("r", encoding="utf-8") as fh:
            payload = json.load(fh)
        store = cls(payload["name"], payload["columns"])
        store._data = {c: list(v) for c, v in payload["data"].items()}
        lengths = {len(v) for v in store._data.values()}
        if len(lengths) > 1:
            raise BusError(f"{path}: ragged columns {lengths}")
        return store

