"""Table rendering and paper-vs-measured comparison scaffolding.

Every benchmark prints the paper's table next to the reproduction's
measured values, so a reader can eyeball whether the *shape* holds —
ranks, percentages, crossovers — without expecting absolute counts to
match a scaled-down world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:,.1f}" if abs(value) >= 100 else f"{value:,.3g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


class TextTable:
    """A minimal aligned-text table."""

    def __init__(self, headers: Sequence[str], title: str = "") -> None:
        if not headers:
            raise ConfigError("table needs headers")
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: Any) -> None:
        if len(cells) != len(self.headers):
            raise ConfigError(
                f"row has {len(cells)} cells, table has {len(self.headers)}")
        self.rows.append([_fmt(c) for c in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        parts: List[str] = []
        if self.title:
            parts.append(self.title)
        header = "  ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        parts.append(header)
        parts.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            parts.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(parts)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Comparison:
    """One paper-vs-measured metric."""

    metric: str
    paper: float
    measured: float
    #: Relative tolerance considered "shape holds" for this metric.
    rel_tol: float = 0.25
    #: Absolute tolerance for percentage-point style metrics.
    abs_tol: Optional[float] = None

    @property
    def within_tolerance(self) -> bool:
        if self.abs_tol is not None:
            return abs(self.measured - self.paper) <= self.abs_tol
        if self.paper == 0:
            return abs(self.measured) <= self.rel_tol
        return abs(self.measured - self.paper) / abs(self.paper) <= self.rel_tol

    @property
    def ratio(self) -> Optional[float]:
        return None if self.paper == 0 else self.measured / self.paper


@dataclass
class ExperimentReport:
    """One experiment's rendered output: comparisons + tables."""

    experiment: str
    description: str
    comparisons: List[Comparison] = field(default_factory=list)
    tables: List[TextTable] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def compare(self, metric: str, paper: float, measured: float,
                rel_tol: float = 0.25,
                abs_tol: Optional[float] = None) -> Comparison:
        comparison = Comparison(metric, paper, measured, rel_tol, abs_tol)
        self.comparisons.append(comparison)
        return comparison

    @property
    def all_within_tolerance(self) -> bool:
        return all(c.within_tolerance for c in self.comparisons)

    def holding(self) -> Tuple[int, int]:
        ok = sum(1 for c in self.comparisons if c.within_tolerance)
        return ok, len(self.comparisons)

    def render(self) -> str:
        parts = [f"=== {self.experiment} — {self.description} ==="]
        if self.comparisons:
            table = TextTable(["metric", "paper", "measured", "ratio", "ok"],
                              title="paper vs measured")
            for c in self.comparisons:
                ratio = "-" if c.ratio is None else f"{c.ratio:.2f}x"
                table.add_row(c.metric, c.paper, round(c.measured, 4),
                              ratio, "yes" if c.within_tolerance else "NO")
            parts.append(table.render())
        for table in self.tables:
            parts.append(table.render())
        for note in self.notes:
            parts.append(f"note: {note}")
        ok, total = self.holding()
        parts.append(f"[{self.experiment}] {ok}/{total} metrics within tolerance")
        return "\n\n".join(parts)

    def __str__(self) -> str:
        return self.render()


def share_table(title: str, headers: Sequence[str],
                rows: Iterable[Tuple[str, int]], total: int,
                top: int = 10, others_label: str = "Others") -> TextTable:
    """Top-N share table in the paper's Table 3/4/5 format.

    ``rows`` are (name, count); remaining mass is folded into Others.
    """
    table = TextTable(headers, title=title)
    ordered = sorted(rows, key=lambda r: (-r[1], r[0]))
    shown = ordered[:top]
    others = sum(count for _, count in ordered[top:])
    for name, count in shown:
        pct = 100.0 * count / total if total else 0.0
        table.add_row(name, count, f"{pct:.1f}%")
    if others:
        pct = 100.0 * others / total if total else 0.0
        table.add_row(others_label, others, f"{pct:.1f}%")
    table.add_row("Total", total, "-")
    return table
