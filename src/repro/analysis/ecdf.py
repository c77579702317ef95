"""Empirical CDFs — the paper's Figures 1 and 2 are CDF plots.

Pure-Python ECDF with the operations the analyses need: probability at
a value, quantiles, evaluation over a grid (the paper's log-scale tick
grid), and a terminal-friendly rendering so benchmark harnesses can
print the "figure" as a series.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigError
from repro.simtime.clock import DAY, HOUR, MINUTE


class ECDF:
    """Empirical cumulative distribution of a numeric sample."""

    def __init__(self, samples: Iterable[float]) -> None:
        self._sorted: List[float] = sorted(samples)

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def is_empty(self) -> bool:
        return not self._sorted

    def prob_at(self, value: float) -> float:
        """P(X <= value)."""
        if not self._sorted:
            return 0.0
        return bisect_right(self._sorted, value) / len(self._sorted)

    def quantile(self, p: float) -> float:
        """Smallest x with P(X <= x) >= p."""
        if not self._sorted:
            raise ConfigError("quantile of empty ECDF")
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"quantile p out of range: {p}")
        if p == 0.0:
            return self._sorted[0]
        index = min(len(self._sorted) - 1,
                    max(0, int(p * len(self._sorted) + 0.999999) - 1))
        return self._sorted[index]

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    def on_grid(self, grid: Sequence[float]) -> List[Tuple[float, float]]:
        """(x, P(X<=x)) over an x grid — a printable CDF curve."""
        return [(x, self.prob_at(x)) for x in grid]

    def min(self) -> float:
        if not self._sorted:
            raise ConfigError("min of empty ECDF")
        return self._sorted[0]

    def max(self) -> float:
        if not self._sorted:
            raise ConfigError("max of empty ECDF")
        return self._sorted[-1]


def format_duration(seconds: float) -> str:
    """Human-readable duration for grid labels (30s, 15m, 6h, 1d)."""
    seconds = int(seconds)
    if seconds < MINUTE:
        return f"{seconds}s"
    if seconds < HOUR:
        return f"{seconds // MINUTE}m"
    if seconds < DAY:
        if seconds % HOUR == 0:
            return f"{seconds // HOUR}h"
        return f"{seconds / HOUR:.1f}h"
    if seconds % DAY == 0:
        return f"{seconds // DAY}d"
    return f"{seconds / DAY:.1f}d"


def render_cdf(ecdf: ECDF, grid: Sequence[float], label: str = "CDF",
               width: int = 40) -> str:
    """ASCII rendering of a CDF over a grid (one row per tick)."""
    lines = [f"{label} (n={len(ecdf)})"]
    for x, p in ecdf.on_grid(grid):
        bar = "#" * int(round(p * width))
        lines.append(f"  {format_duration(x):>6}  {p:6.3f}  {bar}")
    return "\n".join(lines)


def cdf_series(samples_by_key: Dict[str, Iterable[float]],
               grid: Sequence[float]) -> Dict[str, List[Tuple[float, float]]]:
    """Per-key CDF curves over a shared grid (Fig 1's per-TLD series)."""
    return {key: ECDF(samples).on_grid(grid)
            for key, samples in samples_by_key.items()}
