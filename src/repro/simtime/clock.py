"""Simulation time: epochs, windows, and duration parsing.

All simulation timestamps are integral **seconds** relative to the Unix
epoch.  The paper's observation window (1 Nov 2023 -- 31 Jan 2024) is
exposed as :data:`PAPER_WINDOW`.  Durations are plain ints; helpers such
as :func:`minutes` and :func:`parse_duration` keep call sites readable.
"""

from __future__ import annotations

import calendar
import datetime as _dt
import re
import time
from dataclasses import dataclass

from repro.errors import ConfigError

SECOND = 1
MINUTE = 60
HOUR = 3600
DAY = 86400
WEEK = 7 * DAY

_DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*(s|sec|m|min|h|hr|d|day|w)s?\s*$", re.I)

_UNIT_SECONDS = {
    "s": SECOND, "sec": SECOND,
    "m": MINUTE, "min": MINUTE,
    "h": HOUR, "hr": HOUR,
    "d": DAY, "day": DAY,
    "w": WEEK,
}


def seconds(n: float) -> int:
    """Return ``n`` seconds as an integral duration."""
    return int(round(n))


def minutes(n: float) -> int:
    """Return ``n`` minutes in seconds."""
    return int(round(n * MINUTE))


def hours(n: float) -> int:
    """Return ``n`` hours in seconds."""
    return int(round(n * HOUR))


def days(n: float) -> int:
    """Return ``n`` days in seconds."""
    return int(round(n * DAY))


def parse_duration(text: str) -> int:
    """Parse ``"45m"``, ``"6h"``, ``"2 days"`` ... into seconds.

    Raises :class:`~repro.errors.ConfigError` on unparseable input.
    """
    match = _DURATION_RE.match(text)
    if match is None:
        raise ConfigError(f"unparseable duration: {text!r}")
    value, unit = match.groups()
    return int(round(float(value) * _UNIT_SECONDS[unit.lower()]))


def utc(year: int, month: int, day: int, hour: int = 0,
        minute: int = 0, second: int = 0) -> int:
    """Return the Unix timestamp of the given UTC wall-clock instant."""
    return calendar.timegm((year, month, day, hour, minute, second))


def to_datetime(ts: int) -> _dt.datetime:
    """Convert a simulation timestamp to an aware UTC datetime."""
    return _dt.datetime.fromtimestamp(ts, tz=_dt.timezone.utc)


def isoformat(ts: int) -> str:
    """Render a timestamp as ``YYYY-MM-DDTHH:MM:SSZ``."""
    # What to_datetime(ts).strftime(...) gives (datetime formats through
    # time.strftime too), without building the datetime.
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


def day_floor(ts: int) -> int:
    """Truncate a timestamp to 00:00:00 UTC of its day."""
    return ts - ts % DAY


def month_key(ts: int) -> str:
    """Return ``"YYYY-MM"`` for a timestamp (used for per-month tables)."""
    return to_datetime(ts).strftime("%Y-%m")


@dataclass(frozen=True)
class Window:
    """A half-open time interval ``[start, end)``.

    The paper's analyses all operate over such windows: the 3-month
    observation window, per-month slices, and the 48-hour monitoring
    window of each domain.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ConfigError(f"window ends before it starts: {self}")

    def __contains__(self, ts: int) -> bool:
        return self.start <= ts < self.end

    @property
    def duration(self) -> int:
        return self.end - self.start

    def clamp(self, ts: int) -> int:
        """Clamp a timestamp into the window (end-exclusive by 1 s)."""
        return max(self.start, min(ts, self.end - 1))

    def days(self):
        """Iterate over the 00:00 UTC boundaries covered by the window."""
        day = day_floor(self.start)
        if day < self.start:
            day += DAY
        while day < self.end:
            yield day
            day += DAY

    def months(self):
        """Return the ordered distinct ``YYYY-MM`` keys the window spans."""
        keys = []
        day = day_floor(self.start)
        while day < self.end:
            key = month_key(day)
            if not keys or keys[-1] != key:
                keys.append(key)
            day += DAY
        return keys

    def split_months(self):
        """Split the window into per-calendar-month sub-windows."""
        parts = []
        cursor = self.start
        while cursor < self.end:
            dt = to_datetime(cursor)
            if dt.month == 12:
                nxt = utc(dt.year + 1, 1, 1)
            else:
                nxt = utc(dt.year, dt.month + 1, 1)
            parts.append(Window(cursor, min(nxt, self.end)))
            cursor = min(nxt, self.end)
        return parts

    def overlaps(self, other: "Window") -> bool:
        return self.start < other.end and other.start < self.end


#: The paper's measurement window: 1 Nov 2023 00:00 UTC -- 31 Jan 2024 24:00 UTC.
PAPER_WINDOW = Window(utc(2023, 11, 1), utc(2024, 2, 1))

#: Blocklist observation extends to 29 Apr 2024 (paper §4.3).
BLOCKLIST_WINDOW = Window(utc(2023, 11, 1), utc(2024, 4, 30))

