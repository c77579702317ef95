"""Tests for repro.simtime.clock."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.simtime.clock import (
    DAY,
    HOUR,
    MINUTE,
    PAPER_WINDOW,
    Window,
    day_floor,
    days,
    hours,
    isoformat,
    minutes,
    month_key,
    parse_duration,
    to_datetime,
    utc,
)


class TestDurations:
    def test_minutes(self):
        assert minutes(10) == 600

    def test_hours(self):
        assert hours(2) == 7200

    def test_days(self):
        assert days(1) == 86400

    def test_fractional_rounding(self):
        assert minutes(1.5) == 90
        assert hours(0.5) == 1800

    @pytest.mark.parametrize("text,expected", [
        ("45m", 45 * MINUTE),
        ("6h", 6 * HOUR),
        ("2 days", 2 * DAY),
        ("30s", 30),
        ("1w", 7 * DAY),
        ("1.5h", int(1.5 * HOUR)),
    ])
    def test_parse_duration(self, text, expected):
        assert parse_duration(text) == expected

    def test_parse_duration_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_duration("soon")

    def test_parse_duration_rejects_unknown_unit(self):
        with pytest.raises(ConfigError):
            parse_duration("5 fortnights")


class TestCalendar:
    def test_utc_epoch(self):
        assert utc(1970, 1, 1) == 0

    def test_paper_window_bounds(self):
        assert utc(2023, 11, 1) == PAPER_WINDOW.start
        assert utc(2024, 2, 1) == PAPER_WINDOW.end

    def test_isoformat_roundtrip(self):
        ts = utc(2023, 11, 15, 12, 30, 45)
        assert isoformat(ts) == "2023-11-15T12:30:45Z"

    @given(st.integers(-2 * 10**9, 253_402_300_799))
    def test_isoformat_matches_datetime(self, ts):
        assert isoformat(ts) == to_datetime(ts).strftime(
            "%Y-%m-%dT%H:%M:%SZ")

    def test_day_floor(self):
        ts = utc(2023, 11, 15, 13, 22)
        assert day_floor(ts) == utc(2023, 11, 15)

    def test_month_key(self):
        assert month_key(utc(2023, 12, 31, 23, 59)) == "2023-12"

    def test_to_datetime_is_utc(self):
        dt = to_datetime(utc(2024, 1, 1))
        assert dt.year == 2024 and dt.utcoffset().total_seconds() == 0


class TestWindow:
    def test_contains_is_half_open(self):
        window = Window(100, 200)
        assert 100 in window
        assert 199 in window
        assert 200 not in window
        assert 99 not in window

    def test_duration(self):
        assert Window(0, DAY).duration == DAY

    def test_rejects_inverted(self):
        with pytest.raises(ConfigError):
            Window(10, 5)

    def test_clamp(self):
        window = Window(100, 200)
        assert window.clamp(50) == 100
        assert window.clamp(150) == 150
        assert window.clamp(500) == 199

    def test_days_iterates_day_boundaries(self):
        window = Window(utc(2023, 11, 1), utc(2023, 11, 4))
        assert list(window.days()) == [
            utc(2023, 11, 1), utc(2023, 11, 2), utc(2023, 11, 3)]

    def test_days_skips_partial_first_day(self):
        window = Window(utc(2023, 11, 1, 5), utc(2023, 11, 3))
        assert list(window.days()) == [utc(2023, 11, 2)]

    def test_months_of_paper_window(self):
        assert PAPER_WINDOW.months() == ["2023-11", "2023-12", "2024-01"]

    def test_split_months_covers_window(self):
        parts = PAPER_WINDOW.split_months()
        assert parts[0].start == PAPER_WINDOW.start
        assert parts[-1].end == PAPER_WINDOW.end
        for left, right in zip(parts, parts[1:]):
            assert left.end == right.start

    def test_split_months_crosses_year(self):
        window = Window(utc(2023, 12, 15), utc(2024, 1, 15))
        parts = window.split_months()
        assert len(parts) == 2
        assert parts[0].end == utc(2024, 1, 1)

    def test_overlaps(self):
        assert Window(0, 10).overlaps(Window(5, 15))
        assert not Window(0, 10).overlaps(Window(10, 20))

