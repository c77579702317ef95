"""Simulation time substrate: windows, RNG streams, timelines."""

from repro.simtime.clock import (
    DAY,
    HOUR,
    MINUTE,
    PAPER_WINDOW,
    BLOCKLIST_WINDOW,
    SECOND,
    WEEK,
    Window,
    day_floor,
    days,
    hours,
    isoformat,
    minutes,
    month_key,
    parse_duration,
    seconds,
    to_datetime,
    utc,
)
from repro.simtime.rng import (
    RngStream,
    StreamBank,
    WeightedSampler,
    derive_seed,
    spawn,
    stable_bucket,
    stable_hash01,
)
from repro.simtime.timeline import BooleanTimeline, Timeline, merge_change_times

__all__ = [
    "SECOND", "MINUTE", "HOUR", "DAY", "WEEK",
    "PAPER_WINDOW", "BLOCKLIST_WINDOW",
    "Window",
    "day_floor", "days", "hours", "isoformat", "minutes", "month_key",
    "parse_duration", "seconds", "to_datetime", "utc",
    "RngStream", "StreamBank",
    "WeightedSampler", "derive_seed", "spawn",
    "stable_bucket", "stable_hash01",
    "BooleanTimeline", "Timeline", "merge_change_times",
]
