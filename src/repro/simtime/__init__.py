"""Simulation time substrate: clocks, RNG streams, timelines, events."""

from repro.simtime.clock import (
    DAY,
    HOUR,
    MINUTE,
    PAPER_WINDOW,
    BLOCKLIST_WINDOW,
    SECOND,
    WEEK,
    SimClock,
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
from repro.simtime.events import EventHandle, EventLoop, PeriodicTask
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
    "SimClock", "Window",
    "day_floor", "days", "hours", "isoformat", "minutes", "month_key",
    "parse_duration", "seconds", "to_datetime", "utc",
    "EventHandle", "EventLoop", "PeriodicTask",
    "RngStream", "StreamBank",
    "WeightedSampler", "derive_seed", "spawn",
    "stable_bucket", "stable_hash01",
    "BooleanTimeline", "Timeline", "merge_change_times",
]
