"""Interval timelines: piecewise-constant values over simulation time.

A :class:`Timeline` records the history of some attribute (a domain's NS
record set, its A records, its zone-presence) as a sequence of
``(start_ts, value)`` change points.  Querying the value at time *t* is a
binary search; iterating the segments overlapping a window is O(k).

This is the backbone of the *analytic monitor* (DESIGN §5.3): instead of
replaying hundreds of 10-minute probes per domain through the event
queue, the monitor samples the authoritative timeline at probe instants
by walking its few segments.  A property test asserts the two execution
strategies observe identical answers.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import (Generic, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, TypeVar)

from repro.errors import SimulationError

V = TypeVar("V")


class Timeline(Generic[V]):
    """Piecewise-constant value history with O(log n) point queries.

    Change points must be appended in non-decreasing time order; a
    change at an existing timestamp overwrites that change point (last
    write wins), mirroring how a registry's provisioning system applies
    same-second updates.

    The change points are held in tuples until the first :meth:`set`,
    which switches them to lists: most timelines are built whole and
    never change (a fresh registration's three histories hold one point
    each), and a tuple is the smallest container for them.
    """

    __slots__ = ("_times", "_values", "_initial")

    def __init__(self, initial: Optional[V] = None) -> None:
        self._times: Sequence[int] = ()
        self._values: Sequence[V] = ()
        self._initial: Optional[V] = initial

    # -- construction ---------------------------------------------------------

    def set(self, ts: int, value: V) -> None:
        """Record that the value becomes ``value`` at time ``ts``."""
        ts = int(ts)
        times = self._times
        if times and ts < times[-1]:
            raise SimulationError(
                f"timeline updates must be time-ordered: {ts} < {times[-1]}")
        if times and ts == times[-1]:
            self._thaw()
            self._values[-1] = value
            return
        # Skip no-op changes so segment counts stay minimal.
        if value == (self._values[-1] if self._values else self._initial):
            return
        self._thaw()
        self._times.append(ts)
        self._values.append(value)

    def _thaw(self) -> None:
        """Switch the change points from tuples to lists, once."""
        if type(self._times) is tuple:
            self._times = list(self._times)
            self._values = list(self._values)

    @classmethod
    def constant(cls, value: V) -> "Timeline[V]":
        """A timeline that holds ``value`` for all time."""
        return cls(initial=value)

    @classmethod
    def from_changes(cls, changes: Iterable[Tuple[int, V]],
                     initial: Optional[V] = None) -> "Timeline[V]":
        """Rebuild a timeline from ``(ts, value)`` change points.

        The inverse of :meth:`changes`, used when timelines cross a
        process boundary as compact arrays (the parallel world build's
        merge).  Change points must already be strictly time-ordered
        and minimal — exactly what :meth:`changes` yields — so no
        ordering or no-op checks are re-run.
        """
        timeline = object.__new__(cls)
        timeline._times, timeline._values = tuple(zip(*changes)) or ((), ())
        timeline._initial = initial
        return timeline

    @classmethod
    def single(cls, ts: int, value: V) -> "Timeline[V]":
        """A timeline with exactly one change point.

        Equivalent to ``t = Timeline(); t.set(ts, value)`` for non-None
        values, skipping the ordering/no-op checks — the shape every
        fresh registration creates, three timelines at a time.
        """
        timeline = object.__new__(cls)
        timeline._times = (int(ts),)
        timeline._values = (value,)
        timeline._initial = None
        return timeline

    # -- queries ---------------------------------------------------------------

    def at(self, ts: int) -> Optional[V]:
        """Value in effect at time ``ts`` (None before the first change
        if no initial value was given)."""
        idx = bisect_right(self._times, ts)
        if idx == 0:
            return self._initial
        return self._values[idx - 1]

    def at_with_next(self, ts: int) -> Tuple[Optional[V], Optional[int]]:
        """``(value at ts, time of the next change)`` in one lookup.

        The second element is None when the value holds forever — the
        seam that lets answer caches know exactly how long an answer
        stays valid instead of re-asking every probe.
        """
        idx = bisect_right(self._times, ts)
        value = self._initial if idx == 0 else self._values[idx - 1]
        nxt = self._times[idx] if idx < len(self._times) else None
        return value, nxt

    def changes(self) -> Iterator[Tuple[int, V]]:
        """Iterate ``(ts, value)`` change points in time order."""
        return iter(zip(self._times, self._values))

    def change_times(self) -> List[int]:
        return list(self._times)

    def __len__(self) -> int:
        return len(self._times)

    def __bool__(self) -> bool:
        return bool(self._times) or self._initial is not None

    def segments(self, start: int, end: int) -> Iterator[Tuple[int, int, Optional[V]]]:
        """Yield ``(seg_start, seg_end, value)`` covering ``[start, end)``.

        Segment boundaries are clipped to the window; the first segment
        carries the value already in effect at ``start``.
        """
        if end <= start:
            return
        idx = bisect_right(self._times, start)
        cursor = start
        current = self._initial if idx == 0 else self._values[idx - 1]
        while cursor < end:
            nxt = self._times[idx] if idx < len(self._times) else end
            seg_end = min(nxt, end)
            if seg_end > cursor:
                yield cursor, seg_end, current
            if idx < len(self._times):
                current = self._values[idx]
                idx += 1
            cursor = seg_end

    def value_changed_within(self, start: int, end: int) -> bool:
        """True if any change point falls inside ``(start, end]``.

        Used for the paper's §4.1 question: did a domain change its NS
        infrastructure within its first 24 hours?
        """
        idx = bisect_right(self._times, start)
        return idx < len(self._times) and self._times[idx] <= end

    def last_time_with(self, predicate, start: int, end: int,
                       step: int) -> Optional[int]:
        """Latest grid instant ``t`` in ``[start, end)`` (stepping by
        ``step``) where ``predicate(self.at(t))`` holds.

        Walks segments, not grid points, so it is O(segments), yet
        returns exactly what a probe loop stepping by ``step`` would
        have observed.  Returns None when no grid instant satisfies the
        predicate.
        """
        if step <= 0:
            raise SimulationError("step must be positive")
        best: Optional[int] = None
        for seg_start, seg_end, value in self.segments(start, end):
            if not predicate(value):
                continue
            # Last grid point in [seg_start, seg_end): grid points are
            # start + k*step.
            offset = seg_start - start
            first_k = -(-offset // step)  # ceil division
            last_k = (seg_end - 1 - start) // step
            if last_k >= first_k:
                best = start + last_k * step
        return best

    def sample(self, start: int, end: int, step: int) -> List[Tuple[int, Optional[V]]]:
        """Values a probe loop stepping by ``step`` would observe.

        Materialises the grid, so intended for tests and small windows;
        production analyses use :meth:`segments` /
        :meth:`last_time_with`.
        """
        out: List[Tuple[int, Optional[V]]] = []
        ts = start
        while ts < end:
            out.append((ts, self.at(ts)))
            ts += step
        return out


class BooleanTimeline(Timeline[bool]):
    """Timeline specialised for membership/liveness flags.

    Adds interval-oriented conveniences used by zone-presence history
    ("was this domain delegated at snapshot time?").
    """

    def __init__(self, initial: bool = False) -> None:
        super().__init__(initial=initial)

    def true_intervals(self, start: int, end: int) -> List[Tuple[int, int]]:
        """Maximal sub-intervals of ``[start, end)`` where the flag is True."""
        return [(s, e) for s, e, v in self.segments(start, end) if v]

    def ever_true(self, start: int, end: int) -> bool:
        return any(v for _, _, v in self.segments(start, end))

    def total_true(self, start: int, end: int) -> int:
        """Total seconds the flag held True within the window."""
        return sum(e - s for s, e, v in self.segments(start, end) if v)


def merge_change_times(timelines: Iterable[Timeline]) -> List[int]:
    """Sorted union of all change points across several timelines."""
    times = set()
    for tl in timelines:
        times.update(tl.change_times())
    return sorted(times)
