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
                    Tuple, TypeVar, Union)

from repro.errors import SimulationError

V = TypeVar("V")


class Timeline(Generic[V]):
    """Piecewise-constant value history with O(log n) point queries.

    Change points must be appended in non-decreasing time order; a
    change at an existing timestamp overwrites that change point (last
    write wins), mirroring how a registry's provisioning system applies
    same-second updates.

    The change points take one of three shapes, smallest first:

    * none: ``_times`` and ``_values`` are empty tuples;
    * one: ``_times`` is the change time (an ``int``) and ``_values``
      the value itself, with no container at all;
    * two or more: parallel lists.

    Most timelines hold one point for life (a fresh registration's
    three histories), so they stay scalars; the :meth:`set` that adds a
    second point switches to lists.  Queries branch on the shape
    instead of building a container.
    """

    __slots__ = ("_times", "_values", "_initial")

    def __init__(self, initial: Optional[V] = None) -> None:
        self._times: Union[int, Sequence[int]] = ()
        self._values: Union[V, Sequence[V]] = ()
        self._initial: Optional[V] = initial

    # -- construction ---------------------------------------------------------

    def set(self, ts: int, value: V) -> None:
        """Record that the value becomes ``value`` at time ``ts``."""
        ts = int(ts)
        times = self._times
        if type(times) is int:
            if ts < times:
                raise SimulationError(
                    f"timeline updates must be time-ordered: {ts} < {times}")
            if ts == times:
                self._values = value
            elif value != self._values:
                self._times = [times, ts]
                self._values = [self._values, value]
            return
        if times:
            last = times[-1]
            if ts < last:
                raise SimulationError(
                    f"timeline updates must be time-ordered: {ts} < {last}")
            if ts == last:
                self._values[-1] = value
            elif value != self._values[-1]:
                times.append(ts)
                self._values.append(value)
            return
        # Skip no-op changes so segment counts stay minimal.
        if value != self._initial:
            self._times = ts
            self._values = value

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
        columns = tuple(zip(*changes))
        if not columns:
            timeline._times = timeline._values = ()
        elif len(columns[0]) == 1:
            timeline._times, timeline._values = int(columns[0][0]), columns[1][0]
        else:
            timeline._times, timeline._values = map(list, columns)
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
        timeline._times = int(ts)
        timeline._values = value
        timeline._initial = None
        return timeline

    # -- queries ---------------------------------------------------------------

    def at(self, ts: int) -> Optional[V]:
        """Value in effect at time ``ts`` (None before the first change
        if no initial value was given)."""
        times = self._times
        if type(times) is int:
            return self._values if ts >= times else self._initial
        idx = bisect_right(times, ts)
        if idx == 0:
            return self._initial
        return self._values[idx - 1]

    def at_with_next(self, ts: int) -> Tuple[Optional[V], Optional[int]]:
        """``(value at ts, time of the next change)`` in one lookup.

        The second element is None when the value holds forever — the
        seam that lets answer caches know exactly how long an answer
        stays valid instead of re-asking every probe.
        """
        times = self._times
        if type(times) is int:
            if ts >= times:
                return self._values, None
            return self._initial, times
        idx = bisect_right(times, ts)
        value = self._initial if idx == 0 else self._values[idx - 1]
        nxt = times[idx] if idx < len(times) else None
        return value, nxt

    def changes(self) -> Iterator[Tuple[int, V]]:
        """Iterate ``(ts, value)`` change points in time order."""
        if type(self._times) is int:
            return iter(((self._times, self._values),))
        return iter(zip(self._times, self._values))

    def change_times(self) -> List[int]:
        if type(self._times) is int:
            return [self._times]
        return list(self._times)

    def __len__(self) -> int:
        if type(self._times) is int:
            return 1
        return len(self._times)

    def __bool__(self) -> bool:
        return (type(self._times) is int or bool(self._times)
                or self._initial is not None)

    def segments(self, start: int, end: int) -> Iterator[Tuple[int, int, Optional[V]]]:
        """Yield ``(seg_start, seg_end, value)`` covering ``[start, end)``.

        Segment boundaries are clipped to the window; the first segment
        carries the value already in effect at ``start``.
        """
        if end <= start:
            return
        times = self._times
        if type(times) is int:
            if start < times:
                yield start, min(times, end), self._initial
                if times < end:
                    yield times, end, self._values
            else:
                yield start, end, self._values
            return
        idx = bisect_right(times, start)
        cursor = start
        current = self._initial if idx == 0 else self._values[idx - 1]
        while cursor < end:
            nxt = times[idx] if idx < len(times) else end
            seg_end = min(nxt, end)
            if seg_end > cursor:
                yield cursor, seg_end, current
            if idx < len(times):
                current = self._values[idx]
                idx += 1
            cursor = seg_end

    def value_changed_within(self, start: int, end: int) -> bool:
        """True if any change point falls inside ``(start, end]``.

        Used for the paper's §4.1 question: did a domain change its NS
        infrastructure within its first 24 hours?
        """
        times = self._times
        if type(times) is int:
            return start < times <= end
        idx = bisect_right(times, start)
        return idx < len(times) and times[idx] <= end

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
