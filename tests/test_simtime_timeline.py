"""Tests for repro.simtime.timeline, including the grid-sampling
equivalence that justifies the analytic monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simtime.timeline import BooleanTimeline, Timeline, merge_change_times


class TestTimelineBasics:
    def test_initial_value(self):
        tl = Timeline(initial="x")
        assert tl.at(0) == "x"
        assert tl.at(10 ** 9) == "x"

    def test_no_initial_is_none(self):
        assert Timeline().at(5) is None

    def test_set_and_query(self):
        tl = Timeline()
        tl.set(100, "a")
        tl.set(200, "b")
        assert tl.at(99) is None
        assert tl.at(100) == "a"
        assert tl.at(150) == "a"
        assert tl.at(200) == "b"
        assert tl.at(10 ** 9) == "b"

    def test_same_timestamp_overwrites(self):
        tl = Timeline()
        tl.set(100, "a")
        tl.set(100, "b")
        assert tl.at(100) == "b"
        assert len(tl) == 1

    def test_noop_change_skipped(self):
        tl = Timeline(initial="a")
        tl.set(100, "a")
        assert len(tl) == 0

    def test_rejects_out_of_order(self):
        tl = Timeline()
        tl.set(100, "a")
        with pytest.raises(SimulationError):
            tl.set(50, "b")

    def test_constant(self):
        tl = Timeline.constant(42)
        assert tl.at(-100) == 42 and tl.at(10 ** 12) == 42

    def test_bool(self):
        assert not Timeline()
        assert Timeline(initial=1)
        tl = Timeline()
        tl.set(1, "a")
        assert tl


class TestSegments:
    def _make(self):
        tl = Timeline()
        tl.set(100, "a")
        tl.set(200, "b")
        tl.set(300, "c")
        return tl

    def test_segments_cover_window(self):
        segments = list(self._make().segments(50, 350))
        assert segments == [
            (50, 100, None), (100, 200, "a"), (200, 300, "b"), (300, 350, "c")]

    def test_segments_clip(self):
        segments = list(self._make().segments(150, 250))
        assert segments == [(150, 200, "a"), (200, 250, "b")]

    def test_empty_window(self):
        assert list(self._make().segments(200, 200)) == []

    def test_value_changed_within(self):
        tl = self._make()
        assert tl.value_changed_within(100, 250)
        assert not tl.value_changed_within(300, 500)

    def test_last_time_with(self):
        tl = self._make()
        # Grid from 0 step 30; 'a' holds on [100, 200): last grid 180.
        assert tl.last_time_with(lambda v: v == "a", 0, 1000, 30) == 180

    def test_last_time_with_no_match(self):
        tl = self._make()
        assert tl.last_time_with(lambda v: v == "z", 0, 1000, 30) is None

    def test_last_time_with_rejects_bad_step(self):
        with pytest.raises(SimulationError):
            self._make().last_time_with(lambda v: True, 0, 10, 0)

    def test_sample_matches_at(self):
        tl = self._make()
        for ts, value in tl.sample(0, 400, 25):
            assert value == tl.at(ts)


@st.composite
def timeline_and_grid(draw):
    changes = draw(st.lists(
        st.tuples(st.integers(0, 1000), st.sampled_from("abcd")),
        min_size=0, max_size=12))
    changes.sort(key=lambda c: c[0])
    tl = Timeline()
    for ts, value in changes:
        tl.set(ts, value)
    start = draw(st.integers(0, 500))
    end = start + draw(st.integers(1, 600))
    step = draw(st.integers(1, 60))
    return tl, start, end, step


class TestGridEquivalence:
    """segments/last_time_with must agree with brute-force grid walks —
    this property is what lets the analytic monitor replace the probe
    loop."""

    @given(timeline_and_grid())
    @settings(max_examples=200)
    def test_last_time_with_equals_bruteforce(self, data):
        tl, start, end, step = data
        predicate = lambda v: v == "a"
        brute = None
        ts = start
        while ts < end:
            if predicate(tl.at(ts)):
                brute = ts
            ts += step
        assert tl.last_time_with(predicate, start, end, step) == brute

    @given(timeline_and_grid())
    @settings(max_examples=200)
    def test_segments_agree_with_at(self, data):
        tl, start, end, _ = data
        for seg_start, seg_end, value in tl.segments(start, end):
            assert value == tl.at(seg_start)
            assert value == tl.at(seg_end - 1)

    @given(timeline_and_grid())
    @settings(max_examples=100)
    def test_segments_partition_window(self, data):
        tl, start, end, _ = data
        segments = list(tl.segments(start, end))
        assert segments[0][0] == start
        assert segments[-1][1] == end
        for left, right in zip(segments, segments[1:]):
            assert left[1] == right[0]


@st.composite
def history_and_cut(draw):
    changes = draw(st.lists(
        st.tuples(st.integers(0, 1000), st.sampled_from("abcd")),
        min_size=1, max_size=12))
    changes.sort(key=lambda c: c[0])
    return changes, draw(st.integers(0, len(changes)))


def _built_by_set(changes):
    tl = Timeline()
    for ts, value in changes:
        tl.set(ts, value)
    return tl


def _assert_same_answers(got, want):
    assert list(got.changes()) == list(want.changes())
    assert len(got) == len(want)
    probes = sorted({-1, 0, 1001} | {ts + d for ts, _ in want.changes()
                                     for d in (-1, 0, 1)})
    for ts in probes:
        assert got.at(ts) == want.at(ts)
        assert got.at_with_next(ts) == want.at_with_next(ts)
    for start, end in ((0, 1001), (probes[0], probes[-1]), (250, 750)):
        assert list(got.segments(start, end)) == list(want.segments(start, end))


class TestTupleBackedConstruction:
    """single() and from_changes() store tuples that the first set()
    turns into lists; the answers must not depend on which backing a
    timeline started with."""

    @given(history_and_cut())
    @settings(max_examples=200)
    def test_from_changes_then_set_matches_set_alone(self, data):
        changes, cut = data
        tl = Timeline.from_changes(_built_by_set(changes[:cut]).changes())
        for ts, value in changes[cut:]:
            tl.set(ts, value)
        _assert_same_answers(tl, _built_by_set(changes))

    @given(history_and_cut())
    @settings(max_examples=200)
    def test_single_then_set_matches_set_alone(self, data):
        changes, _ = data
        tl = Timeline.single(*changes[0])
        for ts, value in changes[1:]:
            tl.set(ts, value)
        _assert_same_answers(tl, _built_by_set(changes))


class TestBooleanTimeline:
    def _make(self):
        tl = BooleanTimeline()
        tl.set(100, True)
        tl.set(200, False)
        tl.set(300, True)
        return tl

    def test_true_intervals(self):
        assert self._make().true_intervals(0, 400) == [(100, 200), (300, 400)]

    def test_ever_true(self):
        tl = self._make()
        assert tl.ever_true(150, 160)
        assert not tl.ever_true(200, 300)

    def test_total_true(self):
        assert self._make().total_true(0, 400) == 200

    def test_initially_false(self):
        assert not BooleanTimeline().ever_true(0, 100)


def test_merge_change_times():
    a = Timeline()
    a.set(1, "x")
    a.set(5, "y")
    b = Timeline()
    b.set(3, "z")
    b.set(5, "w")
    assert merge_change_times([a, b]) == [1, 3, 5]
