"""Tests for repro.simtime.timeline, including the grid-sampling
equivalence that justifies the analytic monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simtime.timeline import Timeline


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


#: Falsy values alongside truthy ones: a lone change point is stored
#: as the bare value, so no query may test it for truth.
_VALUES = st.sampled_from(["", (), 0, "a", "b"])


@st.composite
def history_and_cut(draw):
    # A narrow time range makes ts == 0 and same-timestamp overwrites
    # common.
    changes = draw(st.lists(st.tuples(st.integers(0, 40), _VALUES),
                            min_size=1, max_size=12))
    changes.sort(key=lambda c: c[0])
    initial = draw(st.one_of(st.none(), _VALUES))
    return changes, draw(st.integers(0, len(changes))), initial


class _Model:
    """Reference timeline: a plain list of change points answered by
    brute force, sharing no code with any :class:`Timeline` shape."""

    def __init__(self, changes, initial=None):
        self.initial = initial
        self.points = []
        for ts, value in changes:
            if self.points and ts == self.points[-1][0]:
                self.points[-1] = (ts, value)
            elif value != (self.points[-1][1] if self.points else initial):
                self.points.append((ts, value))

    def changes(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __bool__(self):
        return bool(self.points) or self.initial is not None

    def at(self, ts):
        value = self.initial
        for at, v in self.points:
            if at <= ts:
                value = v
        return value

    def at_with_next(self, ts):
        return self.at(ts), next((at for at, _ in self.points if at > ts),
                                 None)

    def segments(self, start, end):
        cuts = [start] + [at for at, _ in self.points if start < at < end]
        return iter([(a, b, self.at(a))
                      for a, b in zip(cuts, cuts[1:] + [end]) if a < b])

    def value_changed_within(self, start, end):
        return any(start < at <= end for at, _ in self.points)


def _assert_same_answers(got, want):
    assert list(got.changes()) == list(want.changes())
    assert len(got) == len(want)
    assert bool(got) == bool(want)
    probes = sorted({-1, 0, 41} | {ts + d for ts, _ in want.changes()
                                   for d in (-1, 0, 1)})
    for ts in probes:
        assert got.at(ts) == want.at(ts)
        assert got.at_with_next(ts) == want.at_with_next(ts)
    for start in probes:
        for end in probes:
            assert (list(got.segments(start, end))
                    == list(want.segments(start, end)))
            assert (got.value_changed_within(start, end)
                    == want.value_changed_within(start, end))


class TestLonePointShape:
    """A lone change point is held as two scalars that the set() adding
    a second point turns into lists; whichever constructor a timeline
    started from, its answers must equal the brute-force model's."""

    @given(history_and_cut())
    @settings(max_examples=200)
    def test_from_changes_then_set_matches_set_alone(self, data):
        changes, cut, initial = data
        tl = Timeline.from_changes(
            _Model(changes[:cut], initial).changes(), initial)
        _assert_same_answers(tl, _Model(changes[:cut], initial))
        for ts, value in changes[cut:]:
            tl.set(ts, value)
        _assert_same_answers(tl, _Model(changes, initial))

    @given(history_and_cut())
    @settings(max_examples=200)
    def test_single_then_set_matches_set_alone(self, data):
        changes, _, _ = data
        tl = Timeline.single(*changes[0])
        _assert_same_answers(tl, _Model(changes[:1]))
        for ts, value in changes[1:]:
            tl.set(ts, value)
        _assert_same_answers(tl, _Model(changes))

    @given(history_and_cut())
    @settings(max_examples=200)
    def test_set_alone_matches_the_model(self, data):
        changes, _, initial = data
        tl = Timeline(initial)
        for ts, value in changes:
            tl.set(ts, value)
        _assert_same_answers(tl, _Model(changes, initial))

    def test_lone_falsy_change_at_zero_is_not_empty(self):
        for tl in (Timeline.single(0, ""), Timeline.from_changes([(0, 0)])):
            assert tl and len(tl) == 1
            assert tl.at(-1) is None and tl.at(0) in ("", 0)
            assert tl.at_with_next(-1) == (None, 0)
        assert not Timeline.from_changes([])
        assert len(Timeline.from_changes([])) == 0

    def test_out_of_order_set_rejected_on_a_lone_point(self):
        tl = Timeline.single(10, "a")
        with pytest.raises(SimulationError):
            tl.set(9, "b")

