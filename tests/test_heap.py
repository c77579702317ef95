"""Tests for the cyclic-GC discipline of :func:`repro.heap.gc_paused`."""

import gc

import pytest

from repro.heap import gc_paused


def _allocate(n=20_000):
    """Far more container allocations than the gen-0 threshold."""
    return [[i] for i in range(n)]


def test_enabled_caller_pauses_then_freezes(gc_starts):
    frozen_before = gc.get_freeze_count()
    with gc_paused():
        entry = list(gc_starts)
        del gc_starts[:]
        assert not gc.isenabled()
        kept = _allocate()
        inside = list(gc_starts)
    assert entry[-1:] == [2]  # one full collect before the pause
    assert inside == []
    assert gc.isenabled()
    assert gc.get_freeze_count() >= frozen_before + len(kept)


def test_failed_body_restores_without_freezing(gc_starts):
    frozen_before = gc.get_freeze_count()
    with pytest.raises(RuntimeError):
        with gc_paused():
            _allocate()
            raise RuntimeError("half-built")
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen_before


def test_disabled_caller_keeps_control(gc_starts):
    gc.disable()
    frozen_before = gc.get_freeze_count()
    with gc_paused():
        assert not gc.isenabled()
        _allocate()
    assert not gc.isenabled()
    assert gc_starts == []  # no entry collect either
    assert gc.get_freeze_count() == frozen_before
