"""Heap discipline shared across layers: the collect → pause → freeze
GC discipline of world materialisation
(:func:`~repro.workload.scenario.build_world`) and the five-step
pipeline (:meth:`~repro.core.pipeline.DarkDNSPipeline.run`), and the
decorator that slots frozen records to keep no per-instance ``__dict__``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import fields


@contextmanager
def gc_paused():
    """Suspend the cyclic GC while long-lived results are built.

    Collections triggered by the allocation count would only re-scan a
    monotonically growing heap and reclaim nothing: ≈25 % of a world
    build, and about a third of a pipeline run, whose full passes also
    walk the frozen world.  Refcounting still frees temporaries; the
    caller's GC state is restored on exit.

    On *success* the tracked heap is then ``gc.freeze()``-d into the
    permanent generation (see below).  That call is process-global:
    objects the embedding process holds at this moment are exempted
    from future cycle collection too.  Worlds and pipeline results are
    acyclic and refcount-freed, so the engine itself leaks nothing; a
    host that relies on collecting large cyclic structures created
    before the call should disable GC around it (this pause then
    becomes a no-op, and no freeze happens).  Nested use is a no-op
    for the same reason: the outermost caller keeps control.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        # Collect *before* pausing: the freeze() below permanently
        # exempts everything currently tracked from collection, so any
        # pre-existing cyclic garbage must be reaped first (the
        # documented collect-then-freeze pattern).  Earlier results
        # are already frozen, so this pass only scans the small
        # unfrozen residue.
        gc.collect()
        gc.disable()
    completed = False
    try:
        yield
        completed = True
    finally:
        if was_enabled:
            # The fresh results are live for the rest of the process,
            # but they all sit in generation 0 when collection resumes:
            # the next full collections would re-scan millions of
            # permanent objects (≈3 s of step 1 at 1/100 scale after a
            # build).  freeze() moves everything tracked into the
            # permanent generation in O(1) — objects are still freed
            # by refcounting.  A phase that *failed* only re-enables
            # collection: its half-built heap is garbage and must stay
            # collectable.
            if completed:
                gc.freeze()
            gc.enable()


def frozen_slots(cls):
    """Rebuild a frozen dataclass with ``__slots__`` and no ``__dict__``.

    What ``dataclass(frozen=True, slots=True)`` does on Python 3.10+,
    for the records a run keeps one of per candidate or per message;
    unlike hand-written ``__slots__``, it also takes fields with
    defaults (whose class attributes would clash with the slots).
    Apply it above ``@dataclass(frozen=True)``.  The frozen
    ``__setattr__`` would refuse the default slot-state restore, so
    copy and pickle rebuild through ``__init__`` instead.
    """
    names = tuple(f.name for f in fields(cls))
    namespace = {key: value for key, value in cls.__dict__.items()
                 if key not in names and key not in ("__dict__",
                                                      "__weakref__")}
    namespace["__slots__"] = names
    namespace["__reduce__"] = _rebuild_through_init
    slotted = type(cls)(cls.__name__, cls.__bases__, namespace)
    slotted.__qualname__ = cls.__qualname__
    return slotted


def _rebuild_through_init(self):
    return (type(self), tuple(getattr(self, name) for name in self.__slots__))
