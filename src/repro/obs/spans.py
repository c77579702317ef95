"""Phase spans: wall time, sim time, and peak RSS per named phase.

``with span("build.populate_shard", tld="com", month="2023-11"): ...``
times one phase of a run.  Finished spans accumulate on the process :class:`Tracer` —
per-phase call counts, wall seconds, annotated sim seconds, error
counts, and the process peak RSS observed at span exit.  The tracer
registers into the default metrics registry as the ``"spans"`` group,
so the registry snapshot (``repro metrics`` / ``--metrics-out``)
carries the phase timings for free.

The canonical phase taxonomy (``build.*``, ``pipeline.*``, ``scan.*``,
``serve.*``) is documented in ``docs/observability.md``; CI asserts the
five pipeline-step spans appear in every pipeline run's snapshot.

Design constraints, both load-bearing:

* **no RNG** — spans must never perturb a sampled value (the
  ``world_fingerprint`` goldens run with instrumentation on).  Span
  ids are sequential ints, not random;
* **cheap** — a span is two ``perf_counter`` calls, one ``getrusage``,
  and a few attribute writes.  Phases are coarse (a whole TLD
  population, a whole pipeline step), so the measured overhead on the
  1/500 build stays well under the 2 % budget.  :func:`set_enabled`
  turns tracing off entirely for the overhead measurement itself.

Spans nest: the tracer keeps a stack, so each finished span records
its parent id and depth.  The engine is single-threaded by design
(like the rest of the simulator); worker processes of the multi-core
build record into their own (forked) tracer and the parent *stitches*
the finished records back in on shard arrival via
:meth:`Tracer.adopt_spans` — span ids remapped onto the parent's
sequence, ``worker=N`` / ``tld=`` labels attached, roots re-parented
under the in-flight ``build.merge_shards`` span — so ``phase_totals()``
shows true per-shard wall time and the ``.com`` Amdahl straggler is
directly visible (the workflow is documented in
``docs/observability.md``).

RSS is reported as two fields per span, because ``ru_maxrss`` is a
*monotone process-wide high-water mark*: ``peak_rss_kb`` is that
high-water mark at span exit (nested and later spans inherit earlier
peaks), while ``rss_growth_kb`` is the amount *this* span advanced the
mark — zero for any span that stayed under an already-established
peak.  Growth is the attributable field; the peak is kept for
continuity with earlier baselines.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import get_registry

__all__ = ["Span", "Tracer", "span", "tracer", "set_enabled"]


def _peak_rss_kb() -> int:
    """Process peak RSS in KiB (ru_maxrss unit on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Span:
    """One timed phase execution (finished or in flight)."""

    __slots__ = ("name", "labels", "span_id", "parent_id", "depth",
                 "wall_sec", "sim_sec", "peak_rss_kb", "rss_growth_kb",
                 "error", "annotations", "_t0", "_rss0")

    def __init__(self, name: str, labels: Dict[str, str], span_id: int,
                 parent_id: Optional[int], depth: int) -> None:
        self.name = name
        self.labels = labels
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.wall_sec = 0.0
        self.sim_sec: Optional[int] = None
        self.peak_rss_kb = 0
        self.rss_growth_kb = 0
        self.error: Optional[str] = None
        self.annotations: Dict[str, object] = {}
        self._t0 = 0.0
        self._rss0 = 0

    def annotate(self, sim_sec: Optional[int] = None, **extra) -> "Span":
        """Attach sim-time coverage and free-form facts to the span."""
        if sim_sec is not None:
            self.sim_sec = int(sim_sec)
        if extra:
            self.annotations.update(extra)
        return self

    def as_dict(self) -> Dict[str, object]:
        """The plain-dict record for this span (JSON- and pickle-safe)."""
        record: Dict[str, object] = {
            "span": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "wall_sec": round(self.wall_sec, 6),
            "peak_rss_kb": self.peak_rss_kb,
            "rss_growth_kb": self.rss_growth_kb,
        }
        if self.labels:
            record["labels"] = dict(self.labels)
        if self.sim_sec is not None:
            record["sim_sec"] = self.sim_sec
        if self.error is not None:
            record["error"] = self.error
        if self.annotations:
            record["annotations"] = dict(self.annotations)
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Span":
        """Rebuild a finished span from its :meth:`as_dict` record.

        The inverse used by cross-process stitching: worker processes
        ship their finished spans as plain dicts (nothing but ints and
        strings crosses the pickle boundary) and the parent
        rematerialises them here before :meth:`Tracer.adopt_spans`
        remaps the ids.
        """
        span = cls(str(record["span"]),
                   dict(record.get("labels") or {}),
                   int(record["id"]),
                   None if record.get("parent") is None
                   else int(record["parent"]),
                   int(record.get("depth", 0)))
        span.wall_sec = float(record.get("wall_sec", 0.0))
        sim_sec = record.get("sim_sec")
        span.sim_sec = None if sim_sec is None else int(sim_sec)
        span.peak_rss_kb = int(record.get("peak_rss_kb", 0))
        span.rss_growth_kb = int(record.get("rss_growth_kb", 0))
        error = record.get("error")
        span.error = None if error is None else str(error)
        span.annotations = dict(record.get("annotations") or {})
        return span


class _NullSpan:
    """The do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def annotate(self, sim_sec=None, **extra):
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects finished spans and aggregates per-phase totals.

    The tracer is a registry provider: :meth:`snapshot` is the
    per-phase totals table.
    """

    #: Retained finished spans are capped so a long-lived daemon cannot
    #: grow without bound; aggregates keep counting past the cap.
    MAX_RETAINED = 100_000

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.reset()

    # -- recording ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **labels):
        """Time one phase; usable as a context manager.

        The yielded :class:`Span` accepts :meth:`Span.annotate` calls;
        exceptions are recorded on the span (``error`` = the exception
        type name) and re-raised unchanged.
        """
        if not self.enabled:
            yield _NULL_SPAN
            return
        parent = self._stack[-1] if self._stack else None
        current = Span(name, {k: str(v) for k, v in labels.items()},
                       self._next_id,
                       parent.span_id if parent is not None else None,
                       len(self._stack))
        self._next_id += 1
        self._stack.append(current)
        current._rss0 = _peak_rss_kb()
        current._t0 = time.perf_counter()
        try:
            yield current
        except BaseException as exc:
            current.error = type(exc).__name__
            raise
        finally:
            current.wall_sec = time.perf_counter() - current._t0
            current.peak_rss_kb = _peak_rss_kb()
            # ru_maxrss is a monotone process-wide high-water mark, so
            # the *growth* during the span is the attributable number —
            # a span that stayed under an earlier peak reports 0.
            current.rss_growth_kb = max(
                0, current.peak_rss_kb - current._rss0)
            self._stack.pop()
            self._finish(current)

    def _finish(self, finished: Span) -> None:
        if len(self.spans) < self.MAX_RETAINED:
            self.spans.append(finished)
        else:
            self.dropped_spans += 1
        entry = self._phases.get(finished.name)
        if entry is None:
            entry = self._phases[finished.name] = {
                "count": 0, "wall_sec": 0.0, "peak_rss_kb": 0,
                "rss_growth_kb": 0}
        entry["count"] += 1
        entry["wall_sec"] += finished.wall_sec
        if finished.peak_rss_kb > entry["peak_rss_kb"]:
            entry["peak_rss_kb"] = finished.peak_rss_kb
        entry["rss_growth_kb"] += finished.rss_growth_kb
        if finished.error is not None:
            entry["errors"] = entry.get("errors", 0) + 1
        if finished.sim_sec is not None:
            entry["sim_sec"] = entry.get("sim_sec", 0) + finished.sim_sec

    # -- cross-process stitching ----------------------------------------------

    def export_records(self) -> List[Dict[str, object]]:
        """Every retained span as a plain-dict record, finish order.

        The worker half of span stitching: the records are pickle- and
        JSON-safe, so a shard result can carry them back to the parent
        for :meth:`adopt_spans`.
        """
        return [finished.as_dict() for finished in self.spans]

    def adopt_spans(self, records: Iterable[Dict[str, object]],
                    parent: Optional[Span] = None,
                    **extra_labels) -> int:
        """Stitch finished span records from another process into this tracer.

        Args:
            records: :meth:`export_records` output (finish order — a
                child always precedes its parent, and ids within the
                batch are unique).
            parent: the local span the foreign roots are re-parented
                under (typically the in-flight ``build.merge_shards``
                span); None leaves them as roots.
            extra_labels: labels stamped onto every adopted span
                (``worker=3``, ``tld="com"``).

        Returns:
            The number of spans adopted.

        Ids are remapped onto this tracer's sequential space (foreign
        ids collide with local ones by construction), depths shift
        under the new root, and every adopted span flows through the
        same aggregate path a locally finished span does — so
        ``phase_totals()`` shows true per-shard timings regardless of
        which process did the work.
        """
        if not self.enabled:
            return 0
        records = list(records)
        id_map: Dict[int, int] = {}
        for record in records:
            id_map[int(record["id"])] = self._next_id
            self._next_id += 1
        parent_id = parent.span_id if parent is not None else None
        base_depth = parent.depth + 1 if parent is not None else 0
        stamped = {key: str(value) for key, value in extra_labels.items()}
        for record in records:
            adopted = Span.from_dict(record)
            adopted.span_id = id_map[int(record["id"])]
            foreign_parent = record.get("parent")
            if foreign_parent is not None and int(foreign_parent) in id_map:
                adopted.parent_id = id_map[int(foreign_parent)]
            else:
                adopted.parent_id = parent_id
            adopted.depth += base_depth
            if stamped:
                adopted.labels.update(stamped)
            self._finish(adopted)
        return len(records)

    # -- introspection (profiler / log correlation) ---------------------------

    def current_span(self) -> Optional[Span]:
        """The innermost in-flight span, or None outside any span.

        Safe to call from another thread (the sampling profiler): the
        stack is only ever appended/popped under the GIL, and a torn
        read degrades to "no span", never a crash.
        """
        try:
            return self._stack[-1]
        except IndexError:
            return None

    def root_span(self) -> Optional[Span]:
        """The outermost in-flight span (the trace id of a log event)."""
        try:
            return self._stack[0]
        except IndexError:
            return None

    # -- aggregates / provider protocol ---------------------------------------

    def phase_totals(self) -> Dict[str, Dict[str, object]]:
        """Per-phase aggregate table, keyed by canonical phase name."""
        return {phase: {**entry, "wall_sec": round(entry["wall_sec"], 4)}
                for phase, entry in sorted(self._phases.items())}

    def snapshot(self) -> Dict[str, object]:
        return self.phase_totals()

    def reset(self) -> None:
        """Drop every retained span and aggregate."""
        self.spans: List[Span] = []
        self.dropped_spans = 0
        self._stack: List[Span] = []
        self._next_id = 0
        #: Per-phase aggregates, in the :meth:`phase_totals` shape
        #: (``errors`` and ``sim_sec`` appear once a span brings one).
        self._phases: Dict[str, Dict[str, float]] = {}


#: The process tracer, registered as the registry's "spans" group.
_TRACER = Tracer()
get_registry().register("spans", _TRACER)


def tracer() -> Tracer:
    """The process-wide tracer instrumented code records into."""
    return _TRACER


def span(name: str, **labels):
    """Shorthand for ``tracer().span(name, **labels)``."""
    return _TRACER.span(name, **labels)


def set_enabled(flag: bool) -> None:
    """Enable/disable the process tracer (the overhead-bench switch)."""
    _TRACER.enabled = flag
