"""Sampling profiler with span-phase attribution.

:class:`SamplingProfiler` is a stdlib-only wall-clock profiler: a
background daemon thread wakes every ``interval`` seconds, grabs the
target thread's live frame from ``sys._current_frames()``, and counts
the call stack it sees.  Each sample is attributed to the *innermost
active span* of the tracer at that instant (via
:meth:`~repro.obs.spans.Tracer.current_span`), so the output answers
"where inside ``build.populate_shard`` does the time actually go" — the
evidence any hot-path optimisation needs before it starts.

Output formats:

* :meth:`collapsed` / :meth:`write_collapsed` — flamegraph-compatible
  collapsed stacks, one ``frame;frame;...;leaf count`` line per
  distinct stack, with the attributed phase as the root frame
  (``flamegraph.pl`` and speedscope both read this directly).

Design constraints, matching the rest of ``repro.obs``:

* **no RNG, no perturbation** — sampling reads frames, it never runs
  code in the target thread; the ``world_fingerprint`` goldens hold
  with the profiler on (pinned by test);
* **cheap** — one ``sys._current_frames()`` call and a frame walk per
  sample.  At the default 10 ms interval (100 Hz, py-spy's default)
  the measured overhead on the 1/500 build stays under the 5 %
  acceptance budget even with every worker of a multi-core build
  sampling itself;
* **idempotent** — :meth:`start` on a running profiler and
  :meth:`stop` on a stopped one are no-ops, so CLI wiring never has to
  track profiler state.

Cross-process stitching: worker processes of the multi-core build run
their own profiler over their own tracer and ship
:meth:`export_counts` back in the shard payload; the parent folds them
in with :meth:`merge_counts`, so the collapsed output covers the whole
build no matter which process executed a phase.  When the pool
oversubscribes the machine (jobs > cores) the scenario layer scales
the workers' interval by the oversubscription factor, keeping sample
density — and overhead — per CPU-second constant.  :func:`active`
exposes the most recently started profiler so the scenario layer can
discover whether a build is being profiled without threading a handle
through every call site.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.spans import Tracer, tracer

__all__ = ["SamplingProfiler", "active"]

#: Phase label for samples taken outside any active span.
UNATTRIBUTED = "(unattributed)"

#: The most recently started (and not yet stopped) profiler.
_ACTIVE: Optional["SamplingProfiler"] = None


def _frame_name(frame) -> str:
    """``module.function`` for one frame (file basename as fallback)."""
    module = frame.f_globals.get("__name__")
    if not module:
        filename = frame.f_code.co_filename
        module = filename.rsplit("/", 1)[-1]
    return f"{module}.{frame.f_code.co_name}"


class SamplingProfiler:
    """Sample one thread's stacks, attributed to the active span phase.

    Args:
        interval: seconds between samples (default 10 ms — 100 Hz,
            comfortably inside the 5 % overhead budget).
        trace: the tracer whose span stack attributes samples
            (default: the process tracer).
        thread_ident: identity of the thread to sample (default: the
            main thread — the simulator is single-threaded by design).
    """

    DEFAULT_INTERVAL = 0.01

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 trace: Optional[Tracer] = None,
                 thread_ident: Optional[int] = None) -> None:
        if not interval > 0:        # also rejects NaN
            raise ValueError(f"interval must be positive: {interval}")
        self.interval = interval
        self._tracer = trace if trace is not None else tracer()
        self._ident = (thread_ident if thread_ident is not None
                       else threading.main_thread().ident)
        #: collapsed stack (phase-rooted, ";"-joined) -> sample count.
        self._counts: Dict[str, int] = {}
        #: Guards _counts: the sampler thread increments while the main
        #: thread may be merging a worker's counts mid-build.
        self._lock = threading.Lock()
        self.samples = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the sampling thread (no-op if already running)."""
        global _ACTIVE
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True)
        self._thread.start()
        _ACTIVE = self
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling and join the thread (no-op if not running)."""
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = None
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join()
        self._thread = None
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample_once()

    def _sample_once(self) -> None:
        frame = sys._current_frames().get(self._ident)
        if frame is None:
            return
        names: List[str] = []
        while frame is not None:
            names.append(_frame_name(frame))
            frame = frame.f_back
        names.reverse()                      # root-first, leaf last
        current = self._tracer.current_span()
        phase = current.name if current is not None else UNATTRIBUTED
        key = ";".join([phase] + names)
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1
            self.samples += 1

    # -- cross-process merge --------------------------------------------------

    def export_counts(self) -> List[Tuple[str, int]]:
        """The raw ``(collapsed stack, count)`` pairs, pickle-safe.

        The worker half of profile stitching: a shard result carries
        this list back to the parent for :meth:`merge_counts`.
        """
        with self._lock:
            return sorted(self._counts.items())

    def merge_counts(self, counts: Iterable[Tuple[str, int]]) -> int:
        """Fold another profiler's exported counts into this one."""
        merged = 0
        with self._lock:
            for key, n in counts:
                self._counts[key] = self._counts.get(key, 0) + n
                self.samples += n
                merged += n
        return merged

    # -- output ---------------------------------------------------------------

    def collapsed(self) -> List[str]:
        """Flamegraph-collapsed stacks: ``phase;frame;...;leaf count``.

        Sorted by descending count (ties by stack) so the hottest
        stacks lead; empty when no samples were taken.
        """
        with self._lock:
            items = list(self._counts.items())
        return [f"{stack} {count}"
                for stack, count in sorted(items,
                                           key=lambda kv: (-kv[1], kv[0]))]

    def write_collapsed(self, path) -> int:
        """Write the collapsed stacks to ``path``; returns the line count."""
        lines = self.collapsed()
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
        return len(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "running" if self.running else "stopped"
        return (f"SamplingProfiler(interval={self.interval}, "
                f"samples={self.samples}, {state})")


def active() -> Optional[SamplingProfiler]:
    """The most recently started, not-yet-stopped profiler (or None).

    The scenario layer consults this so worker processes of a profiled
    multi-core build know to profile themselves too — without the
    profiler handle having to thread through every build call site.
    """
    return _ACTIVE

