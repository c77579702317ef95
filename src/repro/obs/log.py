"""Structured logging: levels, span correlation, duplicate suppression.

The process log router replaces the ad-hoc ``print(..., file=sys.stderr)``
sites in the CLI and the ``warnings.warn`` escape hatch in the core:
every event flows through one :class:`LogRouter` that renders a
human-readable line on stderr (the default) and, when a JSONL sink is
attached (``--log-json PATH``), one JSON object per event with the
schema::

    {"ts": 1722..., "level": "info", "logger": "cli",
     "msg": "world: 34,016 registrations",
     "span": 17, "trace": 3, ...extra fields}

``span`` / ``trace`` are the correlation ids: the innermost and
outermost *in-flight* span ids of the process tracer at emit time
(``null`` outside any span) — so a log line joins the span records
(:meth:`~repro.obs.spans.Tracer.export_records`) on span id and the
phase timeline on trace id.  The keys are
always present.

Duplicate suppression is rate-limited per ``(logger, level, message)``
key: the first occurrence always emits; identical events inside
``suppress_window`` seconds of the last *emitted* one are counted, not
written, and the next emission past the window carries the swallowed
count (``repeats`` in JSON, ``[xN suppressed]`` on stderr).  A feed
loader hitting ten thousand malformed lines produces two log lines,
not ten thousand.

Everything is stdlib-only and draws from no RNG stream; wall-clock
timestamps appear only in log output, never in anything fingerprinted.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, Optional, TextIO, Tuple

from repro.obs.spans import tracer

__all__ = ["LogRouter", "Logger", "get_logger", "router"]

#: Numeric severities, stdlib-logging compatible.
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warning": 30,
                          "error": 40}


class LogRouter:
    """Fans log events to the stderr renderer and the JSONL sink.

    Args:
        level: minimum severity rendered (events below it are dropped
            before suppression bookkeeping).
        stream: human-readable output target; None resolves
            ``sys.stderr`` at emit time (so pytest capture and
            redirection keep working).
        clock: injectable time source for the suppression window
            (tests pin it).
        suppress_window: seconds during which an identical
            ``(logger, level, msg)`` event is swallowed and counted.
    """

    def __init__(self, level: str = "info",
                 stream: Optional[TextIO] = None,
                 clock: Callable[[], float] = time.time,
                 suppress_window: float = 5.0) -> None:
        self.set_level(level)
        self._stream = stream
        self._clock = clock
        self.suppress_window = suppress_window
        self._json_file: Optional[TextIO] = None
        #: (logger, level, msg) -> [last emit ts, swallowed count].
        self._recent: Dict[Tuple[str, str, str], list] = {}
        self.emitted = 0
        self.suppressed = 0

    # -- configuration --------------------------------------------------------

    def set_level(self, level: str) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r} "
                             f"(expected one of {sorted(LEVELS)})")
        self.level = level
        self._threshold = LEVELS[level]

    def open_json(self, path) -> None:
        """Attach (or replace) the JSONL sink at ``path`` (append mode)."""
        self.close_json()
        self._json_file = open(path, "a", encoding="utf-8")

    def close_json(self) -> None:
        if self._json_file is not None:
            self._json_file.close()
            self._json_file = None

    # -- emission -------------------------------------------------------------

    def emit(self, logger: str, level: str, msg: str, **fields) -> bool:
        """Route one event; returns True when it was actually written.

        ``error`` events bypass duplicate suppression entirely: an
        error line is always actionable and must never be swallowed
        (the CLI's exit-2 contract depends on it).
        """
        if LEVELS.get(level, 0) < self._threshold:
            return False
        now = self._clock()
        key = (logger, level, msg)
        entry = self._recent.get(key)
        if (entry is not None and level != "error"
                and now - entry[0] < self.suppress_window):
            entry[1] += 1
            self.suppressed += 1
            return False
        repeats = entry[1] if entry is not None else 0
        self._recent[key] = [now, 0]
        current = tracer().current_span()
        root = tracer().root_span()
        record = {
            "ts": round(now, 3),
            "level": level,
            "logger": logger,
            "msg": msg,
            "span": current.span_id if current is not None else None,
            "trace": root.span_id if root is not None else None,
        }
        if repeats:
            record["repeats"] = repeats
        if fields:
            record.update(fields)
        self._write(record)
        self.emitted += 1
        return True

    def _write(self, record: Dict[str, object]) -> None:
        if self._json_file is not None:
            self._json_file.write(
                json.dumps(record, sort_keys=True, default=str) + "\n")
            self._json_file.flush()
        stream = self._stream if self._stream is not None else sys.stderr
        stream.write(self._render(record) + "\n")

    @staticmethod
    def _render(record: Dict[str, object]) -> str:
        """The human line: terse for info, labelled above it."""
        msg = record["msg"]
        level = record["level"]
        parts = [str(msg) if level == "info" else f"{level}: {msg}"]
        repeats = record.get("repeats")
        if repeats:
            parts.append(f"[x{repeats} suppressed]")
        return " ".join(parts)


class Logger:
    """A named facade over the shared router (``get_logger("cli")``)."""

    __slots__ = ("name", "_router")

    def __init__(self, name: str, log_router: LogRouter) -> None:
        self.name = name
        self._router = log_router

    def debug(self, msg: str, **fields) -> bool:
        return self._router.emit(self.name, "debug", msg, **fields)

    def info(self, msg: str, **fields) -> bool:
        return self._router.emit(self.name, "info", msg, **fields)

    def warning(self, msg: str, **fields) -> bool:
        return self._router.emit(self.name, "warning", msg, **fields)

    def error(self, msg: str, **fields) -> bool:
        return self._router.emit(self.name, "error", msg, **fields)


#: The process router every Logger shares.
_ROUTER = LogRouter()


def router() -> LogRouter:
    """The process-wide log router."""
    return _ROUTER


def get_logger(name: str) -> Logger:
    """A named logger bound to the process router."""
    return Logger(name, _ROUTER)

