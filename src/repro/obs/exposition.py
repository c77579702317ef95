"""Exposition: the registry as Prometheus text or a JSON snapshot.

Two operator-facing renderings of a :class:`~repro.obs.metrics.MetricsRegistry`:

* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` headers, escaped label values, cumulative
  histogram buckets), what ``repro metrics --format prom`` prints;
* :func:`to_json` — the nested ``{group: snapshot}`` dict that
  ``--metrics-out PATH`` writes and the bench scripts embed.

Plus the inverse tooling the tests and CI lint ride on:

* :func:`parse_prometheus` — a minimal parser of the text format back
  into ``{name: {"type": ..., "samples": [(labels, value), ...]}}``,
  exact enough for a round-trip property test;
* :func:`lint_prometheus` — a format lint (name syntax, TYPE-before-
  sample discipline, histogram series completeness, monotone buckets)
  used by the CI observability-smoke job.

Metric names are assembled as ``<prefix>_<group>_<metric>`` with every
non-``[a-zA-Z0-9_:]`` character collapsed to ``_`` — the span phase
names keep their dots only inside *label values*, which the escaping
rules below protect byte-exactly (backslash, double quote, newline).
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "escape_label_value", "unescape_label_value",
    "to_prometheus", "to_json",
    "parse_prometheus", "lint_prometheus",
]

_NAME_OK_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)\s*$")
_LABEL_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)='
    r'"(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)')


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, LF."""
    return (value.replace("\\", r"\\")
                 .replace('"', r'\"')
                 .replace("\n", r"\n"))


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value` (single left-to-right pass)."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:                      # unknown escape: keep verbatim
                out.append(ch)
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _sanitize(name: str) -> str:
    sanitized = _SANITIZE_RE.sub("_", name)
    if not sanitized or not _NAME_OK_RE.match(sanitized):
        sanitized = "_" + sanitized
    return sanitized


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # bools are ints; be explicit
        return "1" if value else "0"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = [f'{key}="{escape_label_value(str(labels[key]))}"'
             for key in labels]
    return "{" + ",".join(parts) + "}"


def to_prometheus(registry: Optional[MetricsRegistry] = None,
                  prefix: str = "repro") -> str:
    """Render the registry in the Prometheus text exposition format."""
    registry = registry if registry is not None else get_registry()
    lines: List[str] = []
    seen: set = set()
    for group, metric in registry.collect():
        fullname = _sanitize(f"{prefix}_{group}_{metric.name}")
        if fullname not in seen:
            seen.add(fullname)
            help_text = (metric.help or metric.name).replace(
                "\\", r"\\").replace("\n", r"\n")
            lines.append(f"# HELP {fullname} {help_text}")
            lines.append(f"# TYPE {fullname} {metric.kind}")
        for suffix, labels, value in metric.samples():
            lines.append(f"{fullname}{suffix}{_render_labels(labels)} "
                         f"{_format_value(value)}")
    return "\n".join(lines) + "\n"


def to_json(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry snapshot as a JSON document (sorted keys)."""
    registry = registry if registry is not None else get_registry()
    return json.dumps(registry.snapshot(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Parsing / linting (tests + the CI exposition lint)
# ---------------------------------------------------------------------------

def _parse_labels(text: str) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    pos = 0
    while pos < len(text):
        match = _LABEL_RE.match(text, pos)
        if match is None:
            raise ValueError(f"unparseable label segment: {text[pos:]!r}")
        labels[match.group("key")] = unescape_label_value(
            match.group("value"))
        pos = match.end()
    return labels


def _base_name(sample_name: str, typed: Dict[str, str]) -> str:
    """Map a histogram series name back to its family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            family = sample_name[: -len(suffix)]
            if typed.get(family) == "histogram":
                return family
    return sample_name


def parse_prometheus(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition text into ``{family: {type, help, samples}}``.

    ``samples`` is a list of ``(series_name, labels, value)`` tuples
    with label values unescaped.  Raises :class:`ValueError` on lines
    that are neither comments, blanks, nor valid samples.
    """
    families: Dict[str, Dict[str, object]] = {}
    typed: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) < 4:
                raise ValueError(f"line {lineno}: malformed TYPE comment")
            _, _, name, kind = parts
            typed[name] = kind
            families.setdefault(name, {"type": kind, "help": None,
                                       "samples": []})["type"] = kind
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            name = parts[2] if len(parts) > 2 else ""
            help_text = parts[3] if len(parts) > 3 else ""
            families.setdefault(name, {"type": None, "help": None,
                                       "samples": []})["help"] = help_text
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: unparseable sample: {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels") or "")
        raw = match.group("value")
        value = float("inf") if raw == "+Inf" else float(raw)
        family = _base_name(name, typed)
        families.setdefault(family, {"type": None, "help": None,
                                     "samples": []})
        families[family]["samples"].append((name, labels, value))
    return families


def lint_prometheus(text: str) -> List[str]:
    """A minimal exposition-format lint; returns problems (empty = ok).

    Checks: every line parses; every sample's family has a ``# TYPE``
    that precedes it and names a known type; metric and label names
    match the format's grammar; histogram families expose ``_bucket``
    series with monotonically non-decreasing counts plus ``_sum`` and
    ``_count``; no duplicate ``(series, labels)`` sample.
    """
    problems: List[str] = []
    try:
        families = parse_prometheus(text)
    except ValueError as exc:
        return [str(exc)]

    known_types = {"counter", "gauge", "histogram", "summary", "untyped"}
    # TYPE-before-sample discipline needs line order, not the parse.
    announced: set = set()
    typed: Dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            parts = line.split(None, 3)
            if len(parts) == 4:
                announced.add(parts[2])
                typed[parts[2]] = parts[3]
        elif line.strip() and not line.startswith("#"):
            match = _SAMPLE_RE.match(line)
            if match is None:
                continue
            name = match.group("name")
            family = _base_name(name, typed)
            if family not in announced:
                problems.append(f"sample {name} before its # TYPE line")

    seen_samples: set = set()
    for family, info in sorted(families.items()):
        kind = info["type"]
        if kind is None:
            problems.append(f"{family}: no # TYPE line")
        elif kind not in known_types:
            problems.append(f"{family}: unknown type {kind!r}")
        if not _NAME_OK_RE.match(family):
            problems.append(f"{family}: invalid metric name")
        for name, labels, value in info["samples"]:
            for key in labels:
                if not re.match(r"^[a-zA-Z_][a-zA-Z0-9_]*$", key):
                    problems.append(f"{name}: invalid label name {key!r}")
            dedup_key = (name, tuple(sorted(labels.items())))
            if dedup_key in seen_samples:
                problems.append(f"{name}: duplicate sample {labels}")
            seen_samples.add(dedup_key)
        if kind == "histogram":
            buckets = [(labels, value)
                       for name, labels, value in info["samples"]
                       if name.endswith("_bucket")]
            series = {name for name, _, _ in info["samples"]}
            for needed in (f"{family}_sum", f"{family}_count"):
                if needed not in series:
                    problems.append(f"{family}: missing {needed}")
            if not any(labels.get("le") == "+Inf" for labels, _ in buckets):
                problems.append(f"{family}: no le=\"+Inf\" bucket")
            last = None
            for labels, value in buckets:
                if last is not None and value < last:
                    problems.append(
                        f"{family}: bucket counts not monotone")
                    break
                last = value
    return problems
