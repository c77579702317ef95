"""Benchmark fixtures: one bench-scale world shared across all benches.

The bench world runs at 1/200 of the paper's volumes (≈87 k
registrations, ≈69 k CT-observed certificates) with the ccTLD
ground-truth population at full paper scale, so §4.4b compares absolute
counts.

This module is also imported *standalone* (no pytest installed) by the
bench CLIs for the baseline helpers, so the pytest dependency is
optional.

## Perf-baseline regression policy

``BENCH_<name>.json`` files committed next to the benches are the perf
trajectory: one machine-readable data point per harness per PR.  Only
each harness's CLI writes its baseline; a ``pytest benchmarks`` run
never rewrites one.  ``check_against_baseline`` fails a run when a lower-is-better metric
(wall seconds, lag) exceeds the committed value by more than
``REGRESSION_TOLERANCE`` (2x).  The tolerance is deliberately loose:
baselines are recorded on whatever machine produced the PR, CI runners
are slower and noisy, and the check exists to catch *algorithmic*
regressions (an accidental O(n^2), a dropped cache), not scheduler
jitter.  Comparisons are skipped entirely when the measurement point
(scale, seed, config) differs from the committed one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, List

try:
    import pytest
except ImportError:  # standalone bench CLI usage
    pytest = None

#: Committed perf baselines live next to the benches that produce them.
BASELINE_DIR = Path(__file__).resolve().parent

#: Append-only perf history: one compact record per --check-baseline run.
TREND_PATH = BASELINE_DIR / "TREND.jsonl"

#: Fail when a lower-is-better metric regresses by more than this factor
#: against the committed baseline (see module docstring).
REGRESSION_TOLERANCE = 2.0

#: 1/200 of the paper's population (Table 1: 16.3 M zone NRDs).
BENCH_SCALE = 1 / 200
BENCH_SEED = 7


def _atomic_write_text(path: Path, text: str) -> None:
    """Durably replace ``path``: write sidecar tmp, fsync, rename.

    Bench artifacts are the repo's perf ledger; a run killed mid-write
    (CI timeout, ^C) must never leave a half-written baseline or a
    truncated trend history behind.  ``os.replace`` makes the swap
    atomic on POSIX; the fsync makes it durable before the rename.
    """
    tmp = path.parent / (path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_baseline(name: str, payload: dict) -> Path:
    """Persist a machine-readable ``BENCH_<name>.json`` perf baseline.

    One file per harness (probes/sec, p99 lag, ...) so the perf
    trajectory across PRs is a series of comparable data points.
    Written atomically (tmp + rename) so an interrupted run cannot
    corrupt a committed baseline.
    """
    path = BASELINE_DIR / f"BENCH_{name}.json"
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True)
                       + "\n")
    return path


def append_trend(record: dict) -> Path:
    """Append one compact run record to ``benchmarks/TREND.jsonl``.

    Where ``BENCH_<name>.json`` holds only the *latest* committed data
    point, the trend file is the append-only history: every
    ``--check-baseline`` run adds one line (timestamp, git rev,
    measurement point, key metrics, fingerprint, pass/fail), so the
    perf trajectory across PRs and CI runs can be plotted from one
    file.  Records are single-line JSON, oldest first.

    The append goes through a full atomic rewrite (existing lines +
    the new one → tmp + rename): the history is small, and a crash
    mid-append must not leave a torn last line that poisons every
    later plot of the file.
    """
    existing = ""
    if TREND_PATH.exists():
        existing = TREND_PATH.read_text(encoding="utf-8")
        if existing and not existing.endswith("\n"):
            existing += "\n"
    _atomic_write_text(TREND_PATH,
                       existing + json.dumps(record, sort_keys=True) + "\n")
    return TREND_PATH


def check_against_baseline(name: str, report: dict,
                           lower_is_better: Iterable[str] = (),
                           scale_keys: Iterable[str] = (),
                           tolerance: float = REGRESSION_TOLERANCE,
                           ) -> List[str]:
    """Compare a fresh report against the committed ``BENCH_<name>.json``.

    Returns a list of human-readable problems (empty = no regression).
    ``scale_keys`` name the fields that define the measurement point;
    when they differ from the committed baseline the comparison is
    skipped (different scale, different machine class — not comparable).
    """
    path = BASELINE_DIR / f"BENCH_{name}.json"
    if not path.exists():
        return [f"no committed baseline {path.name}"]
    committed = json.loads(path.read_text())
    for key in scale_keys:
        if committed.get(key) != report.get(key):
            return []
    problems: List[str] = []
    for metric in lower_is_better:
        old = committed.get(metric)
        new = report.get(metric)
        if old is None or new is None:
            continue
        if new > old * tolerance:
            problems.append(
                f"BENCH_{name}.{metric} regressed: {new} vs committed "
                f"{old} (tolerance {tolerance}x)")
    return problems


if pytest is not None:

    from repro.core.pipeline import run_pipeline
    from repro.workload.scenario import ScenarioConfig, build_world

    @pytest.fixture(scope="session")
    def world():
        return build_world(ScenarioConfig(
            seed=BENCH_SEED, scale=BENCH_SCALE,
            include_cctld=True, cctld_scale=1.0))

    @pytest.fixture(scope="session")
    def result(world):
        return run_pipeline(world)


def check_report(report, min_ok_fraction: float = 0.8) -> None:
    """Print the paper-vs-measured report and assert the shape holds."""
    print()
    print(report.render())
    ok, total = report.holding()
    assert total == 0 or ok / total >= min_ok_fraction, (
        f"{report.experiment}: only {ok}/{total} metrics within tolerance")
