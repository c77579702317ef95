"""Benchmark fixtures: one bench-scale world shared across all benches.

The bench world runs at 1/200 of the paper's volumes (≈87 k
registrations, ≈69 k CT-observed certificates) with the ccTLD
ground-truth population at full paper scale, so §4.4b compares absolute
counts.

This module is also imported *standalone* (no pytest installed) by
``bench_scenarios.py`` for the baseline writer, so the pytest dependency
is optional.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

try:
    import pytest
except ImportError:  # standalone bench CLI usage
    pytest = None

#: Committed baselines live next to the benches that produce them.
BASELINE_DIR = Path(__file__).resolve().parent

#: 1/200 of the paper's population (Table 1: 16.3 M zone NRDs).
BENCH_SCALE = 1 / 200
BENCH_SEED = 7


def _atomic_write_text(path: Path, text: str) -> None:
    """Durably replace ``path``: write sidecar tmp, fsync, rename.

    A run killed mid-write (CI timeout, ^C) must never leave a
    half-written committed baseline behind.  ``os.replace`` makes the
    swap atomic on POSIX; the fsync makes it durable before the rename.
    """
    tmp = path.parent / (path.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_baseline(name: str, payload: dict) -> Path:
    """Persist a machine-readable ``BENCH_<name>.json`` baseline.

    Written atomically (tmp + rename) so an interrupted run cannot
    corrupt a committed baseline.
    """
    path = BASELINE_DIR / f"BENCH_{name}.json"
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True)
                       + "\n")
    return path


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
