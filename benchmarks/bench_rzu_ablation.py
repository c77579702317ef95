"""Ablation A — the value of Rapid Zone Updates (paper §5).

Sweeps the snapshot cadence from the CZDS daily file down to Verisign's
historical 5-minute RZU cadence and measures how the transient blind
spot closes.  This is the paper's qualitative §5 argument made
quantitative: at a 5-minute cadence virtually no registration escapes
the zone-file record.
"""

import pytest

from benchmarks.conftest import check_report
from repro.analysis.visibility import DEFAULT_CADENCES, rzu_report, rzu_sweep
from repro.workload.scenario import ScenarioConfig

#: A smaller world, built once and re-read at every cadence point.
SWEEP_CONFIG = ScenarioConfig(
    seed=13, scale=1 / 2000, include_cctld=False,
    tlds=["com", "net", "xyz", "online", "site", "top"])


def test_rzu_cadence_sweep(benchmark):
    points = benchmark.pedantic(
        rzu_sweep, args=(SWEEP_CONFIG, DEFAULT_CADENCES),
        rounds=1, iterations=1)
    report = rzu_report(points)
    check_report(report, min_ok_fraction=1.0)
    # The blind spot must shrink monotonically as cadence accelerates.
    counts = [p.true_transients for p in points]
    assert all(a >= b for a, b in zip(counts, counts[1:])), counts
    assert counts[-1] < counts[0] * 0.1
