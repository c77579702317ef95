"""Checks of the end-to-end ledger itself (tier-1 collects this file)."""

import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_e2e  # noqa: E402


def _metric(samples):
    q1, median, q3 = bench_e2e.quartiles(samples)
    return {"median": median, "q1": q1, "q3": q3, "n": len(samples),
            "samples": list(samples)}


def _ledger(setup_s, digests):
    summary = {"correct": True, "digests": digests,
               "metrics": {"setup_s": _metric(setup_s)}}
    return {"seed": 7, "smoke": True, "workloads": {"scan": summary}}


class TestTailPercentile:
    @pytest.mark.parametrize("n, pct", [
        (11_000, 99.9), (10_000, 99.9), (9_999, 99.0), (1_000, 99.0),
        (999, 90.0), (100, 90.0), (99, 50.0), (1, 50.0)])
    def test_highest_percentile_with_ten_beyond(self, n, pct):
        assert bench_e2e.tail_percentile(n) == pct

    @pytest.mark.parametrize("n", [100, 150, 999, 1_000, 9_999, 10_000,
                                   66_000])
    def test_at_least_ten_samples_lie_beyond(self, n):
        values = list(range(n))
        tail = bench_e2e.percentile(values, bench_e2e.tail_percentile(n))
        assert sum(1 for v in values if v > tail) >= 10


@pytest.mark.parametrize("metric", ["setup_s", "read_per_s"])
class TestCompareVerdicts:
    BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02]

    def verdict(self, metric, worsen_by):
        """B is A with every sample moved by ``worsen_by`` times the
        metric's bound in its worse direction."""
        _unit, better, bound = bench_e2e.END_TO_END[metric]
        sign = -1 if better == "higher" else 1
        b_samples = [v * (1 + sign * worsen_by * bound) for v in self.BASE]
        return bench_e2e.verdict(metric, _metric(self.BASE),
                                 _metric(b_samples))

    def test_unchanged_within_bound(self, metric):
        assert self.verdict(metric, 1 / 3) == "unchanged"

    def test_worse_beyond_bound(self, metric):
        assert self.verdict(metric, 2) == "worse"

    def test_better_when_every_run_reads_better(self, metric):
        assert self.verdict(metric, -1) == "better"

    def test_unresolved_when_spread_exceeds_bound(self, metric):
        noisy = [4.0, 8.0, 10.0, 12.0, 19.0, 9.0]
        assert bench_e2e.verdict(metric, _metric(self.BASE),
                                 _metric(noisy)) == "unresolved"


def test_digest_difference_is_a_correctness_failure(capsys):
    a = _ledger(TestCompareVerdicts.BASE, {"fingerprint": "a"})
    assert bench_e2e.compare(a, a) == 0
    b = _ledger(TestCompareVerdicts.BASE, {"fingerprint": "b"})
    assert bench_e2e.compare(a, b) == 1
    assert "outputs differ" in capsys.readouterr().out


def _last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def test_mismatched_golden_fails_the_run(capsys):
    goldens = {"smoke": {"7": {"reproduce": {"fingerprint": "0" * 32}}}}
    status = bench_e2e.main(["--workload", "reproduce", "--seed", "7",
                             "--seconds", "0", "--trace", "0", "--smoke"],
                            goldens=goldens)
    result = _last_json(capsys.readouterr().out)
    assert status != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def _cpu_s():
    """CPU time of this process plus every child it has waited for."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def test_smoke_ledger_runs_all_workloads(tmp_path, capsys):
    # The 20 s budget counts CPU time, not wall time: time the children
    # spend waiting for a core or the disk does not count against it.
    start = _cpu_s()
    status = bench_e2e.main(["--smoke", "--rounds", "1", "--seed", "7",
                             "--out", str(tmp_path / "ledger.json")])
    cpu_s = _cpu_s() - start
    assert status == 0, capsys.readouterr()
    assert cpu_s <= 20.0
    ledger = json.loads((tmp_path / "ledger.json").read_text())
    assert ledger["host"]["nproc"] and ledger["host"]["rounds"] == 1
    assert (tmp_path / "ledger.spans.jsonl").stat().st_size > 0
    for name, summary in ledger["workloads"].items():
        assert summary["correct"] and summary["golden_checked"], name
        assert set(summary["metrics"]) == set(bench_e2e.END_TO_END)
        assert set(summary["layers"]) == set(bench_e2e.PER_LAYER)
        assert summary["layers"]["trace.coverage"] >= 0.99, name
    # The pool workers' peak RSS is measured.
    parallel = ledger["workloads"]["build-parallel"]
    assert parallel["layers"]["proc.worker_peak_rss_mb"] > 0
    assert bench_e2e.compare(ledger, ledger) == 0


def test_benchmark_json_mirrors_the_harness():
    spec = json.loads((bench_e2e.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["benchmarks/e2e"]
    assert spec["run_seconds"] == bench_e2e.RUN_SECONDS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in bench_e2e.WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == bench_e2e.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == bench_e2e.PER_LAYER


def test_refuses_to_run_without_the_source_tree(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e" / "bench_e2e.py"
    bench.parent.mkdir(parents=True)
    shutil.copy(bench_e2e.__file__, bench)
    proc = subprocess.run(
        [sys.executable, str(bench), "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
