"""End-to-end pipeline throughput.

Measures a complete five-step DarkDNS run (detection → RDAP → monitor →
validate → transient classification) over a 1/2000-scale three-month
world, plus the isolated step-1 detector on the bench world's
certstream volume — reported both *cold* (first-ever pass: the interned
names compute their PSL facts) and *steady* (best-of-rounds: every fact
is a slot read), with a per-name cost (``step1_us_per_name``) that the
CI bench-smoke job gates via ``--check-baseline``.  Run standalone for
the JSON report (also written to ``benchmarks/BENCH_pipeline.json``)::

    PYTHONPATH=src python benchmarks/bench_pipeline.py
    PYTHONPATH=src python benchmarks/bench_pipeline.py --inv-scale 500
    PYTHONPATH=src python benchmarks/bench_pipeline.py --check-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
import time

try:
    import pytest
except ImportError:  # standalone CLI usage without pytest installed
    pytest = None

from repro.core.ctdetect import CTDetector
from repro.core.pipeline import run_pipeline
from repro.obs.spans import tracer
from repro.workload.scenario import ScenarioConfig, build_world

INV_SCALE = 2000
SEED = 23


def run_pipeline_bench(inv_scale: int = INV_SCALE, seed: int = SEED,
                       rounds: int = 3) -> dict:
    """Timed step-1 and five-step runs over one world (best-of-``rounds``).

    The first detector pass is also reported separately as
    ``step1_cold_sec``: it is the run that pays one-time per-name work
    (PSL extraction caches on the interned names), which is what a real
    deployment pays continuously as never-before-seen names arrive.
    """
    world = build_world(ScenarioConfig(seed=seed, scale=1 / inv_scale,
                                       include_cctld=False))
    # Step-1 isolated: fresh detector per round over the same feed.
    step1_times = []
    names_seen = 0
    for _ in range(max(1, rounds)):
        detector = CTDetector(world.archive, world.registries.tlds())
        start = time.perf_counter()
        detector.run(world.certstream, world.window.start, world.window.end)
        step1_times.append(time.perf_counter() - start)
        names_seen = detector.stats.names_seen
    step1_cold = step1_times[0]
    step1_best = min(step1_times)
    best = None
    result = None
    for _ in range(max(1, rounds)):
        # Reset per round so the phase table covers the final run only.
        tracer().reset()
        start = time.perf_counter()
        result = run_pipeline(world)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return {
        "inv_scale": inv_scale,
        "seed": seed,
        "rounds": rounds,
        "pipeline_sec": round(best, 4),
        "step1_cold_sec": round(step1_cold, 4),
        "step1_sec": round(step1_best, 4),
        "step1_names": names_seen,
        "step1_us_per_name": round(step1_best / max(1, names_seen) * 1e6, 3),
        "candidates": len(result.candidates),
        "candidates_per_sec": round(len(result.candidates) / best, 1),
        "certstream_events": result.stats["certstream_events"],
        "events_per_sec": round(result.stats["certstream_events"] / best, 1),
        "confirmed_transients": len(result.confirmed_transients),
        # Per-step wall/RSS spans of the final pipeline round (the five
        # canonical pipeline.* phases; see docs/observability.md).
        "phases": {phase: totals
                   for phase, totals in sorted(
                       tracer().phase_totals().items())
                   if phase.startswith("pipeline.")},
    }


def check_baseline(report: dict) -> None:
    """Fail (exit 1) on a regression against BENCH_pipeline.json.

    Gates both wall times and the step-1 per-name cost, so an
    accidentally reintroduced per-observation normalize/split/PSL pass
    fails CI even if total volume shrinks.  Tolerance is the shared
    policy in ``benchmarks/conftest.py``; a measurement-point mismatch
    (inv_scale/seed differ from the committed file) is reported as a
    *skip*, never as a pass — a gate that silently compares nothing
    must not say "ok".
    """
    # Imported lazily: conftest pulls in pytest only when present.
    from conftest import BASELINE_DIR, check_against_baseline
    committed_path = BASELINE_DIR / "BENCH_pipeline.json"
    if committed_path.exists():
        committed = json.loads(committed_path.read_text())
        if any(committed.get(k) != report.get(k)
               for k in ("inv_scale", "seed")):
            print("baseline comparison skipped: measurement point differs "
                  "from committed BENCH_pipeline.json")
            return
    problems = check_against_baseline(
        "pipeline", report,
        lower_is_better=("pipeline_sec", "step1_sec", "step1_us_per_name"),
        scale_keys=("inv_scale", "seed"))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        raise SystemExit(1)
    print("baseline check ok")


if pytest is not None:

    @pytest.fixture(scope="module")
    def small_bench_world():
        return build_world(ScenarioConfig(seed=SEED, scale=1 / INV_SCALE,
                                          include_cctld=False))

    def test_full_pipeline_run(benchmark, small_bench_world):
        result = benchmark.pedantic(run_pipeline, args=(small_bench_world,),
                                    rounds=2, iterations=1)
        assert result.detected_count > 1000

    def test_step1_detector_throughput(benchmark, world):
        def detect():
            detector = CTDetector(world.archive, world.registries.tlds())
            return detector.run(world.certstream, world.window.start,
                                world.window.end)

        candidates = benchmark.pedantic(detect, rounds=2, iterations=1)
        assert len(candidates) > 10_000

    def test_pipeline_baseline():
        report = run_pipeline_bench(rounds=2)
        print()
        print(json.dumps(report, indent=2, sort_keys=True))
        assert report["candidates"] > 1000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inv-scale", type=int, default=INV_SCALE)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--no-baseline", action="store_true")
    parser.add_argument("--check-baseline", action="store_true",
                        help="compare wall times and step-1 µs/name against "
                             "the committed BENCH_pipeline.json; exit 1 on a "
                             ">2x regression")
    args = parser.parse_args()
    report = run_pipeline_bench(inv_scale=args.inv_scale, seed=args.seed,
                                rounds=args.rounds)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.check_baseline:
        check_baseline(report)
    elif (not args.no_baseline and args.inv_scale == INV_SCALE
            and args.seed == SEED):
        # Only the canonical measurement point refreshes the baseline.
        from conftest import write_baseline  # benchmarks/ on sys.path
        write_baseline("pipeline", report)


if __name__ == "__main__":
    main()
