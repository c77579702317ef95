"""Scenario-matrix harness: every registered scenario, proved and timed.

For each scenario in the :mod:`repro.workload.scenarios` registry this
driver builds the world at the canonical matrix point (seed 7, 1/2000,
no ccTLD), twice — ``jobs=1`` and ``jobs=2`` — and asserts the two
fingerprints agree; runs the five-step pipeline plus the standing
observer suite; and checks the scenario's
:data:`~repro.obs.observers.SCENARIO_EXPECTATIONS` row (which anomaly
detectors must fire, which must stay quiet).  The committed
``benchmarks/BENCH_scenarios.json`` pins one fingerprint golden per
scenario plus a ``baseline`` seed sweep (5/7/11/23): any sampling
perturbation anywhere in the build shows up as a digest mismatch here
before it shows up as a wrong table in a paper figure.

Run standalone for the JSON report (also refreshes the committed
goldens at the canonical point)::

    PYTHONPATH=src python benchmarks/bench_scenarios.py
    PYTHONPATH=src python benchmarks/bench_scenarios.py --scenario baseline

``--check-baseline`` compares every fingerprint against the committed
goldens and fails on any mismatch, any jobs=1 ≢ jobs=2 divergence, any
unmet observer expectation, or a total wall time above ``--budget-sec``
(the CI scenario-matrix job runs this; the budget keeps the matrix
a quick CI job).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.core.pipeline import run_pipeline
from repro.obs.observers import (
    check_expectations,
    default_pipeline_suite,
    observe_pipeline_result,
    observe_world,
)
from repro.workload.scenario import (
    ScenarioConfig,
    build_world,
    world_fingerprint,
)
from repro.workload.scenarios import parse_scenario_spec, scenario_names

#: The canonical matrix point: small enough that the full six-scenario
#: matrix (12 builds + 6 pipelines) stays under ``BUDGET_SEC``.
INV_SCALE = 2000
SEED = 7

#: ``baseline`` is additionally swept across these seeds (fingerprints
#: pinned per seed) — the cross-seed half of the determinism proof.
SWEEP_SEEDS = (5, 7, 11, 23)

#: Default ``--check-baseline`` wall-time budget for the whole matrix.
BUDGET_SEC = 120.0


def run_scenario(name: str, knobs: Optional[Dict[str, float]] = None,
                 inv_scale: int = INV_SCALE, seed: int = SEED,
                 jobs_proof: bool = True, pipeline: bool = True) -> dict:
    """One scenario through the full gauntlet: build, prove, observe."""
    entry: dict = {"scenario": name, "seed": seed, "inv_scale": inv_scale}
    start = time.perf_counter()
    config = ScenarioConfig(seed=seed, scale=1.0 / inv_scale,
                            include_cctld=False,
                            scenario=name, scenario_knobs=knobs or {})
    world = build_world(config)
    entry["build_sec"] = round(time.perf_counter() - start, 4)
    entry["registrations"] = world.registries.total_registrations()
    entry["fingerprint"] = world_fingerprint(world)
    if jobs_proof:
        start = time.perf_counter()
        parallel = build_world(
            ScenarioConfig(seed=seed, scale=1.0 / inv_scale,
                           include_cctld=False, parallel=2,
                           scenario=name, scenario_knobs=knobs or {}))
        entry["jobs2_build_sec"] = round(time.perf_counter() - start, 4)
        entry["jobs2_fingerprint"] = world_fingerprint(parallel)
        entry["jobs_proof_ok"] = (entry["jobs2_fingerprint"]
                                  == entry["fingerprint"])
    if pipeline:
        start = time.perf_counter()
        result = run_pipeline(world)
        suite = default_pipeline_suite()
        observe_pipeline_result(suite, result)
        observe_world(suite, world)
        entry["pipeline_sec"] = round(time.perf_counter() - start, 4)
        entry["candidates"] = len(result.candidates)
        entry["confirmed_transients"] = len(result.confirmed_transients)
        entry["anomalies"] = len(suite.anomalies)
        entry["mass_events"] = len(suite.mass_events)
        entry["expectation_problems"] = check_expectations(suite, name)
    return entry


def run_matrix(inv_scale: int = INV_SCALE, seed: int = SEED,
               jobs_proof: bool = True, pipeline: bool = True,
               only: Optional[str] = None) -> dict:
    """The full matrix: every registered scenario plus the seed sweep."""
    start = time.perf_counter()
    report: dict = {"inv_scale": inv_scale, "seed": seed, "scenarios": {}}
    for name in scenario_names():
        if only is not None and name != only:
            continue
        report["scenarios"][name] = run_scenario(
            name, inv_scale=inv_scale, seed=seed,
            jobs_proof=jobs_proof, pipeline=pipeline)
    if only is None or only == "baseline":
        sweep = {}
        for sweep_seed in SWEEP_SEEDS:
            if sweep_seed == seed:  # already built above
                sweep[str(sweep_seed)] = (
                    report["scenarios"]["baseline"]["fingerprint"])
                continue
            world = build_world(ScenarioConfig(
                seed=sweep_seed, scale=1.0 / inv_scale,
                include_cctld=False, scenario="baseline"))
            sweep[str(sweep_seed)] = world_fingerprint(world)
        report["baseline_seed_sweep"] = sweep
    report["total_sec"] = round(time.perf_counter() - start, 4)
    return report


def check_matrix(report: dict, committed: dict,
                 budget_sec: Optional[float] = None) -> List[str]:
    """Every way the matrix can fail, as human-readable problem lines."""
    problems: List[str] = []
    if (committed.get("inv_scale"), committed.get("seed")) != (
            report["inv_scale"], report["seed"]):
        return [f"measurement point differs from committed goldens "
                f"(committed 1/{committed.get('inv_scale')} seed "
                f"{committed.get('seed')}) — refresh BENCH_scenarios.json"]
    want = committed.get("scenarios", {})
    for name, entry in sorted(report["scenarios"].items()):
        golden = want.get(name, {}).get("fingerprint")
        if golden is None:
            problems.append(f"{name}: no committed fingerprint golden")
        elif golden != entry["fingerprint"]:
            problems.append(
                f"{name}: fingerprint {entry['fingerprint']} != committed "
                f"{golden} — scenario sampling was perturbed")
        if not entry.get("jobs_proof_ok", True):
            problems.append(
                f"{name}: jobs=1 fingerprint {entry['fingerprint']} != "
                f"jobs=2 {entry['jobs2_fingerprint']}")
        for problem in entry.get("expectation_problems", []):
            problems.append(f"{name}: {problem}")
    for missing in sorted(set(want) - set(report["scenarios"])):
        problems.append(f"{missing}: committed golden has no fresh run")
    committed_sweep = committed.get("baseline_seed_sweep", {})
    for sweep_seed, digest in sorted(
            report.get("baseline_seed_sweep", {}).items()):
        golden = committed_sweep.get(sweep_seed)
        if golden is not None and golden != digest:
            problems.append(
                f"baseline seed {sweep_seed}: fingerprint {digest} != "
                f"committed {golden}")
    if budget_sec is not None and report["total_sec"] > budget_sec:
        problems.append(
            f"matrix took {report['total_sec']}s, over the "
            f"{budget_sec}s budget")
    return problems


def test_scenario_matrix():
    # Pytest entry: the matrix must reproduce the committed goldens.
    from conftest import BASELINE_DIR  # benchmarks/ on sys.path
    report = run_matrix()
    print()
    print(json.dumps(report, indent=2, sort_keys=True))
    committed = json.loads(
        (BASELINE_DIR / "BENCH_scenarios.json").read_text())
    problems = check_matrix(report, committed)
    assert not problems, "\n".join(problems)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inv-scale", type=int, default=INV_SCALE,
                        help=f"1/scale denominator (default {INV_SCALE})")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--scenario", metavar="SPEC", default=None,
                        help="run one scenario instead of the matrix "
                             "(knob overrides allowed; overridden runs "
                             "never touch the committed goldens)")
    parser.add_argument("--no-jobs-proof", action="store_true",
                        help="skip the jobs=2 rebuild per scenario")
    parser.add_argument("--no-pipeline", action="store_true",
                        help="build + fingerprint only (skips observers "
                             "and expectation checks)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="print the report without writing "
                             "BENCH_scenarios.json")
    parser.add_argument("--check-baseline", action="store_true",
                        help="compare fingerprints against the committed "
                             "goldens and fail on any mismatch, divergence, "
                             "unmet expectation, or blown budget")
    parser.add_argument("--budget-sec", type=float, default=BUDGET_SEC,
                        help="total wall-time budget enforced under "
                             f"--check-baseline (default {BUDGET_SEC:g})")
    args = parser.parse_args()

    if args.scenario is not None:
        name, knobs = parse_scenario_spec(args.scenario)
        if knobs:
            report = run_scenario(name, knobs,
                                  inv_scale=args.inv_scale, seed=args.seed,
                                  jobs_proof=not args.no_jobs_proof,
                                  pipeline=not args.no_pipeline)
            print(json.dumps(report, indent=2, sort_keys=True))
            return
        report = run_matrix(inv_scale=args.inv_scale, seed=args.seed,
                            jobs_proof=not args.no_jobs_proof,
                            pipeline=not args.no_pipeline, only=name)
    else:
        report = run_matrix(inv_scale=args.inv_scale, seed=args.seed,
                            jobs_proof=not args.no_jobs_proof,
                            pipeline=not args.no_pipeline)
    print(json.dumps(report, indent=2, sort_keys=True))

    if args.check_baseline:
        from conftest import BASELINE_DIR  # benchmarks/ on sys.path
        path = BASELINE_DIR / "BENCH_scenarios.json"
        if not path.exists():
            print(f"no committed baseline {path.name}", file=sys.stderr)
            raise SystemExit(1)
        problems = check_matrix(report, json.loads(path.read_text()),
                                budget_sec=args.budget_sec)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            raise SystemExit(1)
        print("scenario matrix ok")
    elif (not args.no_baseline and args.scenario is None
          and args.inv_scale == INV_SCALE and args.seed == SEED
          and not args.no_jobs_proof and not args.no_pipeline):
        from conftest import write_baseline
        write_baseline("scenarios", report)


if __name__ == "__main__":
    main()
