"""Bulk-scan throughput: the scan engine versus the literal probe loop.

Builds a synthetic registry population straight on :class:`Registry`
(no world build, no pipeline) with the paper's §5 population shape —
mostly short-lived transients, a stable tail, a few lame delegations,
and ghost candidates that never reach a zone — then bulk-measures all
of it through :class:`~repro.scan.ScanEngine` in scale mode
(per-authority QPS cap + NXDOMAIN-streak cutoff) and times
:class:`~repro.core.monitor.LoopMonitor` on a sample of the same
domains for the baseline ratio.  Reports **domains/sec**,
**probes/sec**, the probe-lag snapshot, and the measured speedup as
JSON — the scan-path baseline future perf PRs must not regress.

Run standalone for the JSON report (also written to
``benchmarks/BENCH_scan.json``)::

    PYTHONPATH=src python benchmarks/bench_scan.py                # 100k domains
    PYTHONPATH=src python benchmarks/bench_scan.py --domains 2000 --loop-sample 50

or under pytest-benchmark with the rest of the suite (reduced sizes).
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, Tuple

from repro.core.monitor import LoopMonitor, MonitorConfig
from repro.registry.policy import gtld
from repro.registry.registry import Registry, RegistryGroup
from repro.scan import ScanConfig, ScanEngine
from repro.simtime.clock import DAY, HOUR, MINUTE
from repro.simtime.rng import spawn

DOMAINS = 100_000
LOOP_SAMPLE = 200
SEED = 7
TLDS = ["com", "net", "xyz", "online", "site", "top", "shop", "icu"]
def qps_for(n_domains: int) -> float:
    """Per-authority probe cap (queries per simulated second).

    Zone ticks quantize every domain's grid onto 300-second combs, so
    per-authority demand at a comb instant scales with the population.
    Scaling the cap just below that demand keeps the bench honest at
    any size: the busiest authorities genuinely stall (the compliance
    and lag numbers mean something) without drowning the run in
    deferrals.
    """
    return max(2.0, n_domains / 1250)


def build_population(n: int = DOMAINS,
                     seed: int = SEED) -> Tuple[RegistryGroup, Dict[str, int]]:
    """``n`` monitoring candidates over a 30-day registration window.

    The mix follows the paper's measured shape: ~60 % transients that
    die within hours, ~15 % stable, ~5 % lame, ~20 % ghost candidates
    (CT-observed names that never reach any zone).
    """
    rng = spawn(seed, "bench", "scan")
    registries = {tld: Registry(gtld(tld, 15 * MINUTE, snapshot_offset=0))
                  for tld in TLDS}
    starts: Dict[str, int] = {}
    for i in range(n):
        tld = TLDS[i % len(TLDS)]
        domain = f"d{i}.{tld}"
        created = rng.randint(0, 30 * DAY)
        roll = rng.random()
        if roll < 0.20:
            starts[domain] = created  # ghost: every probe sees NXDOMAIN
            continue
        lc = registries[tld].register(
            domain, created, "GoDaddy",
            ns_hosts=[f"ns1.h{i % 97}.net", f"ns2.h{i % 97}.net"],
            a_addrs=[f"192.0.2.{i % 250 + 1}"],
            aaaa_addrs=[f"2001:db8::{i % 250 + 1:x}"],
            lame=roll >= 0.95)
        if roll < 0.80:  # transient: dead within 20 min – 2 h
            registries[tld].schedule_removal(
                domain, created + rng.randint(20 * MINUTE, 2 * HOUR))
        starts[domain] = lc.zone_added_at
    return RegistryGroup(list(registries.values())), starts


def run_scan(group: RegistryGroup, starts: Dict[str, int],
             loop_sample: int = LOOP_SAMPLE, seed: int = SEED) -> dict:
    """Bulk-scan everything, loop a sample, report the ratio."""
    config = ScanConfig(probe_interval=10 * MINUTE, duration=48 * HOUR,
                        qps_per_authority=qps_for(len(starts)),
                        terminate_nxdomain_streak=3)
    engine = ScanEngine(group, config)
    start = time.perf_counter()
    reports = engine.observe_all(starts)
    scan_sec = time.perf_counter() - start

    rng = spawn(seed, "bench", "loop-sample")
    sample = rng.sample(sorted(starts), min(loop_sample, len(starts)))
    loop = LoopMonitor(group, MonitorConfig(probe_interval=10 * MINUTE,
                                            duration=48 * HOUR))
    start = time.perf_counter()
    for domain in sample:
        loop.observe(domain, starts[domain])
    loop_sec = time.perf_counter() - start

    snap = engine.snapshot()
    scan_dps = len(reports) / scan_sec
    loop_dps = len(sample) / loop_sec
    return {
        "domains": len(reports),
        "resolved": sum(1 for r in reports.values() if r.ever_resolved),
        "probes_sent": snap["probes_sent"],
        "probes_suppressed": snap["probes_suppressed"],
        "terminated_early": snap["terminated_early"],
        "rate_limit_stalls": snap["rate_limit_stalls"],
        "elapsed_sec": round(scan_sec, 4),
        "domains_per_sec": round(scan_dps, 1),
        "probes_per_sec": round(snap["probes_sent"] / scan_sec, 1),
        "probe_lag": snap["probe_lag"],
        "qps_limit": config.qps_per_authority,
        "authority_peak_qps": snap["authority_peak_qps"],
        "loop_sample": len(sample),
        "loop_elapsed_sec": round(loop_sec, 4),
        "loop_domains_per_sec": round(loop_dps, 1),
        "speedup_vs_loop": round(scan_dps / loop_dps, 1),
    }


def check_report(report: dict, min_speedup: float = 10.0) -> None:
    """The claims the baseline stands on."""
    assert report["speedup_vs_loop"] >= min_speedup, report["speedup_vs_loop"]
    peaks = report["authority_peak_qps"]
    assert all(peak <= report["qps_limit"]
               for peak in peaks.values()), peaks
    assert report["resolved"] > 0
    assert report["rate_limit_stalls"] > 0  # the cap really engaged


def test_scan_throughput(benchmark):
    # Reduced sizes under pytest; the committed baseline comes from the
    # standalone 100 k run.
    group, starts = build_population(n=5_000)

    def once():
        return run_scan(group, starts, loop_sample=60)

    report = benchmark.pedantic(once, rounds=1, iterations=1)
    print()
    print(json.dumps(report, indent=2, sort_keys=True))
    # The >=10x claim is made (and committed) at 100k; the reduced size
    # keeps a looser floor so the suite stays robust on shared runners.
    check_report(report, min_speedup=5.0)
    assert report["domains"] == 5_000


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domains", type=int, default=DOMAINS)
    parser.add_argument("--loop-sample", type=int, default=LOOP_SAMPLE)
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--no-baseline", action="store_true",
                        help="print the report without writing "
                             "BENCH_scan.json")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: tiny populations are too small "
                             "for the speedup/stall claims, so only "
                             "produce the JSON report")
    args = parser.parse_args()
    group, starts = build_population(n=args.domains, seed=args.seed)
    report = run_scan(group, starts, loop_sample=args.loop_sample,
                      seed=args.seed)
    print(json.dumps(report, indent=2, sort_keys=True))
    if not args.smoke:
        check_report(report)
        if not args.no_baseline:
            # Imported lazily: conftest pulls in pytest, which smoke
            # environments (the CI bench job) don't need installed.
            from conftest import write_baseline  # benchmarks/ on sys.path
            write_baseline("scan", report)


if __name__ == "__main__":
    main()
