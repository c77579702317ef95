"""End-to-end ledger: one harness for build, pipeline, scan and serve.

Every repetition runs in a fresh child process (the cold start a
``repro`` CLI user pays), one child at a time, so no frozen heap or warm
cache carries over from one repetition to the next.  Each child times
only the calls into the layers' public functions -- ``build_world``,
``DarkDNSPipeline.run``, ``CTDetector.run``, ``ScanEngine.observe_all``
and ``FeedServer.run_live``/``ingest``/``drain_all``/``compact`` -- with
per-call timers set as instance attributes, and checks its outputs
against committed goldens.  Nothing under ``src/`` knows about it.

Four ways to run it (see README.md for the metrics and workloads)::

    # one workload for --seconds, one JSON line on stdout (BENCHMARK.json)
    python3 benchmarks/e2e/bench_e2e.py --workload scan --seed 7 \\
        --seconds 30 --trace 0

    # the ledger: --rounds interleaved rounds of all four workloads plus
    # one traced round, written to out/; --record also commits it
    python3 benchmarks/e2e/bench_e2e.py --rounds 5 [--record]

    # verdicts between two ledgers
    python3 benchmarks/e2e/bench_e2e.py --compare out/A.json out/B.json

    # re-pin the output goldens of one seed (after an intended change)
    python3 benchmarks/e2e/bench_e2e.py --record-goldens --seed 11
"""

import time

# setup_s is measured from here: before anything of ``repro`` is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402  (imports follow the start stamp on purpose)
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, NamedTuple, Optional, Sequence  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
GOLDENS_PATH = HERE / "goldens.json"
BASELINE_PATH = HERE / "baseline.json"

DEFAULT_SEED = 7
DEFAULT_ROUNDS = 5
#: Measuring time of one ``--workload`` run (BENCHMARK.json run_seconds).
RUN_SECONDS = 30
#: Scale of every workload under ``--smoke`` (the tier-1 test runs it).
SMOKE_INV_SCALE = 20_000
#: A child running longer than this is killed and counted as failed; the
#: whole ``--workload`` run has to end within 180 s.
CHILD_TIMEOUT_S = 170.0


class Workload(NamedTuple):
    inv_scale: int
    cctld: bool
    jobs: int
    #: Layers run after the world build, in order.
    stages: tuple
    why: str


#: Each workload has a write path and a read path, timed apart so that a
#: gain on one cannot hide a loss on the other.  ``write_per_s`` counts
#: registrations per second of ``build_world``, except on serve, where
#: it counts feed records per second at the median ``FeedServer.ingest``
#: call.  ``read_per_s`` counts, per workload: reproduce, candidates per
#: second of ``DarkDNSPipeline.run``; build-parallel, candidates per
#: second of ``CTDetector.run``, the pipeline's first read of the merged
#: world; scan, domains per second of ``ScanEngine.observe_all``; serve,
#: deliveries per second at the median ``drain_all`` poll round.
WORKLOADS: Dict[str, Workload] = {
    "reproduce": Workload(
        200, True, 1, ("pipeline",),
        "the paper-reproduction path: serial shard build plus the five "
        "pipeline steps; the worker pool, scan and serve do none of it"),
    "build-parallel": Workload(
        100, False, 2, ("detect",),
        "the only workload where the worker pool, chunk queue and parent "
        "merge do the work (jobs=2)"),
    "scan": Workload(
        12000, False, 1, ("detect", "scan"),
        "bulk DNS measurement of every CT candidate under a per-authority "
        "rate limit; the analytic monitor elsewhere bypasses scan"),
    "serve": Workload(
        1000, False, 1, ("pipeline", "serve"),
        "feed distribution to 400 subscribers through a persisted "
        "segment log: ingest (writes) and hourly polls (reads)"),
}

#: Scan settings of the ``scan`` workload: a tight per-authority cap so
#: the limiter stalls, and early termination of never-resolving names.
SCAN_QPS_PER_AUTHORITY = 0.25
SCAN_NXDOMAIN_STREAK = 3
SERVE_CLIENTS = 400
SERVE_SEGMENT_RECORDS = 1024
SERVE_POLL_INTERVAL = 3600
#: The detection funnel, from certstream events to confirmed transients.
FUNNEL_KEYS = ("certstream_events", "names_seen", "candidates",
               "rdap_failures", "monitored", "confirmed_transients")

#: End-to-end metrics: name -> (unit, better, bound).  ``bound`` is the
#: share of the parent's median by which a metric may worsen before it
#: counts as a regression.  A bound has to be wider than the metric's
#: spread between runs, or unchanged code reads as a regression.  On a
#: shared 2-core VM the times of ten 30-second runs at ten seeds spread
#: by 0.08 to 0.40 (README.md), so they carry 25 %, the widest bound
#: BENCHMARK.json allows.  Mirrored in BENCHMARK.json (a test pins it).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "write_per_s": ("1/s", "higher", 0.25),
    "read_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

#: Per-layer metrics from the traced repetitions: name -> (unit, better).
#: Each workload reports all of them; a layer it does not run reads 0.
PER_LAYER = {
    "workload.populate_shard.sum_s": ("s", "lower"),
    "workload.populate_shard.max_s": ("s", "lower"),
    "workload.populate_shard.count": ("count", "lower"),
    "workload.merge_shards.s": ("s", "lower"),
    "workload.parent_serial_s": ("s", "lower"),
    "workload.straggler_ratio": ("ratio", "lower"),
    "workload.issue_certs.s": ("s", "lower"),
    "workload.us_per_registration": ("us", "lower"),
    "workload.registrations": ("count", "higher"),
    "core.ct_detect.s": ("s", "lower"),
    "core.rdap_collect.s": ("s", "lower"),
    "core.monitor.s": ("s", "lower"),
    "core.validate.s": ("s", "lower"),
    "core.transient_classify.s": ("s", "lower"),
    "core.ct_detect.us_per_name": ("us", "lower"),
    "core.ct_detect.candidate_ratio": ("ratio", "lower"),
    "core.funnel.certstream_events": ("count", "higher"),
    "core.funnel.names_seen": ("count", "higher"),
    "core.funnel.candidates": ("count", "higher"),
    "core.funnel.rdap_failures": ("count", "lower"),
    "core.funnel.monitored": ("count", "higher"),
    "core.funnel.confirmed_transients": ("count", "higher"),
    "scan.run.s": ("s", "lower"),
    "scan.probes_sent": ("count", "lower"),
    "scan.probes_suppressed": ("count", "higher"),
    "scan.rate_limit_stalls": ("count", "lower"),
    "scan.retries": ("count", "lower"),
    "scan.negcache_hits": ("count", "higher"),
    "scan.terminated_early": ("count", "higher"),
    "scan.probes_per_domain": ("count", "lower"),
    "scan.sent_share": ("ratio", "lower"),
    "scan.us_per_probe": ("us", "lower"),
    "scan.resolver.cache_hit_ratio": ("ratio", "higher"),
    "serve.ingest.busy_s": ("s", "lower"),
    "serve.ingest.calls": ("count", "higher"),
    "serve.ingest_us_p50": ("us", "lower"),
    "serve.ingest_us_tail": ("us", "lower"),
    "serve.ingest.tail_pct": ("%", "higher"),
    "serve.log.segments": ("count", "lower"),
    "serve.compact.s": ("s", "lower"),
    "serve.poll.busy_s": ("s", "lower"),
    "serve.poll.calls": ("count", "higher"),
    "serve.poll_ms_p50": ("ms", "lower"),
    "serve.poll_ms_tail": ("ms", "lower"),
    "serve.poll.tail_pct": ("%", "higher"),
    "serve.poll.empty_share": ("ratio", "lower"),
    "serve.fanout.shard_skew": ("ratio", "lower"),
    "serve.published": ("count", "higher"),
    "serve.delivered": ("count", "higher"),
    "serve.filtered_out": ("count", "lower"),
    "serve.dropped_queue_full": ("count", "lower"),
    "bus.produce_many.s": ("s", "lower"),
    "bus.poll.s": ("s", "lower"),
    "proc.cpu_s": ("s", "lower"),
    "proc.import_s": ("s", "lower"),
    "proc.gc_gen2_collections": ("count", "lower"),
    "proc.rss_after_build_mb": ("MB", "lower"),
    "proc.worker_peak_rss_mb": ("MB", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.coverage": ("ratio", "higher"),
}

#: Timed calls that are not nested in another timed call: with the
#: import, their sum is the wall time the per-layer split accounts for.
TOP_LEVEL_CALLS = ("build_world", "pipeline", "ct_detect", "observe_all",
                   "run_live", "compact")


# ---------------------------------------------------------------------------
# Child: one repetition of one workload
# ---------------------------------------------------------------------------

class CallTimers:
    """Wall time of every call into a layer's public functions."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        #: Calls that returned a falsy result (an empty poll round).
        self.empty: Dict[str, int] = {}

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.samples.setdefault(name, []).append(time.perf_counter() - start)
        if not result:
            self.empty[name] = self.empty.get(name, 0) + 1
        return result

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time ``obj.attr`` through an instance attribute, so calls the
        object makes on itself (``run_live`` -> ``self.ingest``) count."""
        method = getattr(obj, attr)
        setattr(obj, attr,
                lambda *args, **kwargs: self.call(name, method, *args,
                                                  **kwargs))

    def total(self, name: str) -> float:
        return sum(self.samples.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.samples.get(name, ()))


def _digest(items) -> str:
    h = hashlib.blake2b(digest_size=16)
    for item in items:
        h.update(repr(item).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _scan_report_digest(reports) -> str:
    return _digest(
        (domain, r.monitor_start, r.monitor_end, r.probes, r.ever_resolved,
         r.last_ns_ok, [sorted(ns) for ns in r.ns_sets], r.first_a,
         r.first_aaaa, r.ns_changed)
        for domain, r in sorted(reports.items()))


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def _rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak RSS of this process, or (``RUSAGE_CHILDREN``) of the largest
    ended worker, such as a build pool's."""
    return resource.getrusage(who).ru_maxrss / 1024


def run_child(name: str, seed: int, trace: bool, smoke: bool,
              fingerprint: bool) -> dict:
    """One repetition; returns its metrics, digests and (traced) layers.

    ``fingerprint`` adds the full ``world_fingerprint`` to the digests
    (2-3 s at 1/100).  Every repetition digests the build's counts and
    the outputs of the layers it ran.
    """
    sys.path.insert(0, str(SRC))
    import repro.cli as cli
    from repro.core.ctdetect import CTDetector
    from repro.core.pipeline import DarkDNSPipeline
    from repro.obs.spans import set_enabled, tracer
    from repro.scan import ScanConfig, ScanEngine
    from repro.serve import FeedServer, FeedServerConfig
    from repro.workload.scenario import (
        ScenarioConfig, build_world, world_fingerprint)
    import_s = time.perf_counter() - _T0

    workload = WORKLOADS[name]
    set_enabled(trace)
    timers = CallTimers()
    inv_scale = SMOKE_INV_SCALE if smoke else workload.inv_scale
    config = ScenarioConfig(seed=seed, scale=1 / inv_scale,
                            include_cctld=workload.cctld,
                            cctld_scale=1.0 if workload.cctld else None,
                            parallel=workload.jobs)
    world = timers.call("build_world", build_world, config)
    setup_s = time.perf_counter() - _T0
    rss_after_build_mb = _rss_mb()
    registrations = world.registries.total_registrations()
    timers.wrap(world.broker, "produce_many", "bus.produce_many")
    timers.wrap(world.broker, "poll", "bus.poll")

    result = engine = server = detector = None
    reports: dict = {}
    digests: Dict[str, object] = {"world_stats": dict(world.stats)}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as log_dir:
        if "pipeline" in workload.stages:
            result = timers.call("pipeline", DarkDNSPipeline(world).run)
        if "detect" in workload.stages:
            detector = CTDetector(world.archive, world.registries.tlds())
            candidates = timers.call("ct_detect", detector.run,
                                     world.certstream, world.window.start,
                                     world.window.end)
        if "scan" in workload.stages:
            engine = ScanEngine(world.registries, ScanConfig(
                qps_per_authority=SCAN_QPS_PER_AUTHORITY,
                terminate_nxdomain_streak=SCAN_NXDOMAIN_STREAK))
            reports = timers.call(
                "observe_all", engine.observe_all,
                {d: c.ct_seen_at for d, c in candidates.items()})
        if "serve" in workload.stages:
            server = FeedServer(broker=world.broker, config=FeedServerConfig(
                max_segment_records=SERVE_SEGMENT_RECORDS,
                log_dir=Path(log_dir)))
            cli._register_serve_clients(
                server, argparse.Namespace(seed=seed, clients=SERVE_CLIENTS,
                                           filters=None),
                tlds=sorted(world.registries.tlds()))
            timers.wrap(server, "ingest", "ingest")
            timers.wrap(server, "drain_all", "poll")
            timers.call("run_live", server.run_live,
                        poll_interval=SERVE_POLL_INTERVAL)
            server.log.roll()
            timers.call("compact", server.compact)
        total_s = time.perf_counter() - _T0
        serve_snap = server.snapshot() if server is not None else {}

    # Everything below checks outputs and is not timed.
    worker_peak_rss_mb = _rss_mb(resource.RUSAGE_CHILDREN)
    peak_rss_mb = max(_rss_mb(), worker_peak_rss_mb)
    attempted, failed = 1, 0
    if fingerprint:
        digests["fingerprint"] = world_fingerprint(world)
    if result is not None:
        digests["funnel"] = {key: result.stats[key] for key in FUNNEL_KEYS}
    write_per_s = registrations / timers.total("build_world")
    if name == "reproduce":
        read_per_s = result.stats["candidates"] / timers.total("pipeline")
    elif name == "build-parallel":
        digests["candidates"] = _digest(sorted(candidates))
        read_per_s = len(candidates) / timers.total("ct_detect")
    elif name == "scan":
        scan_snap = engine.snapshot()
        digests["scan_reports"] = _scan_report_digest(reports)
        digests["probes_sent"] = scan_snap["probes_sent"]
        attempted = len(candidates)
        failed = attempted - len(reports)
        read_per_s = len(reports) / timers.total("observe_all")
    else:
        counts = server.fanout.delivered_counts()
        digests["serve_delivered"] = _digest(sorted(counts.items()))
        # Evicted and shed clients lose their queues: at least one
        # delivery each.
        failed = (serve_snap["dropped_queue_full"] + serve_snap["pending"]
                  + serve_snap["evicted_clients"]
                  + serve_snap["shed_clients"])
        attempted = serve_snap["delivered"] + failed
        # From the median call: a slow spell of the host that covers
        # fewer than half of the calls does not move it.
        write_per_s = 1 / statistics.median(timers.samples["ingest"])
        read_per_s = (serve_snap["delivered"] / timers.count("poll")
                      / statistics.median(timers.samples["poll"]))

    rep = {
        "setup_s": setup_s,
        "total_s": total_s,
        "write_per_s": write_per_s,
        "read_per_s": read_per_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "digests": digests,
    }
    if trace:
        rep["layers"] = _layers(timers, result, detector, engine,
                                serve_snap, registrations, import_s,
                                total_s, tracer())
        rep["layers"]["proc.rss_after_build_mb"] = rss_after_build_mb
        rep["layers"]["proc.worker_peak_rss_mb"] = worker_peak_rss_mb
        rep["samples"] = {
            "ingest_us": [s * 1e6 for s in timers.samples.get("ingest", ())],
            "poll_ms": [s * 1e3 for s in timers.samples.get("poll", ())],
        }
        rep["spans"] = tracer().export_records()
    return rep


def _layers(timers: CallTimers, result, detector, engine,
            serve_snap: dict, registrations: int, import_s: float,
            total_s: float, trc) -> dict:
    """Per-layer metrics of one traced repetition (percentiles and the
    tracing overhead are pooled by the parent)."""
    span_s: Dict[str, float] = {}
    populate: List[float] = []
    for finished in trc.spans:
        span_s[finished.name] = span_s.get(finished.name, 0.0) + \
            finished.wall_sec
        if finished.name == "build.populate_shard":
            populate.append(finished.wall_sec)
    merge_s = span_s.get("build.merge_shards", 0.0)
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update({
        "workload.populate_shard.sum_s": sum(populate),
        "workload.populate_shard.max_s": max(populate, default=0.0),
        "workload.populate_shard.count": len(populate),
        "workload.merge_shards.s": merge_s,
        "workload.parent_serial_s": span_s.get("build.world", 0.0) - merge_s,
        "workload.straggler_ratio": (max(populate) / merge_s
                                     if merge_s and populate else 0.0),
        "workload.issue_certs.s": span_s.get("build.issue_certs", 0.0),
        "workload.us_per_registration":
            timers.total("build_world") / registrations * 1e6,
        "workload.registrations": registrations,
        "bus.produce_many.s": timers.total("bus.produce_many"),
        "bus.poll.s": timers.total("bus.poll"),
        "proc.cpu_s": _cpu_s(),
        "proc.import_s": import_s,
        "proc.gc_gen2_collections": gc.get_stats()[2]["collections"],
        "trace.coverage": (import_s + sum(timers.total(call)
                                          for call in TOP_LEVEL_CALLS))
        / total_s,
    })
    for step in ("ct_detect", "rdap_collect", "monitor", "validate",
                 "transient_classify"):
        layers[f"core.{step}.s"] = span_s.get(f"pipeline.{step}", 0.0)
    layers["core.ct_detect.s"] += timers.total("ct_detect")
    funnel = result.stats if result is not None else (
        {"certstream_events": detector.stats.events,
         "names_seen": detector.stats.names_seen,
         "candidates": detector.stats.candidates}
        if detector is not None else {})
    for key in FUNNEL_KEYS:
        layers[f"core.funnel.{key}"] = funnel.get(key, 0)
    names = funnel.get("names_seen", 0)
    if names:
        layers["core.ct_detect.us_per_name"] = \
            layers["core.ct_detect.s"] / names * 1e6
        layers["core.ct_detect.candidate_ratio"] = funnel["candidates"] / names
    if engine is not None:
        snap = engine.snapshot()
        sent, suppressed = snap["probes_sent"], snap["probes_suppressed"]
        for key in ("probes_sent", "probes_suppressed", "rate_limit_stalls",
                    "retries", "negcache_hits", "terminated_early"):
            layers[f"scan.{key}"] = snap[key]
        layers["scan.run.s"] = span_s.get("scan.run", 0.0)
        layers["scan.probes_per_domain"] = sent / max(
            1, snap["domains_completed"])
        layers["scan.sent_share"] = sent / max(1, sent + suppressed)
        layers["scan.us_per_probe"] = layers["scan.run.s"] / max(1, sent) * 1e6
        resolver = snap["resolver"]
        layers["scan.resolver.cache_hit_ratio"] = (
            resolver["cache_hits"] / max(1, resolver["queries"]))
    if serve_snap:
        routed = [shard["routed"] for shard in serve_snap["shards"]]
        layers.update({
            "serve.ingest.busy_s": timers.total("ingest"),
            "serve.ingest.calls": timers.count("ingest"),
            "serve.log.segments": serve_snap["log"]["segments"],
            "serve.compact.s": timers.total("compact"),
            "serve.poll.busy_s": timers.total("poll"),
            "serve.poll.calls": timers.count("poll"),
            "serve.poll.empty_share": (timers.empty.get("poll", 0)
                                       / max(1, timers.count("poll"))),
            "serve.fanout.shard_skew": (max(routed) * len(routed)
                                        / max(1, sum(routed))),
        })
        for key in ("published", "delivered", "filtered_out",
                    "dropped_queue_full"):
            layers[f"serve.{key}"] = serve_snap[key]
    return layers


# ---------------------------------------------------------------------------
# Parent: fresh children, aggregation, correctness
# ---------------------------------------------------------------------------

def spawn_rep(name: str, seed: int, trace: bool, smoke: bool,
              fingerprint: bool = True,
              timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one repetition in a fresh interpreter and wait for it (and
    its process group) to end.  A failed child yields ``{"ok": False}``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", name,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if fingerprint:
        cmd.append("--fingerprint")
    # A fixed hash seed: string hashing then lays out sets and dicts the
    # same way in every repetition, which takes one source of run-to-run
    # timing noise out.  Outputs do not depend on it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONHASHSEED="0"),
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"ok": False, "error": f"{name}: child timed out"}
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"ok": False, "error": f"{name}: {tail[0]}"}
    rep = json.loads(out.strip().splitlines()[-1])
    rep["ok"] = True
    return rep


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail_percentile(n: int) -> float:
    """The highest percentile with at least ten of ``n`` samples beyond
    it (50 when even p90 is not supported)."""
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10 - 1e-9:
            return pct
    return 50.0


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def summarize(name: str, seed: int, smoke: bool, reps: List[dict],
              traced: List[dict], goldens: dict) -> dict:
    """Medians, quartiles, layer split and the correctness verdict of
    one workload's repetitions."""
    errors = [rep["error"] for rep in reps + traced if not rep["ok"]]
    done = [rep for rep in reps + traced if rep["ok"]]
    attempted = sum(rep["attempted"] for rep in done) + len(errors)
    failed = sum(rep["failed"] for rep in done) + len(errors)
    golden = goldens.get("smoke" if smoke else "full", {}) \
        .get(str(seed), {}).get(name)
    expected = golden if golden is not None else (
        done[0]["digests"] if done else {})
    for rep in done:
        # Repetitions without the full fingerprint check the rest.
        if {key: expected.get(key) for key in rep["digests"]} \
                != rep["digests"]:
            failed += rep["attempted"] - rep["failed"]
            errors.append(f"{name}: digests differ from "
                          f"{'the golden' if golden else 'the first rep'}: "
                          f"{rep['digests']}")
    summary = {
        "workload": name, "seed": seed, "smoke": smoke,
        "correct": not errors and failed == 0 and bool(done),
        "attempted": max(1, attempted), "failed": failed,
        "golden_checked": golden is not None, "errors": errors,
        "digests": done[0]["digests"] if done else None,
        "metrics": {}, "layers": {},
    }
    measured = [rep for rep in reps if rep["ok"]]
    for metric, (unit, _better, _bound) in END_TO_END.items():
        values = [rep[metric] for rep in measured]
        if values:
            q1, median, q3 = quartiles(values)
            summary["metrics"][metric] = {
                "median": median, "q1": q1, "q3": q3, "n": len(values),
                "unit": unit, "samples": values}
    traced_ok = [rep for rep in traced if rep["ok"]]
    if traced_ok:
        layers = {key: statistics.median(rep["layers"][key]
                                         for rep in traced_ok)
                  for key in PER_LAYER}
        for series, unit_key in (("ingest_us", "serve.ingest"),
                                 ("poll_ms", "serve.poll")):
            pooled = [v for rep in traced_ok for v in rep["samples"][series]]
            if pooled:
                pct = tail_percentile(len(pooled))
                prefix = f"serve.{series}"
                layers[f"{prefix}_p50"] = percentile(pooled, 50)
                layers[f"{prefix}_tail"] = percentile(pooled, pct)
                layers[f"{unit_key}.tail_pct"] = pct
        if measured:
            untraced = statistics.median(rep["total_s"] for rep in measured)
            traced_total = statistics.median(rep["total_s"]
                                             for rep in traced_ok)
            layers["trace.overhead_pct"] = (traced_total / untraced - 1) * 100
        summary["layers"] = layers
        summary["spans"] = traced_ok[0]["spans"]
    return summary


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, goldens: dict) -> dict:
    """Repeat one workload in fresh children for about ``seconds``.

    A new repetition starts only if it is expected to end in time (by
    the longest so far), after a minimum of three.  With ``trace`` the
    repetitions alternate untraced and traced, so the tracing overhead
    is measured in the same run.  The first repetition also checks the
    full world fingerprint; the later ones are shorter without it, so
    more of them fit.
    """
    start = time.perf_counter()
    reps: List[dict] = []
    traced: List[dict] = []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        runs = len(reps) + len(traced)
        if runs >= 3 and elapsed + longest > seconds:
            break
        if runs and elapsed + longest > CHILD_TIMEOUT_S:
            break
        traced_turn = trace and runs % 2 == 1
        began = time.perf_counter()
        rep = spawn_rep(name, seed, traced_turn, smoke,
                        fingerprint=not runs,
                        timeout=CHILD_TIMEOUT_S - elapsed)
        if runs:
            longest = max(longest, time.perf_counter() - began)
        (traced if traced_turn else reps).append(rep)
        if not rep["ok"]:
            break
    return summarize(name, seed, smoke, reps, traced, goldens)


def run_ledger(seed: int, rounds: int, smoke: bool, goldens: dict) -> dict:
    """``rounds`` rounds of every workload, the order rotated from round
    to round, then one traced round."""
    names = list(WORKLOADS)
    reps: Dict[str, List[dict]] = {name: [] for name in names}
    for round_no in range(rounds):
        order = names[round_no % len(names):] + names[:round_no % len(names)]
        for name in order:
            print(f"round {round_no + 1}/{rounds}: {name}", file=sys.stderr)
            reps[name].append(spawn_rep(name, seed, False, smoke))
    traced: Dict[str, List[dict]] = {}
    for name in names:
        print(f"traced round: {name}", file=sys.stderr)
        traced[name] = [spawn_rep(name, seed, True, smoke)]
    return {
        "host": host_facts(rounds),
        "seed": seed,
        "smoke": smoke,
        "workloads": {name: summarize(name, seed, smoke, reps[name],
                                      traced[name], goldens)
                      for name in names},
    }


def host_facts(rounds: int) -> dict:
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             cwd=ROOT).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "rev": rev,
            "rounds": rounds}


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------

def verdict(metric: str, a: dict, b: dict) -> str:
    """``better``/``worse``/``unchanged``/``unresolved`` for B against A.

    Unresolved: either side's quartile spread is wider than the bound,
    unless every B sample reads better than every A sample.  Worse: B's
    median is worse than A's by more than the bound.  Better: B wins at
    least nine tenths of the (A[i], B[i]) pairs, ties counting for
    neither, and the medians differ by more than A's quartile spread.
    """
    _unit, better, bound = END_TO_END[metric]
    sign = 1.0 if better == "higher" else -1.0
    a_vals, b_vals = a["samples"], b["samples"]
    if min(sign * v for v in b_vals) > max(sign * v for v in a_vals):
        return "better"
    spread = max((a["q3"] - a["q1"]) / a["median"],
                 (b["q3"] - b["q1"]) / b["median"])
    if spread > bound:
        return "unresolved"
    gain = sign * (b["median"] - a["median"]) / a["median"]
    if gain < -bound:
        return "worse"
    pairs = list(zip(a_vals, b_vals))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and \
            abs(b["median"] - a["median"]) > a["q3"] - a["q1"]:
        return "better"
    return "unchanged"


def compare(a: dict, b: dict) -> int:
    """Print one row per (workload, metric); 1 on a worse metric or a
    digest difference, else 0."""
    status = 0
    print(f"{'workload':<15}{'metric':<18}{'A median':>12}{'B median':>12}"
          f"{'delta':>9}{'bound':>7}  verdict")
    same_inputs = a.get("seed") == b.get("seed") and \
        a.get("smoke") == b.get("smoke")
    for name in WORKLOADS:
        wa = a["workloads"].get(name)
        wb = b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name:<15}{'-':<18}missing from {'A' if wa is None else 'B'}")
            continue
        for metric, (_unit, _better, bound) in END_TO_END.items():
            ma, mb = wa["metrics"].get(metric), wb["metrics"].get(metric)
            if ma is None or mb is None:
                continue
            result = verdict(metric, ma, mb)
            delta = (mb["median"] - ma["median"]) / ma["median"] * 100
            print(f"{name:<15}{metric:<18}{ma['median']:>12.4g}"
                  f"{mb['median']:>12.4g}{delta:>+8.1f}%{bound:>7.0%}  "
                  f"{result}")
            if result == "worse":
                status = 1
        if not (wa["correct"] and wb["correct"]):
            print(f"{name:<15}{'correctness':<18}A ok={wa['correct']} "
                  f"B ok={wb['correct']}  FAILED")
            status = 1
        elif same_inputs and wa["digests"] != wb["digests"]:
            print(f"{name:<15}{'digests':<18}outputs differ  FAILED")
            status = 1
    return status


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def load_goldens() -> dict:
    if GOLDENS_PATH.exists():
        return json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
    return {}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)


def _write_ledger(ledger: dict, path: Path) -> None:
    """The ledger JSON, plus the traced spans as JSONL beside it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.with_suffix(".spans.jsonl"), "w",
              encoding="utf-8") as handle:
        for name, summary in ledger["workloads"].items():
            for record in summary.pop("spans", ()):
                handle.write(json.dumps(dict(record, workload=name),
                                        sort_keys=True) + "\n")
    _write_json(path, ledger)


def _print_ledger(ledger: dict) -> None:
    for name, summary in ledger["workloads"].items():
        status = "ok" if summary["correct"] else "FAILED"
        print(f"{name}: {status} ({summary['failed']}/"
              f"{summary['attempted']} failed)")
        for metric, m in summary["metrics"].items():
            print(f"  {metric:<18}{m['median']:>12.4g} {m['unit']:<4} "
                  f"[{m['q1']:.4g}, {m['q3']:.4g}] n={m['n']}")
        for error in summary["errors"]:
            print(f"  error: {error}")


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload for --seconds and print "
                             "one JSON result line")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring time of a --workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS,
                        help="ledger rounds (default %(default)s)")
    parser.add_argument("--record", action="store_true",
                        help="also write the ledger to baseline.json")
    parser.add_argument("--out", type=Path, default=None,
                        help="ledger output path (default out/ledger-*.json)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two ledgers, B against A")
    parser.add_argument("--record-goldens", action="store_true",
                        help="re-pin the output digests of --seed")
    parser.add_argument("--smoke", action="store_true",
                        help=f"every workload at 1/{SMOKE_INV_SCALE}")
    parser.add_argument("--child", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    parser.add_argument("--fingerprint", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None,
         goldens: Optional[dict] = None) -> int:
    args = _parse_args(argv)
    if args.child:
        OUT_DIR.mkdir(exist_ok=True)
        print(json.dumps(run_child(args.child, args.seed, bool(args.trace),
                                   args.smoke, args.fingerprint)),
              flush=True)
        # Freeing a 1/200 world takes about a second; the child has
        # nothing left to do, so skip the teardown.
        os._exit(0)
    if args.compare:
        a, b = (json.loads(path.read_text(encoding="utf-8"))
                for path in args.compare)
        return compare(a, b)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    goldens = load_goldens() if goldens is None else goldens

    if args.workload:
        summary = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.smoke, goldens)
        if not summary["metrics"]:
            print("\n".join(summary["errors"]) or "error: no repetition",
                  file=sys.stderr)
            return 1
        for error in summary["errors"]:
            print(f"error: {error}", file=sys.stderr)
        if args.trace:
            metrics = {key: {"value": summary["layers"].get(key, 0.0),
                             "unit": unit}
                       for key, (unit, _better) in PER_LAYER.items()}
        else:
            metrics = {key: {"value": summary["metrics"][key]["median"],
                             "unit": unit}
                       for key, (unit, _better, _bound)
                       in END_TO_END.items()}
        print(json.dumps({"correct": summary["correct"],
                          "attempted": summary["attempted"],
                          "failed": summary["failed"],
                          "metrics": metrics}))
        return 0 if summary["correct"] else 1

    if args.record_goldens:
        profile = "smoke" if args.smoke else "full"
        pinned = {}
        for name in WORKLOADS:
            rep = spawn_rep(name, args.seed, False, args.smoke)
            if not rep["ok"] or rep["failed"]:
                print(f"error: {rep.get('error', name)}", file=sys.stderr)
                return 1
            pinned[name] = rep["digests"]
        current = load_goldens()
        current.setdefault(profile, {})[str(args.seed)] = pinned
        _write_json(GOLDENS_PATH, current)
        print(f"pinned {profile} goldens for seed {args.seed}")
        return 0

    ledger = run_ledger(args.seed, args.rounds, args.smoke, goldens)
    out = args.out or OUT_DIR / f"ledger-{time.strftime('%Y%m%dT%H%M%S')}.json"
    _write_ledger(ledger, out)
    _print_ledger(ledger)
    print(f"wrote {out}")
    correct = all(s["correct"] for s in ledger["workloads"].values())
    if args.record and correct:
        _write_json(BASELINE_PATH, ledger)
        print(f"recorded {BASELINE_PATH.name}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
