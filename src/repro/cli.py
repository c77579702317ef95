"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``reproduce``
    Build a world, run the pipeline, print every paper-vs-measured
    report (the EXPERIMENTS.md generator).
``feed``
    Run the pipeline and write the public NRD feed as JSON lines.
``sweep``
    The Rapid-Zone-Update cadence sweep (Ablation A).
``probe``
    SOA-serial cadence probing of every simulated registry (§4.1).
``serve``
    Run the feed-distribution service: pipeline → segmented log →
    filtered subscribers with sharded fan-out; print the metrics
    snapshot as JSON.
``scan``
    Bulk-measure every CT-detected candidate through the scan engine
    (scheduler + rate-limited probe fleet); print the engine metrics
    snapshot as JSON.
``metrics``
    Run a pipeline and print the process telemetry registry — every
    subsystem's counters plus the phase spans — as a JSON snapshot.

``reproduce`` / ``scan`` / ``serve`` also accept ``--metrics-out PATH``
to write the registry snapshot (JSON) next to their normal output,
plus the diagnosis flags (``docs/observability.md``):

* ``--profile-out PATH`` — sample the run with the built-in profiler
  (:mod:`repro.obs.profiler`) and write flamegraph-collapsed stacks;
* ``--log-json PATH`` — append every log event as one JSON object per
  line (the human-readable stderr rendering stays on either way);
* ``--quiet`` — drop info-level log events (warnings and errors stay).

Error reporting is uniform across subcommands: bad user input (flag
values, filter specs, durations, paths) exits 2 with one clean line on
stderr — argparse-level validation and :class:`~repro.errors.ReproError`
/ :class:`OSError` raised later share that same contract.  All stderr
output flows through the structured log router (logger ``cli``), so
``--log-json`` captures it with span/trace correlation ids attached.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import ExitStack, contextmanager
from typing import List, Optional

from repro._version import __version__
from repro.analysis.cadence import cadence_report, probe_registry
from repro.analysis.report import full_report, render_reports
from repro.analysis.visibility import DEFAULT_CADENCES, rzu_report, rzu_sweep
from repro.core.ctdetect import CTDetector
from repro.core.pipeline import DarkDNSPipeline
from repro.errors import ReproError
from repro.obs.log import get_logger, router
from repro.obs.metrics import to_json
from repro.obs.profiler import SamplingProfiler
from repro.scan import ProbeResultStore, ScanConfig, ScanEngine
from repro.serve import FeedServer, FeedServerConfig, FilterSpec
from repro.simtime.clock import DAY, Window, parse_duration
from repro.simtime.rng import spawn
from repro.workload.scenario import ScenarioConfig, build_world
from repro.workload.scenarios import iter_scenarios, parse_scenario_spec

log = get_logger("cli")


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, rejected with a clean message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0 (``nan``/``inf`` rejected)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0, rejected with a clean message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {value}")
    return value


def _add_world_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7,
                        help="master seed (default 7)")
    parser.add_argument("--scale", type=_positive_int, default=500,
                        metavar="N",
                        help="run at 1/N of the paper's volumes (default 500)")
    parser.add_argument("--no-cctld", action="store_true",
                        help="skip the .nl ground-truth registry")
    parser.add_argument("--jobs", type=_nonnegative_int, default=1,
                        metavar="N",
                        help="worker processes for world generation "
                             "(default 1 = serial, 0 = one per core; the "
                             "built world is bit-identical for any value)")
    parser.add_argument("--fault-plan", metavar="SPEC", default=None,
                        help="deterministic fault-injection plan: a JSON "
                             "object/file path or a CLI spec like "
                             "'seed=7;worker.crash:rate=0.5,fires=1' "
                             "(see docs/resilience.md; default: no faults)")
    parser.add_argument("--scenario", metavar="SPEC", default=None,
                        help="build a scenario world: a registered name, "
                             "optionally with knob overrides, e.g. "
                             "'registrar-burst:burst_day=30,burst_mult=12' "
                             "(see 'repro scenarios' for the registry; "
                             "default: the plain calibrated world)")


def _scenario_from(args: argparse.Namespace):
    """``(name, knobs)`` from ``--scenario``, or ``(None, {})``."""
    if getattr(args, "scenario", None) is None:
        return None, {}
    return parse_scenario_spec(args.scenario)


def _world_from(args: argparse.Namespace, cctld_scale: Optional[float] = None):
    scenario, knobs = _scenario_from(args)
    return build_world(ScenarioConfig(
        seed=args.seed, scale=1 / args.scale,
        include_cctld=not args.no_cctld,
        cctld_scale=cctld_scale,
        parallel=args.jobs,
        fault_plan=args.fault_plan,
        scenario=scenario, scenario_knobs=knobs))


def _add_metrics_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the telemetry registry snapshot "
                             "(JSON: every subsystem's counters plus "
                             "the phase spans) to PATH")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """The diagnosis flags shared by reproduce / scan / serve."""
    parser.add_argument("--profile-out", metavar="PATH", default=None,
                        help="sample the run with the built-in profiler "
                             "and write flamegraph-collapsed stacks "
                             "(phase-rooted) to PATH")
    parser.add_argument("--profile-interval", type=_positive_float,
                        default=SamplingProfiler.DEFAULT_INTERVAL,
                        metavar="SECONDS",
                        help="seconds between profiler samples (default "
                             f"{SamplingProfiler.DEFAULT_INTERVAL})")
    parser.add_argument("--log-json", metavar="PATH", default=None,
                        help="append every log event as one JSON object "
                             "per line to PATH (stderr rendering stays on)")
    parser.add_argument("--quiet", action="store_true",
                        help="drop info-level log events from stderr and "
                             "--log-json (warnings and errors stay)")


@contextmanager
def _instrumented(args: argparse.Namespace):
    """Run one subcommand under the diagnosis wiring of its obs flags.

    Raises the log threshold under ``--quiet``, attaches the
    ``--log-json`` sink and starts the ``--profile-out`` profiler —
    and undoes each setting on every exit path, including a failure
    to set up a later one (the router's level and sink are
    process-global; a CLI invocation must not leak its settings into
    an embedding process or the next test).
    """
    route = router()
    with ExitStack() as undo:
        undo.callback(route.set_level, route.level)
        if args.quiet:
            route.set_level("warning")
        if args.log_json is not None:
            route.open_json(args.log_json)
            undo.callback(route.close_json)
        profiler = None
        if args.profile_out is not None:
            profiler = SamplingProfiler(interval=args.profile_interval)
            undo.callback(profiler.stop)
            profiler.start()
        yield
        if profiler is not None:
            profiler.stop()
            lines = profiler.write_collapsed(args.profile_out)
            log.info(f"wrote {lines} collapsed stacks "
                     f"({profiler.samples:,} samples) to {args.profile_out}",
                     samples=profiler.samples, stacks=lines)


def _write_metrics_out(path: Optional[str]) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_json() + "\n")
    log.info(f"wrote metrics snapshot to {path}")


def cmd_reproduce(args: argparse.Namespace) -> int:
    start = time.time()
    world = _world_from(args, cctld_scale=1.0 if not args.no_cctld else None)
    log.info(f"world: {world.registries.total_registrations():,} "
             f"registrations, {world.certstream.event_count():,} CT entries "
             f"({time.time() - start:.1f}s)",
             registrations=world.registries.total_registrations(),
             ct_entries=world.certstream.event_count())
    result = DarkDNSPipeline(world).run()
    print(render_reports(full_report(world, result)))
    _write_metrics_out(args.metrics_out)
    return 0


def cmd_feed(args: argparse.Namespace) -> int:
    world = _world_from(args)
    pipeline = DarkDNSPipeline(world)
    pipeline.run()
    count = pipeline.feed.to_jsonl(args.output)
    log.info(f"wrote {count:,} records to {args.output}", records=count)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario, knobs = _scenario_from(args)
    config = ScenarioConfig(
        seed=args.seed, scale=1 / args.scale, include_cctld=False,
        tlds=["com", "net", "xyz", "online", "site", "top"],
        parallel=args.jobs,
        scenario=scenario, scenario_knobs=knobs)
    points = rzu_sweep(config, DEFAULT_CADENCES)
    print(rzu_report(points).render())
    return 0


def _register_serve_clients(server: FeedServer, args: argparse.Namespace,
                            tlds: List[str]) -> None:
    """Subscribe ``--clients`` synthetic consumers.

    Explicit ``--filters`` specs are cycled across clients; otherwise
    each client draws a deterministic filter (firehose, a small TLD
    subset, or source-restricted) and a tier from the run's seed.
    """
    rng = spawn(args.seed, "serve", "clients")
    for i in range(args.clients):
        client_id = f"client-{i:04d}"
        tier = rng.weighted_choice(["free", "standard", "premium"],
                                   [0.3, 0.5, 0.2])
        if args.filters:
            spec = FilterSpec.parse(args.filters[i % len(args.filters)])
        else:
            roll = rng.random()
            if roll < 0.3 or not tlds:
                spec = FilterSpec()
            elif roll < 0.85:
                k = rng.randint(1, min(3, len(tlds)))
                spec = FilterSpec(tlds=frozenset(rng.sample(tlds, k)))
            else:
                spec = FilterSpec(sources=frozenset({"ct"}))
        server.subscribe(client_id, spec, tier=tier)


def cmd_serve(args: argparse.Namespace) -> int:
    config = FeedServerConfig(shards=args.shards,
                              max_queue_depth=args.queue_depth,
                              max_segment_records=args.segment_records,
                              fault_plan=args.fault_plan)

    if args.replay:
        server = FeedServer(config=config)
        _register_serve_clients(server, args, tlds=[])
        count = server.replay(args.replay)
        now = server.last_ingested_ts
        log.info(f"replayed {count:,} records from {args.replay} "
                 f"({server.replay_skipped} skipped)",
                 records=count, skipped=server.replay_skipped)
    else:
        world = _world_from(args)
        server = FeedServer(broker=world.broker, config=config)
        _register_serve_clients(server, args,
                                tlds=sorted(world.registries.tlds()))
        start = time.time()
        DarkDNSPipeline(world).run()
        log.info(f"pipeline done in {time.time() - start:.1f}s; serving to "
                 f"{server.client_count} clients",
                 clients=server.client_count)
        served = server.run_live(poll_interval=args.poll_interval)
        log.info(f"served {served:,} records across the window",
                 records=served)
        now = server.last_ingested_ts

    server.drain_until_empty(now, max_rounds=5000, tick=60)
    server.log.roll()
    compacted = server.compact()

    counts = server.fanout.delivered_counts()
    receiving = sum(1 for n in counts.values() if n > 0)
    log.info(f"{receiving}/{args.clients} subscribers received records; "
             f"compaction dropped {compacted:,} superseded records",
             receiving=receiving, compacted=compacted)
    print(json.dumps(server.snapshot(), indent=2, sort_keys=True))
    _write_metrics_out(args.metrics_out)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    # Validate user input before paying for the world build.
    config = ScanConfig(
        probe_interval=parse_duration(args.interval),
        duration=parse_duration(args.duration),
        workers=args.workers,
        qps_per_authority=args.qps,
        probe_budget=args.budget,
        jitter=args.jitter,
        terminate_nxdomain_streak=args.nxdomain_streak,
        fault_plan=args.fault_plan)
    world = _world_from(args)
    detector = CTDetector(archive=world.archive,
                          known_tlds=world.registries.tlds(),
                          broker=world.broker)
    candidates = detector.run(world.certstream,
                              world.window.start, world.window.end)
    store = ProbeResultStore() if args.store else None
    engine = ScanEngine(world.registries, config,
                        broker=world.broker, store=store)
    log.info(f"scanning {len(candidates):,} CT candidates "
             f"({config.duration // 3600}h window, "
             f"{config.probe_interval // 60}-min grid, "
             f"{config.workers} workers)", candidates=len(candidates))
    start = time.time()
    reports = engine.observe_all(
        {d: c.ct_seen_at for d, c in candidates.items()})
    elapsed = time.time() - start
    resolved = sum(1 for r in reports.values() if r.ever_resolved)
    log.info(f"scanned {len(reports):,} domains "
             f"({resolved:,} ever resolved) with "
             f"{engine.metrics.probes_sent.value:,} probes "
             f"in {elapsed:.1f}s",
             scanned=len(reports), resolved=resolved)
    if args.store:
        store.save(args.store)
        log.info(f"wrote {len(store):,} probe outcomes to {args.store}",
                 outcomes=len(store))
    print(json.dumps(engine.snapshot(), indent=2, sort_keys=True))
    _write_metrics_out(args.metrics_out)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run the pipeline, then print the telemetry registry as JSON."""
    world = _world_from(args)
    DarkDNSPipeline(world).run()
    print(to_json())
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List the scenario registry: name, description, knobs."""
    for cls in iter_scenarios():
        print(f"{cls.name}")
        print(f"    {cls.description}")
        for knob in cls.knobs:
            print(f"    {knob.name}={knob.default:g}  {knob.description}")
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    world = _world_from(args)
    window = Window(world.window.start, world.window.start + 3 * DAY)
    estimates = [probe_registry(registry, window, probe_interval=30)
                 for registry in world.registries]
    print(cadence_report(estimates).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DarkDNS (IMC '24) reproduction over a simulated "
                    "DNS registration ecosystem")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_repro = sub.add_parser("reproduce",
                             help="run everything, print paper-vs-measured")
    _add_world_args(p_repro)
    _add_metrics_out(p_repro)
    _add_obs_args(p_repro)
    p_repro.set_defaults(func=cmd_reproduce)

    p_feed = sub.add_parser("feed", help="write the public NRD feed (JSONL)")
    _add_world_args(p_feed)
    p_feed.add_argument("--output", default="zonestream.jsonl")
    p_feed.set_defaults(func=cmd_feed)

    p_sweep = sub.add_parser("sweep",
                             help="Rapid-Zone-Update cadence sweep")
    _add_world_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_probe = sub.add_parser("probe",
                             help="SOA-serial cadence probe (§4.1)")
    _add_world_args(p_probe)
    p_probe.set_defaults(func=cmd_probe)

    p_scen = sub.add_parser(
        "scenarios", help="list registered scenario plugins and their knobs")
    p_scen.set_defaults(func=cmd_scenarios)

    p_serve = sub.add_parser(
        "serve", help="serve the public feed to simulated subscribers")
    _add_world_args(p_serve)
    p_serve.add_argument("--clients", type=_positive_int, default=50,
                         metavar="N",
                         help="subscriber population (default 50)")
    p_serve.add_argument("--filters", nargs="+", metavar="SPEC",
                         help="filter specs cycled across clients, e.g. "
                              "'tld=com,xyz;glob=*shop*' (default: "
                              "seeded per-client filters)")
    p_serve.add_argument("--replay", metavar="PATH",
                         help="serve a JSONL feed archive instead of "
                              "running the pipeline")
    p_serve.add_argument("--shards", type=_positive_int, default=4,
                         help="fan-out delivery shards (default 4)")
    p_serve.add_argument("--queue-depth", type=_positive_int, default=1024,
                         help="per-client queue bound (default 1024)")
    p_serve.add_argument("--segment-records", type=_positive_int,
                         default=4096,
                         help="log segment size before rolling "
                              "(default 4096)")
    p_serve.add_argument("--poll-interval", type=_positive_int, default=3600,
                         metavar="SECONDS",
                         help="simulated time between client polls "
                              "during live replay (default 3600)")
    _add_metrics_out(p_serve)
    _add_obs_args(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_scan = sub.add_parser(
        "scan", help="bulk-measure CT candidates with the scan engine")
    _add_world_args(p_scan)
    p_scan.add_argument("--workers", type=_positive_int, default=16,
                        metavar="N",
                        help="probe fleet size (default 16, the paper's)")
    p_scan.add_argument("--qps", type=_positive_float, default=None,
                        metavar="Q",
                        help="per-authority probe cap in queries per "
                             "simulated second (default: unthrottled)")
    p_scan.add_argument("--budget", type=_positive_int, default=None,
                        metavar="N",
                        help="hard cap on probes sent across the run "
                             "(default: unlimited)")
    p_scan.add_argument("--store", metavar="PATH",
                        help="write every probe outcome to a columnar "
                             "JSON store at PATH")
    p_scan.add_argument("--interval", default="10m", metavar="DURATION",
                        help="probe grid interval (default 10m)")
    p_scan.add_argument("--duration", default="48h", metavar="DURATION",
                        help="per-domain monitoring window (default 48h)")
    p_scan.add_argument("--jitter", type=int, default=0, metavar="SECONDS",
                        help="max per-domain grid offset (default 0)")
    p_scan.add_argument("--nxdomain-streak", type=_positive_int,
                        default=None, metavar="K",
                        help="terminate never-resolved domains after K "
                             "consecutive NXDOMAIN instants "
                             "(default: keep probing)")
    _add_metrics_out(p_scan)
    _add_obs_args(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_metrics = sub.add_parser(
        "metrics", help="run a pipeline, print the telemetry registry")
    _add_world_args(p_metrics)
    p_metrics.set_defaults(func=cmd_metrics)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "profile_out"):
            with _instrumented(args):
                return args.func(args)
        return args.func(args)
    except (ReproError, OSError) as exc:
        # The uniform user-error contract shared by every subcommand:
        # bad input (filter specs, durations, paths, config values)
        # gets one clean line and exit code 2, never a traceback —
        # matching argparse's own behaviour for flag-level errors.
        # Error-level events bypass the router's duplicate suppression,
        # so the line always appears.
        log.error(str(exc))
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
