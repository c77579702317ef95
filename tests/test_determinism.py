"""End-to-end determinism: same seed ⇒ bit-identical results."""

from dataclasses import replace

import pytest

from repro.analysis.report import full_report
from repro.core.pipeline import run_pipeline
from repro.workload.scenario import (
    ScenarioConfig,
    build_world,
    world_fingerprint,
)


CONFIG = ScenarioConfig(seed=21, scale=1 / 5000, tlds=["com", "xyz", "top"],
                        include_cctld=False)

#: Golden world fingerprints.  They pin every sampled value in a world:
#: any optimization that perturbs a single draw — one extra RNG call,
#: one reordered weighted pick, one changed hash — changes these
#: digests and fails the suite.  If a future PR *intends* to change
#: sampling, re-record via
#: ``PYTHONPATH=src python -c "from repro.workload.scenario import *; \
#: print(world_fingerprint(build_world(<config>)))"`` and say so in the
#: PR description.
#:
#: Fingerprint epoch 2: re-recorded for the per-``(tld, month)`` stream
#: relayout (docs/determinism.md "Re-recording goldens") — month-scoped
#: stream paths and name namespaces deliberately changed every digest.
GOLDEN_FINGERPRINTS = {
    "gtld_small": (
        ScenarioConfig(seed=21, scale=1 / 5000, tlds=["com", "xyz", "top"],
                       include_cctld=False),
        "f43497fbdd28f526f290d8e71eaa881d",
    ),
    "with_cctld": (
        ScenarioConfig(seed=11, scale=1 / 4000, tlds=["com", "shop"],
                       include_cctld=True, cctld_scale=1 / 100),
        "ca5aec293743bc948ebd8f8996d12028",
    ),
    # The canonical 1/500 serial point the chaos and instrumented
    # builds must reproduce.
    "canonical_1_500": (
        ScenarioConfig(seed=7, scale=1 / 500, include_cctld=False),
        "18ff5b7ae351a5f45b0585ad0075cebb",
    ),
}


class TestWorldFingerprintGolden:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
    def test_fingerprint_matches_golden(self, name):
        config, expected = GOLDEN_FINGERPRINTS[name]
        assert world_fingerprint(build_world(config)) == expected

    def test_fingerprint_stable_across_builds(self):
        config, _ = GOLDEN_FINGERPRINTS["gtld_small"]
        assert (world_fingerprint(build_world(config))
                == world_fingerprint(build_world(config)))

    def test_fingerprint_seed_sensitive(self):
        config, expected = GOLDEN_FINGERPRINTS["gtld_small"]
        from dataclasses import replace
        other = world_fingerprint(build_world(replace(config, seed=22)))
        assert other != expected


class TestMultiCoreBuildIsBitIdentical:
    """The multi-core world build's headline guarantee: ``parallel=N``
    is a pure wall-clock lever — every sampled value, every insertion
    order, every counter matches the serial build exactly (see
    docs/determinism.md for why).
    """

    def test_golden_fingerprint_holds_under_parallel_build(self):
        # The committed golden was recorded from a serial build; a
        # 3-worker build must reproduce the identical digest.
        config, expected = GOLDEN_FINGERPRINTS["gtld_small"]
        assert world_fingerprint(
            build_world(replace(config, parallel=3))) == expected

    @pytest.mark.parametrize("inv_scale", [500, 100])
    def test_jobs1_equals_jobs4(self, inv_scale):
        # The acceptance points: 1/500 and 1/100 scale, jobs=1 vs
        # jobs=4.  The ccTLD population stays on at 1/500 so the
        # serial-after-merge interplay is covered too.
        config = ScenarioConfig(seed=7, scale=1.0 / inv_scale,
                                include_cctld=(inv_scale == 500))
        serial = build_world(config)
        parallel = build_world(replace(config, parallel=4))
        assert world_fingerprint(serial) == world_fingerprint(parallel)
        assert serial.stats == parallel.stats
        # Insertion order is part of the contract (analyses iterate
        # lifecycles in registration order).
        for reg_s, reg_p in zip(serial.registries, parallel.registries):
            assert reg_s.tld == reg_p.tld
            assert ([lc.domain for lc in reg_s.lifecycles()]
                    == [lc.domain for lc in reg_p.lifecycles()])
            # SOA serials derive from the merged dirty ticks.
            end = config.window.end
            assert reg_s.serial_at(end) == reg_p.serial_at(end)

    def test_jobs_zero_means_auto(self):
        config, expected = GOLDEN_FINGERPRINTS["gtld_small"]
        assert world_fingerprint(
            build_world(replace(config, parallel=0))) == expected


class TestScenarioIdentity:
    """The scenario engine's zero-cost guarantee: ``scenario="baseline"``
    (the identity plugin) builds the same bytes as ``scenario=None`` —
    plugin hooks draw only from dedicated streams the base build never
    touches, so an identity plugin cannot perturb a single value.
    """

    def test_baseline_scenario_reproduces_the_golden(self):
        config, expected = GOLDEN_FINGERPRINTS["gtld_small"]
        assert world_fingerprint(build_world(
            replace(config, scenario="baseline"))) == expected

    def test_baseline_equals_none_under_parallel_build(self):
        config, expected = GOLDEN_FINGERPRINTS["gtld_small"]
        assert world_fingerprint(build_world(
            replace(config, scenario="baseline", parallel=2))) == expected


@pytest.fixture(scope="module")
def run_pair():
    first = run_pipeline(build_world(CONFIG))
    second = run_pipeline(build_world(CONFIG))
    return first, second


class TestDeterminism:
    def test_candidate_sets_identical(self, run_pair):
        first, second = run_pair
        assert set(first.candidates) == set(second.candidates)
        for domain in first.candidates:
            assert (first.candidates[domain].ct_seen_at
                    == second.candidates[domain].ct_seen_at)

    def test_rdap_outcomes_identical(self, run_pair):
        first, second = run_pair
        for domain in first.rdap:
            a, b = first.rdap[domain], second.rdap[domain]
            assert a.ok == b.ok and a.failure == b.failure

    def test_transient_sets_identical(self, run_pair):
        first, second = run_pair
        assert first.confirmed_transients == second.confirmed_transients
        assert first.rdap_failed_transients == second.rdap_failed_transients

    def test_monitor_reports_identical(self, run_pair):
        first, second = run_pair
        for domain in list(first.monitors)[:200]:
            a, b = first.monitors[domain], second.monitors[domain]
            assert a == b

    def test_stats_identical(self, run_pair):
        first, second = run_pair
        assert first.stats == second.stats

    def test_reports_identical(self, run_pair):
        first, second = run_pair
        world = build_world(CONFIG)
        # Rendering must be stable too (no dict-order leakage).
        text_a = "\n".join(r.render() for r in full_report(
            world, first, include_nod=False))
        text_b = "\n".join(r.render() for r in full_report(
            world, second, include_nod=False))
        assert text_a == text_b


class TestInstrumentedBuildMatchesGolden:
    """The observability acceptance gate: a multi-core build with the
    tracer *and* the sampling profiler running must reproduce the
    committed golden fingerprint bit-identically — telemetry draws no
    RNG and never perturbs a sampled value — and the parent tracer must
    hold the stitched per-worker ``build.populate_shard`` spans.
    """

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_profiled_parallel_build_hits_golden(self, jobs):
        from repro.obs.profiler import SamplingProfiler
        from repro.obs.spans import tracer

        config, expected = GOLDEN_FINGERPRINTS["canonical_1_500"]
        config = replace(config, parallel=jobs)
        trace = tracer()
        trace.reset()
        profiler = SamplingProfiler(interval=0.002).start()
        try:
            world = build_world(config)
        finally:
            profiler.stop()

        # Bit-identical to the committed serial golden, telemetry on.
        assert world_fingerprint(world) == expected

        # Every worker's populate spans were stitched into the parent:
        # one span per (tld, month) shard, three months per TLD.
        from repro.workload import calibration as cal

        totals = trace.phase_totals()
        assert "build.populate_shard" in totals
        populate = [s for s in trace.spans
                    if s.name == "build.populate_shard"]
        assert len(populate) == len(cal.MONTH_KEYS) * len(world.targets)
        assert totals["build.populate_shard"]["count"] == len(populate)
        assert ({(s.labels["tld"], s.labels["month"]) for s in populate}
                == {(tld, month) for tld in world.targets
                    for month in cal.MONTH_KEYS})
        assert all("worker" in s.labels for s in populate)
        # Re-rooted under the one merge span, one level down.
        (merge,) = [s for s in trace.spans
                    if s.name == "build.merge_shards"]
        assert all(s.parent_id == merge.span_id for s in populate)
        assert all(s.depth == merge.depth + 1 for s in populate)
        # Per-shard wall time survived the stitch (straggler evidence).
        assert all(s.wall_sec > 0 for s in populate)
        # Every worker process contributed spans.
        workers = {s.labels["worker"] for s in populate}
        assert len(workers) == min(jobs, len(populate))
