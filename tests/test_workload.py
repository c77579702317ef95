"""Tests for name generation, calibration, campaigns, and scenarios."""

import pytest

from repro.ct.ca import CertificateAuthority
from repro.dnscore import name as dnsname
from repro.errors import ConfigError
from repro.simtime.clock import DAY, HOUR, PAPER_WINDOW
from repro.simtime.rng import RngStream
from repro.workload import calibration as cal
from repro.workload.actors import (
    BENIGN_PROFILES,
    FAST_MALICIOUS_PROFILES,
    LEGIT,
    PHISHER,
    pick_profile,
)
from repro.workload.calibration import (
    CCTLDTargets,
    FILLER_TLDS,
    build_targets,
    month_window,
)
from repro.workload.campaign import Campaign, plan_campaign
from repro.workload.namegen import NameGenerator, subdomain_names
from repro.workload.scenario import ScenarioConfig, build_world, small_world
from repro import paperdata


class TestNameGenerator:
    def _gen(self, namespace=""):
        return NameGenerator(RngStream(3, "names"), namespace=namespace)

    def test_all_styles_valid_names(self):
        gen = self._gen()
        for style in ("dictionary", "startup", "dga", "typosquat",
                      "bulk", "parked"):
            name = gen.by_style(style, "com", campaign_tag="c1")
            assert dnsname.is_valid(name)
            assert name.endswith(".com")

    def test_uniqueness_at_volume(self):
        gen = self._gen()
        names = {gen.dictionary("com") for _ in range(5000)}
        assert len(names) == 5000

    def test_namespaces_disjoint(self):
        a = NameGenerator(RngStream(3, "n"), namespace="")
        b = NameGenerator(RngStream(3, "n"), namespace="x-")
        names_a = {a.dictionary("com") for _ in range(500)}
        names_b = {b.dictionary("com") for _ in range(500)}
        assert not names_a & names_b

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            self._gen().by_style("sonnet", "com")

    def test_typosquat_contains_brandish_token(self):
        gen = self._gen()
        name = gen.typosquat("com")
        assert any(tok in name for tok in ("login", "secure", "verify",
                                           "account", "support", "update",
                                           "billing", "signin", "auth",
                                           "wallet"))

    def test_subdomain_names(self):
        subs = subdomain_names(RngStream(1, "s"), "example.com", 3)
        assert len(subs) == 3
        assert all(s.endswith(".example.com") for s in subs)


class TestCalibration:
    def test_full_scale_totals_match_paper(self):
        targets = build_targets(1.0)
        total_nrd = sum(t.total_nrd for t in targets.values())
        assert abs(total_nrd - paperdata.TABLE1_TOTAL.zone_nrd) < 0.01 * \
            paperdata.TABLE1_TOTAL.zone_nrd
        total_transient = sum(t.total_transient_observed
                              for t in targets.values())
        assert abs(total_transient - paperdata.TABLE2_TOTAL.total) < 0.02 * \
            paperdata.TABLE2_TOTAL.total

    def test_com_dominates(self):
        targets = build_targets(1 / 100)
        assert targets["com"].total_nrd > targets["xyz"].total_nrd * 5

    def test_coverage_from_table1(self):
        targets = build_targets(1 / 100)
        assert targets["bond"].ct_coverage == pytest.approx(0.827)
        assert targets["site"].ct_coverage == pytest.approx(0.344)

    def test_fillers_present(self):
        targets = build_targets(1 / 100)
        for tld in FILLER_TLDS:
            assert tld in targets

    def test_scale_bounds(self):
        with pytest.raises(ConfigError):
            build_targets(0)
        with pytest.raises(ConfigError):
            build_targets(1.5)

    def test_stochastic_rounding_unbiased(self):
        """Summed small-scale expectations stay close to scaled totals."""
        targets = build_targets(1 / 1000)
        fast_total = sum(t.fast_takedown_count(m)
                         for t in targets.values()
                         for m, _ in cal.MONTHS)
        expected = (paperdata.TABLE2_TOTAL.total / 1000
                    / (1 + cal.GHOST_RATIO + cal.HELD_RATIO)
                    / (cal.TRANSIENT_CERT_COVERAGE
                       * cal.NEVER_SNAPSHOT_GIVEN_FAST
                       * cal.CERT_IN_TIME_GIVEN_PLAN))
        assert abs(fast_total - expected) / expected < 0.25

    def test_month_window(self):
        window = month_window("2023-12")
        assert window.duration == 31 * DAY

    def test_cctld_scaling(self):
        cc = CCTLDTargets().scaled(0.5)
        assert cc.deleted_under_24h == round(paperdata.CCTLD_DELETED_UNDER_24H * 0.5)

    def test_early_cert_prob_capped(self):
        targets = build_targets(1.0)
        for t in targets.values():
            assert t.early_cert_prob() <= 0.97


class TestActors:
    def test_malicious_flags(self):
        assert PHISHER.is_malicious
        assert not LEGIT.is_malicious

    def test_pick_profile_weighted(self):
        rng = RngStream(1, "p")
        picks = [pick_profile(rng, FAST_MALICIOUS_PROFILES).name
                 for _ in range(2000)]
        assert picks.count("phisher") > picks.count("malware_op")

    def test_cert_delay_positive(self):
        rng = RngStream(1, "d")
        for profile, _ in BENIGN_PROFILES + FAST_MALICIOUS_PROFILES:
            for _ in range(50):
                assert profile.cert.sample_delay(rng) >= 30


class TestCampaign:
    def test_plan_campaign_shares_infrastructure(self):
        rng = RngStream(1, "c")
        campaign = Campaign("c1", PHISHER, "com", start_at=1000, size=10)
        gen = NameGenerator(RngStream(1, "cn"))
        plans = plan_campaign(campaign, gen, rng)
        assert len(plans) == 10
        assert len({p.registrar.name for p in plans}) == 1
        assert len({p.dns_provider.name for p in plans}) == 1
        assert len({p.domain for p in plans}) == 10

    def test_arrival_times_ordered(self):
        rng = RngStream(1, "c2")
        campaign = Campaign("c1", PHISHER, "com", start_at=1000, size=20)
        times = campaign.arrival_times(rng)
        assert times == sorted(times)
        assert times[0] == 1000


class TestScenario:
    def test_small_world_builds(self, tiny_world):
        assert tiny_world.registries.total_registrations() > 100
        assert tiny_world.certstream.event_count() > 10
        assert tiny_world.stats["registrations"] > 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(scale=0)

    def test_unknown_tld_rejected(self):
        with pytest.raises(ConfigError):
            build_world(ScenarioConfig(tlds=["com", "nosuchtld"],
                                       scale=1 / 5000))

    def test_determinism(self):
        config = ScenarioConfig(seed=99, scale=1 / 5000, tlds=["com"],
                                include_cctld=False)
        w1 = build_world(config)
        w2 = build_world(config)
        assert w1.stats == w2.stats
        d1 = sorted(lc.domain for lc in w1.registries.get("com").lifecycles())
        d2 = sorted(lc.domain for lc in w2.registries.get("com").lifecycles())
        assert d1 == d2

    def test_seed_changes_world(self):
        w1 = build_world(ScenarioConfig(seed=1, scale=1 / 5000, tlds=["com"],
                                        include_cctld=False))
        w2 = build_world(ScenarioConfig(seed=2, scale=1 / 5000, tlds=["com"],
                                        include_cctld=False))
        d1 = {lc.domain for lc in w1.registries.get("com").lifecycles()}
        d2 = {lc.domain for lc in w2.registries.get("com").lifecycles()}
        assert d1 != d2

    def test_ghost_certs_toggle(self):
        on = build_world(ScenarioConfig(seed=4, scale=1 / 500, tlds=["com"],
                                        include_cctld=False))
        off = build_world(ScenarioConfig(seed=4, scale=1 / 500, tlds=["com"],
                                         include_cctld=False,
                                         ghost_certs=False))
        assert on.stats["ghost_certs"] > 0
        assert off.stats["ghost_certs"] == 0

    def test_zone_nrd_counts_close_to_targets(self, tiny_world):
        truth = tiny_world.ground_truth
        counts = truth.zone_nrd_counts_by_tld()
        for tld, targets in tiny_world.targets.items():
            expected = targets.total_nrd
            if expected > 100:
                assert abs(counts.get(tld, 0) - expected) / expected < 0.15

    def test_certs_only_for_existing_or_token(self, monkeypatch):
        """Every issued certificate either validated freshly (domain in
        zone) or reused a token (ghost/held).  A CA keeps no issuance
        log, so the records are collected from ``request_certificate``
        while the tiny world builds."""
        issued = []
        request = CertificateAuthority.request_certificate

        def recording(ca, *args, **kwargs):
            record = request(ca, *args, **kwargs)
            issued.append((ca, record))
            return record

        monkeypatch.setattr(CertificateAuthority, "request_certificate",
                            recording)
        world = build_world(ScenarioConfig(
            seed=11, scale=1 / 5000, tlds=["com", "xyz"],
            include_cctld=False))
        assert len(issued) == world.stats["cert_requests"] > 0
        assert any(r.fresh_validation for _, r in issued)
        assert any(not r.fresh_validation for _, r in issued)
        for ca, record in issued:
            domain = record.certificate.common_name
            lifecycle = world.registries.find_lifecycle(domain)
            if record.fresh_validation:
                assert lifecycle is not None
                assert lifecycle.in_zone_at(record.issued_at
                                            - ca.validation_delay)
            else:
                assert record.certificate.reused_validation
            assert len(record.log_entries) == len(ca.logs)

    def test_small_world_helper(self):
        world = small_world(seed=2, tlds=("com",), scale=1 / 5000)
        assert world.cctld_tld is None
        assert set(world.targets) == {"com"}


class TestShardScheduling:
    """LPT submission order and the shard plan behind it."""

    def test_lpt_orders_by_descending_estimate(self):
        from repro.workload.scenario import lpt_order
        estimates = {("com", "2023-11"): 9000, ("com", "2023-12"): 7000,
                     ("xyz", "2023-11"): 120, ("top", "2024-01"): 7000,
                     ("bond", "2023-12"): 3}
        order = lpt_order(estimates)
        assert order[0] == ("com", "2023-11")
        assert order[-1] == ("bond", "2023-12")
        sizes = [estimates[key] for key in order]
        assert sizes == sorted(sizes, reverse=True)
        # Ties broken by key so the submission order is deterministic.
        assert order[1:3] == [("com", "2023-12"), ("top", "2024-01")]

    def test_skewed_estimates_put_the_straggler_first(self):
        # The whole point of LPT: a dominant shard (the old .com
        # straggler, now one month of it) must be submitted first so
        # it overlaps everything else instead of trailing the build.
        from repro.workload.scenario import (lpt_order, shard_estimates,
                                             shard_keys)
        config = ScenarioConfig(seed=5, scale=1 / 1000, include_cctld=False)
        targets = cal.build_targets(config.scale)
        estimates = shard_estimates(config, targets)
        assert set(estimates) == set(shard_keys(targets))
        order = lpt_order(estimates)
        # All three of the old straggler's monthly shards go first, so
        # they overlap the rest of the build instead of trailing it.
        assert {key[0] for key in order[:3]} == {"com"}

    def test_estimates_cover_every_population(self):
        from repro.workload.scenario import shard_estimates
        config = ScenarioConfig(seed=5, scale=1 / 2000,
                                tlds=["com", "xyz"], include_cctld=False)
        targets = cal.build_targets(config.scale)
        targets = {t: targets[t] for t in config.tlds}
        estimates = shard_estimates(config, targets)
        com = targets["com"]
        first = cal.MONTH_KEYS[0]
        base = int(round(com.total_nrd * cal.BASELINE_FRACTION))
        want = (com.monthly_nrd[first] + com.fast_takedown_count(first)
                + com.ghost_count(first) + com.held_count(first) + base)
        assert estimates[("com", first)] == want


class TestLifecycleRowRoundTrip:
    """lifecycle_rows -> register_many must be a lossless round trip."""

    def test_rows_rebuild_identical_registries(self):
        from repro.registry.policy import policy_for
        from repro.registry.registry import Registry, lifecycle_rows

        world = small_world(seed=19, tlds=("com", "top"), scale=1 / 4000)
        for source in world.registries:
            rebuilt = Registry(policy_for(source.tld))
            rebuilt.register_many(lifecycle_rows(source),
                                  source.dirty_tick_indices())
            assert len(rebuilt) == len(source)
            assert (rebuilt.dirty_tick_indices()
                    == source.dirty_tick_indices())
            pairs = zip(source.lifecycles(), rebuilt.lifecycles())
            for lc, copy in pairs:
                assert copy.domain is lc.domain  # interned identity
                for field in ("registrar", "created_at", "zone_added_at",
                              "removed_at", "zone_removed_at",
                              "dns_provider", "web_provider",
                              "is_malicious", "abuse_kind",
                              "removal_reason", "actor", "campaign",
                              "held", "lame", "rdap_sync_lag"):
                    assert getattr(copy, field) == getattr(lc, field), field
                assert (list(copy.ns_timeline.changes())
                        == list(lc.ns_timeline.changes()))
                assert (list(copy.a_timeline.changes())
                        == list(lc.a_timeline.changes()))
                assert (list(copy.aaaa_timeline.changes())
                        == list(lc.aaaa_timeline.changes()))

    def test_register_many_rejects_duplicates(self):
        from repro.errors import RegistrationError
        from repro.registry.policy import policy_for
        from repro.registry.registry import Registry, lifecycle_rows

        source = Registry(policy_for("com"))
        source.register("dup-row.com", 1000, "R1", ns_hosts=("ns1.x.com",))
        rows = lifecycle_rows(source)
        target = Registry(policy_for("com"))
        target.register_many(rows)
        with pytest.raises(RegistrationError):
            target.register_many(rows)
