"""Tests for certificates, CAs, DV-token reuse, logs and Certstream."""

import pytest

from repro.ct.ca import (
    CA_PROFILES,
    CertificateAuthority,
    DV_TOKEN_VALIDITY,
    DVToken,
    pick_ca,
)
from repro.ct.certificate import Certificate, MAX_VALIDITY, make_precert
from repro.ct.certstream import CertstreamFeed
from repro.ct.ctlog import CTLog
from repro.errors import CTError, ValidationError
from repro.simtime.clock import DAY, HOUR
from repro.simtime.rng import RngStream
from repro.workload.scenario import ScenarioConfig, build_world


class TestCertificate:
    def test_make_precert_includes_www(self):
        cert = make_precert(1, "example.com", "TestCA", 1000)
        assert cert.dns_names() == ["example.com", "www.example.com"]

    def test_wildcard_cn_stripped(self):
        cert = Certificate(serial=1, common_name="*.example.com",
                           sans=("*.example.com",), issuer="CA",
                           not_before=0, not_after=DAY)
        assert cert.common_name == "example.com"
        assert cert.dns_names() == ["example.com"]

    def test_junk_sans_dropped(self):
        cert = Certificate(serial=1, common_name="example.com",
                           sans=("bad..name", "ok.example.net"), issuer="CA",
                           not_before=0, not_after=DAY)
        assert cert.dns_names() == ["example.com", "ok.example.net"]

    def test_rejects_inverted_validity(self):
        with pytest.raises(CTError):
            Certificate(serial=1, common_name="a.com", sans=(),
                        issuer="CA", not_before=100, not_after=100)

    def test_rejects_over_398_days(self):
        with pytest.raises(CTError):
            Certificate(serial=1, common_name="a.com", sans=(),
                        issuer="CA", not_before=0,
                        not_after=MAX_VALIDITY + DAY)


class TestCTLog:
    def test_submit_assigns_index_and_merge_delay(self):
        log = CTLog("test", merge_delay=30)
        entry = log.submit(make_precert(1, "a.com", "CA", 1000), 1000)
        assert entry.index == 0
        assert entry.logged_at == 1030

    def test_rejects_final_certs(self):
        log = CTLog("test")
        final = Certificate(serial=1, common_name="a.com", sans=(),
                            issuer="CA", not_before=0, not_after=DAY,
                            is_precert=False)
        with pytest.raises(CTError):
            log.submit(final, 0)

    def test_monotone_incorporation(self):
        log = CTLog("test", merge_delay=10)
        log.submit(make_precert(1, "a.com", "CA", 1000), 1000)
        entry = log.submit(make_precert(2, "b.com", "CA", 900), 900)
        assert entry.logged_at >= 1010

    def test_entries_replay_what_submit_returned(self):
        """The log keeps two columns, not entry objects: ``entries()``
        rebuilds each entry with its position as its index."""
        log = CTLog("test", merge_delay=10)
        submitted = [log.submit(make_precert(i, f"d{i}.com", "CA", t), t)
                     for i, t in enumerate((500, 100, 900), start=1)]
        replayed = list(log.entries())
        assert len(log) == 3
        assert [e.index for e in replayed] == [0, 1, 2]
        assert [e.logged_at for e in replayed] == [510, 510, 910]
        assert [(e.index, e.logged_at, e.certificate) for e in replayed] == \
            [(e.index, e.logged_at, e.certificate) for e in submitted]
        assert replayed[0] is not submitted[0]


def _oracle(exists_set):
    return lambda domain, ts: domain in exists_set


class TestCertificateAuthority:
    def test_fresh_validation_issues(self):
        log = CTLog("test")
        ca = CertificateAuthority("CA", _oracle({"a.com"}), [log])
        record = ca.request_certificate("a.com", 1000)
        assert record.fresh_validation
        assert not record.certificate.reused_validation
        assert len(log) == 1

    def test_nonexistent_without_token_rejected(self):
        ca = CertificateAuthority("CA", _oracle(set()), [CTLog("t")])
        with pytest.raises(ValidationError):
            ca.request_certificate("ghost.com", 1000)
        assert ca.rejections == 1

    def test_ghost_issuance_via_token(self):
        """The §4.2 cause-(iii) mechanism: a cached DV token lets the CA
        issue for a domain that does not exist."""
        ca = CertificateAuthority("CA", _oracle(set()), [CTLog("t")])
        ca.seed_token("ghost.com", validated_at=1000)
        record = ca.request_certificate("ghost.com", 1000 + 100 * DAY)
        assert record.certificate.reused_validation
        assert not record.fresh_validation

    def test_expired_token_rejected(self):
        ca = CertificateAuthority("CA", _oracle(set()), [CTLog("t")])
        ca.seed_token("ghost.com", validated_at=0)
        with pytest.raises(ValidationError):
            ca.request_certificate("ghost.com", DV_TOKEN_VALIDITY + DAY)

    def test_fresh_validation_refreshes_token(self):
        ca = CertificateAuthority("CA", _oracle({"a.com"}), [CTLog("t")])
        ca.request_certificate("a.com", 1000)
        token = ca.token_for("a.com")
        assert token is not None and token.valid_at(1000 + 300 * DAY)

    def test_validation_delay_applied(self):
        ca = CertificateAuthority("CA", _oracle({"a.com"}), [CTLog("t")],
                                  validation_delay=20)
        record = ca.request_certificate("a.com", 1000)
        assert record.issued_at == 1020

    def test_requires_logs(self):
        with pytest.raises(ValidationError):
            CertificateAuthority("CA", _oracle(set()), [])

    def test_keeps_no_per_issuance_state(self):
        """The requester gets the issuance record; the CA keeps only
        its DV tokens, and the certificates live in the CT logs."""
        log = CTLog("t")
        ca = CertificateAuthority("CA", _oracle({"a.com"}), [log])
        ca.request_certificate("a.com", 1000)
        sizes = {key: len(value) for key, value in vars(ca).items()
                 if isinstance(value, (list, dict, set, tuple))}
        for i in range(5):
            record = ca.request_certificate("a.com", 2000 + i)
            assert record.log_entries[0].certificate is record.certificate
        assert len(log) == 6
        assert not hasattr(ca, "issued")
        assert sizes == {key: len(value) for key, value in vars(ca).items()
                         if isinstance(value, (list, dict, set, tuple))}

    def test_dvtoken_window(self):
        token = DVToken("a.com", 1000)
        assert token.valid_at(1000)
        assert token.valid_at(1000 + DV_TOKEN_VALIDITY)
        assert not token.valid_at(999)
        assert not token.valid_at(1001 + DV_TOKEN_VALIDITY)

    def test_pick_ca_by_market_share(self):
        logs = [CTLog("t")]
        cas = [CertificateAuthority(p.name, _oracle(set()), logs)
               for p in CA_PROFILES]
        rng = RngStream(1, "ca")
        picks = [pick_ca(rng, cas).name for _ in range(2000)]
        assert picks.count("Let's Encrypt") > picks.count("DigiCert")

    def test_own_serials_start_at_one(self):
        ca = CertificateAuthority("CA", _oracle({"a.com", "b.com"}),
                                  [CTLog("t")])
        serials = [ca.request_certificate(domain, 1000).certificate.serial
                   for domain in ("a.com", "b.com")]
        assert serials == [1, 2]

    def test_serials_depend_only_on_the_world(self):
        """Two builds of one config in one process issue the same
        serials: the world's CAs share one counter that starts at 1."""
        config = ScenarioConfig(seed=3, scale=1 / 20000, tlds=["com"],
                                include_cctld=False)

        def serials():
            world = build_world(config)
            return [entry.certificate.serial for log in world.logs
                    for entry in log.entries()]

        first = serials()
        assert sorted(first) == list(range(1, len(first) + 1))
        assert serials() == first


class TestCertstream:
    def _feed(self):
        log_a, log_b = CTLog("a", merge_delay=10), CTLog("b", merge_delay=5)
        ca_a = CertificateAuthority("CA1", _oracle({"x.com", "y.com"}), [log_a])
        ca_b = CertificateAuthority("CA2", _oracle({"z.com"}), [log_b])
        ca_a.request_certificate("x.com", 1000)
        ca_b.request_certificate("z.com", 1500)
        ca_a.request_certificate("y.com", 2000)
        return CertstreamFeed([log_a, log_b])

    def test_events_time_ordered(self):
        events = list(self._feed().events())
        seen = [e.seen_at for e in events]
        assert seen == sorted(seen)
        assert len(events) == 3

    def test_window_filtering(self):
        feed = self._feed()
        events = list(feed.events(start_ts=1400, end_ts=1900))
        assert [e.certificate.common_name for e in events] == ["z.com"]

    def test_seen_at_after_logged_at(self):
        feed = self._feed()
        for event in feed.events():
            assert event.seen_at > event.certificate.not_before

    def test_drop_probability(self):
        lossless = self._feed()
        lossy = CertstreamFeed(lossless.logs, drop_prob=1.0)
        assert list(lossy.events()) == []
        assert lossless.event_count() == 3

    def test_event_domains(self):
        events = list(self._feed().events())
        assert events[0].domains == ["x.com", "www.x.com"]
