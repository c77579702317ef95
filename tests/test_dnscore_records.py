"""Tests for resource records, RRsets, and RFC 1982 serial math."""

import pytest

from repro.dnscore.records import (
    MONITOR_QTYPES,
    RRSet,
    RRType,
    ResourceRecord,
    SOA,
    a_rrset,
    aaaa_rrset,
    ns_rrset,
    serial_add,
    serial_gt,
    soa_for_tld,
)
from repro.errors import RecordError


class TestRRType:
    def test_parse(self):
        assert RRType.parse("ns") is RRType.NS
        assert RRType.parse(" A ") is RRType.A

    def test_parse_unknown(self):
        with pytest.raises(RecordError):
            RRType.parse("AXFR")

    def test_monitor_qtypes_match_paper(self):
        assert MONITOR_QTYPES == (RRType.A, RRType.AAAA, RRType.NS)


class TestResourceRecord:
    def test_normalises_owner(self):
        record = ResourceRecord("ExAmPle.COM.", RRType.A, "192.0.2.1")
        assert record.owner == "example.com"

    def test_normalises_target_hostnames(self):
        record = ResourceRecord("example.com", RRType.NS, "NS1.Example.NET.")
        assert record.rdata == "ns1.example.net"

    def test_txt_rdata_untouched(self):
        record = ResourceRecord("example.com", RRType.TXT, "v=spf1 -ALL")
        assert record.rdata == "v=spf1 -ALL"

    def test_rejects_negative_ttl(self):
        with pytest.raises(RecordError):
            ResourceRecord("example.com", RRType.A, "192.0.2.1", ttl=-1)

    def test_rejects_empty_rdata(self):
        with pytest.raises(RecordError):
            ResourceRecord("example.com", RRType.A, "")

    def test_text_roundtrip(self):
        record = ResourceRecord("example.com", RRType.NS, "ns1.host.net", 7200)
        assert ResourceRecord.from_text(record.to_text()) == record

    def test_from_text_rejects_garbage(self):
        with pytest.raises(RecordError):
            ResourceRecord.from_text("not a record")

    def test_from_text_rejects_bad_ttl(self):
        with pytest.raises(RecordError):
            ResourceRecord.from_text("example.com. soon IN A 192.0.2.1")

    def test_ordering_is_stable(self):
        a = ResourceRecord("a.com", RRType.A, "192.0.2.1")
        b = ResourceRecord("b.com", RRType.A, "192.0.2.1")
        assert sorted([b, a])[0] == a


class TestRRSet:
    def test_of_groups_records(self):
        rrset = ns_rrset("example.com", ["ns2.h.net", "ns1.h.net"])
        assert rrset.rdatas == frozenset({"ns1.h.net", "ns2.h.net"})
        assert len(rrset) == 2

    def test_rejects_empty(self):
        with pytest.raises(RecordError):
            RRSet.of([])

    def test_rejects_mixed_owner(self):
        records = [ResourceRecord("a.com", RRType.A, "192.0.2.1"),
                   ResourceRecord("b.com", RRType.A, "192.0.2.2")]
        with pytest.raises(RecordError):
            RRSet.of(records)

    def test_rejects_mixed_type(self):
        records = [ResourceRecord("a.com", RRType.A, "192.0.2.1"),
                   ResourceRecord("a.com", RRType.TXT, "hi")]
        with pytest.raises(RecordError):
            RRSet.of(records)

    def test_ttl_is_minimum(self):
        records = [ResourceRecord("a.com", RRType.A, "192.0.2.1", 300),
                   ResourceRecord("a.com", RRType.A, "192.0.2.2", 60)]
        assert RRSet.of(records).ttl == 60

    def test_builders(self):
        assert len(a_rrset("x.com", ["192.0.2.1", "192.0.2.2"])) == 2
        assert len(aaaa_rrset("x.com", ["2001:db8::1"])) == 1


class TestSerialArithmetic:
    def test_add(self):
        assert serial_add(1, 1) == 2

    def test_add_wraps(self):
        assert serial_add(2 ** 32 - 1, 1) == 0

    def test_add_rejects_large_increment(self):
        with pytest.raises(RecordError):
            serial_add(0, 2 ** 31)

    def test_gt_simple(self):
        assert serial_gt(2, 1)
        assert not serial_gt(1, 2)

    def test_gt_wraparound(self):
        # Just past the wrap, the new serial is 'greater'.
        assert serial_gt(5, 2 ** 32 - 5)

    def test_gt_equal_is_false(self):
        assert not serial_gt(7, 7)


class TestSOA:
    def test_bump(self):
        soa = soa_for_tld("com", serial=10)
        assert soa.bump().serial == 11

    def test_bump_wraps(self):
        soa = soa_for_tld("com", serial=2 ** 32 - 1)
        assert soa.bump().serial == 0

    def test_rejects_out_of_range_serial(self):
        with pytest.raises(RecordError):
            SOA("m", "r", serial=2 ** 32)

    def test_record_roundtrip(self):
        soa = soa_for_tld("xyz", serial=99)
        record = soa.to_record("xyz")
        parsed = SOA.from_rdata(record.rdata)
        assert parsed == soa

    def test_from_rdata_rejects_short(self):
        with pytest.raises(RecordError):
            SOA.from_rdata("a. b. 1 2 3")

    def test_from_rdata_rejects_non_numeric(self):
        with pytest.raises(RecordError):
            SOA.from_rdata("a. b. one 2 3 4 5")
