"""Interned ``Name``/``NameTable``: identity, equivalence, determinism.

Three layers of guarantees:

* **extensional equivalence** — hypothesis properties assert every
  ``Name`` operation (labels, parent, tld, registrable) agrees with an
  independent string-level reference implementation (a transcript of
  the pre-interning ``dnscore.name``/``psl`` algorithms) over valid,
  invalid, IDN (``xn--``), mixed-case, trailing-dot, and wildcard
  inputs — including identical exception behaviour;
* **interner identity** — ``Name.of(x) is Name.of(x)`` for any two
  spellings of the same name, across layers;
* **determinism** — the world-fingerprint goldens in
  ``tests/test_determinism.py`` pin that threading ``Name`` through
  every layer changed no sampled value; here the cheap half is
  re-asserted (interning is draw-free and fingerprint rendering of
  ``Name`` equals the plain string).
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnscore import name as dnsname
from repro.dnscore.interned import (
    MAX_NAME_LENGTH,
    Name,
    NameTable,
    intern_name,
)
from repro.dnscore.psl import PublicSuffixList, default_psl
from repro.errors import DomainNameError, PSLError

from doubles import BuggyPublicSuffixList


# ---------------------------------------------------------------------------
# Reference implementations (the seed string algorithms, independent of
# the interned fast path — deliberately naive).
# ---------------------------------------------------------------------------

def ref_normalize(name):
    if not isinstance(name, str):
        raise DomainNameError("not a str")
    text = name.strip().lower()
    if text.endswith("."):
        text = text[:-1]
    if text == "":
        return ""
    if len(text) > MAX_NAME_LENGTH:
        raise DomainNameError("too long")
    labels = text.split(".")
    for label in labels:
        if label == "*":
            continue
        if (not label or len(label) > 63 or label.startswith("-")
                or label.endswith("-")
                or any(c not in "abcdefghijklmnopqrstuvwxyz0123456789-"
                       for c in label)):
            raise DomainNameError(f"invalid label {label!r}")
    return ".".join(labels)


def ref_registrable(psl, name):
    """The pre-refactor registrable_domain, via the PSL core matcher."""
    norm = ref_normalize(name)
    if norm.startswith("*."):
        norm = norm[2:]
    labels = norm.split(".") if norm else []
    if not labels:
        raise PSLError("root")
    n = psl._suffix_length(tuple(reversed(labels)))
    if len(labels) <= n:
        raise PSLError("public suffix")
    return ".".join(labels[-(n + 1):])


# ---------------------------------------------------------------------------
# Input strategies: valid, IDN-ish, wildcard, mixed-case, and invalid.
# ---------------------------------------------------------------------------

_LDH = "abcdefghijklmnopqrstuvwxyz0123456789"
_label = st.text(alphabet=_LDH, min_size=1, max_size=12)
_idn_label = _label.map(lambda s: "xn--" + s)
_any_label = st.one_of(_label, _idn_label)

valid_names = st.lists(_any_label, min_size=1, max_size=5).map(".".join)
#: One or two wildcard levels: the seed algorithm strips exactly one,
#: so '*.*.x' inputs pin that a remaining '*' stays an ordinary label.
wildcard_names = st.tuples(valid_names, st.integers(1, 2)).map(
    lambda t: "*." * t[1] + t[0])
messy_spellings = st.tuples(
    st.one_of(valid_names, wildcard_names),
    st.booleans(), st.booleans()).map(
        lambda t: (t[0].upper() if t[1] else t[0]) + ("." if t[2] else ""))
invalid_names = st.one_of(
    st.just("-bad.com"), st.just("bad-.com"), st.just("a..b"),
    st.just("under_score.com"), st.just("spa ce.com"),
    st.just("a" * 64 + ".com"), st.just(".".join(["a" * 60] * 5)),
    st.text(alphabet="äöü!#", min_size=1, max_size=5).map(lambda s: s + ".com"))
any_input = st.one_of(valid_names, wildcard_names, messy_spellings,
                      invalid_names)


class TestExtensionalEquivalence:
    @given(any_input)
    @settings(max_examples=300)
    def test_normalize_matches_reference(self, raw):
        try:
            expected = ref_normalize(raw)
        except DomainNameError:
            with pytest.raises(DomainNameError):
                dnsname.normalize(raw)
            return
        assert dnsname.normalize(raw) == expected

    @given(st.one_of(valid_names, wildcard_names))
    @settings(max_examples=200)
    def test_labels_tld_parent_match_strings(self, raw):
        name = intern_name(raw)
        parts = raw.split(".")
        assert name.labels == tuple(parts)
        assert name.rlabels == tuple(reversed(parts))
        assert name.tld == parts[-1]
        assert name.parent_name() == ".".join(parts[1:])
        assert dnsname.labels(raw) == parts
        assert dnsname.label_count(raw) == len(parts)
        assert dnsname.canonical_order_key(raw) == tuple(reversed(parts))

    @given(st.one_of(valid_names, wildcard_names, messy_spellings))
    @settings(max_examples=200)
    def test_registrable_matches_reference(self, raw):
        psl = default_psl()
        try:
            expected = ref_registrable(psl, raw)
        except PSLError:
            expected = None
        name = intern_name(raw)
        assert name.registrable(psl) == expected
        assert psl.registrable_or_none(raw) == expected
        if expected is None:
            with pytest.raises(PSLError):
                psl.registrable_domain(raw)
        else:
            assert psl.registrable_domain(raw) == expected

    @given(st.one_of(valid_names, wildcard_names))
    @settings(max_examples=150)
    def test_registrable_consistent_across_psls(self, raw):
        """Per-name caching keyed by PSL instance never leaks across
        instances — alternating lookups stay individually correct."""
        good, buggy = default_psl(), BuggyPublicSuffixList()
        name = intern_name(raw)
        for psl in (good, buggy, good, buggy):
            try:
                expected = ref_registrable(psl, raw)
            except PSLError:
                expected = None
            assert name.registrable(psl) == expected

    def test_single_wildcard_level_stripped(self):
        """Exactly one '*.' strips, as in the seed string algorithm:
        '*.*.com' keeps one '*' as an ordinary label."""
        psl = default_psl()
        assert psl.registrable_domain("*.*.com") == "*.com"
        assert psl.registrable_or_none("*.*.com") == "*.com"
        assert intern_name("*.*.com").registrable(psl) == "*.com"
        with pytest.raises(PSLError):
            psl.registrable_domain("*.com")

    @given(valid_names)
    @settings(max_examples=150)
    def test_split_agrees_with_parts(self, raw):
        psl = default_psl()
        try:
            reg, suffix = psl.split(raw)
        except PSLError:
            with pytest.raises(PSLError):
                psl.registrable_domain(raw)
            return
        assert reg == psl.registrable_domain(raw)
        assert suffix == psl.public_suffix(raw)
        assert reg.endswith(suffix)
        assert len(reg.split(".")) == len(suffix.split(".")) + 1


class TestInternerIdentity:
    @given(st.one_of(valid_names, wildcard_names))
    @settings(max_examples=200)
    def test_same_spelling_same_object(self, raw):
        assert intern_name(raw) is intern_name(raw)
        assert Name.of(raw) is intern_name(raw)

    @given(valid_names)
    @settings(max_examples=200)
    def test_spellings_converge(self, raw):
        canonical = intern_name(raw)
        assert intern_name(raw.upper()) is canonical
        assert intern_name(raw + ".") is canonical
        assert intern_name(canonical) is canonical
        assert dnsname.normalize(raw.upper() + ".") is canonical

    @given(valid_names)
    @settings(max_examples=100)
    def test_derived_names_are_interned(self, raw):
        name = intern_name(raw)
        assert name.parent_name() is intern_name(name.parent_name())
        wild = intern_name(f"*.{raw}")
        assert wild.stripped() is name
        reg = name.registrable(default_psl())
        if reg is not None:
            assert reg is intern_name(reg)

    def test_direct_construction_routes_through_interner(self):
        """``Name(x)`` must not create an uninterned instance with
        unset slots — it is ``Name.of(x)``."""
        name = Name("Direct.EXAMPLE.com.")
        assert name is intern_name("direct.example.com")
        assert name.tld == "com"
        assert Name() is intern_name("")
        with pytest.raises(DomainNameError):
            Name("-bad-.com")

    def test_identity_survives_copy_and_pickle(self):
        name = intern_name("identity.example.com")
        assert copy.copy(name) is name
        assert copy.deepcopy(name) is name
        assert pickle.loads(pickle.dumps(name)) is name

    def test_value_equals_plain_str(self):
        name = intern_name("eq.example.com")
        assert name == "eq.example.com"
        assert hash(name) == hash("eq.example.com")
        assert str(name) == "eq.example.com"
        assert "{}".format(name) == "eq.example.com"
        assert repr(name) == repr("eq.example.com")
        assert {name: 1}["eq.example.com"] == 1


class TestNameTable:
    def test_reserve_grows_alias_limit(self):
        table = NameTable()
        base = table.alias_limit
        table.reserve(10 * base)
        assert table.alias_limit == 20 * base
        assert table.expected == 10 * base
        # Growth-only: a smaller later hint never shrinks the table.
        table.reserve(1)
        assert table.alias_limit == 20 * base

    def test_reserve_rejects_negative(self):
        with pytest.raises(DomainNameError):
            NameTable().reserve(-1)

    def test_canonical_entries_never_evict(self):
        table = NameTable()
        table.alias_limit = 4
        names = [table.intern(f"n{i}.example.com") for i in range(64)]
        for i, name in enumerate(names):
            assert table.intern(f"n{i}.example.com") is name
        assert len(table) >= 64

    def test_alias_memo_bounded(self):
        table = NameTable()
        table.alias_limit = 8
        for i in range(100):
            table.intern(f"N{i}.EXAMPLE.COM.")
        assert len(table._aliases) <= 8

    def test_rejects_unhashable_and_non_str(self):
        table = NameTable()
        for bad in (42, None, ["a"], b"bytes"):
            with pytest.raises(DomainNameError):
                table.intern(bad)

    def test_stats_shape(self):
        stats = intern_name.__self__.stats()
        for key in ("interned", "aliases", "alias_limit", "expected",
                    "hits", "misses", "alias_hits"):
            assert key in stats

    def test_world_build_sizes_the_process_table(self):
        from repro.workload.scenario import small_world
        table = intern_name.__self__     # the process-wide table
        world = small_world(scale=1 / 5000)
        assert table.expected > 0
        assert table.alias_limit >= 2 * table.expected
        # Every registered domain was interned at generation.
        some_domain = next(iter(world.registries)).lifecycles()
        assert next(some_domain).domain in table


class TestPslRuleVersioning:
    def test_add_rule_invalidates_name_caches(self):
        psl = PublicSuffixList(rules=["test"])
        name = intern_name("x.y.co.test")
        assert name.registrable(psl) == "co.test"
        psl.add_rule("co.test")
        assert name.registrable(psl) == "y.co.test"


class _CountingPsl(PublicSuffixList):
    """PSL that counts core suffix matches (cache-miss observations)."""

    def __init__(self, rules):
        super().__init__(rules=rules)
        self.matches = 0

    def _suffix_length(self, reversed_labels):
        self.matches += 1
        return super()._suffix_length(reversed_labels)


class TestRegistrableTwoSlotCache:
    """``Name.registrable`` keeps one (PSL, version) entry per name.

    A second PSL instance, or a rule change, recomputes and replaces
    it, so answers stay correct per instance however lookups
    interleave.
    """

    def test_results_stay_correct_per_instance(self):
        one = PublicSuffixList(rules=["test"])
        two = PublicSuffixList(rules=["test", "co.test"])
        name = intern_name("a.b.co.test")
        for _ in range(3):
            assert name.registrable(one) == "co.test"
            assert name.registrable(two) == "b.co.test"

    def test_version_bump_still_invalidates_both_slots(self):
        one = PublicSuffixList(rules=["test"])
        two = PublicSuffixList(rules=["test"])
        name = intern_name("x.y.co.test")
        assert name.registrable(one) == "co.test"
        assert name.registrable(two) == "co.test"
        one.add_rule("co.test")
        assert name.registrable(one) == "y.co.test"
        assert name.registrable(two) == "co.test"


class TestRetainedState:
    """A Name keeps its TLD and one registrable cache entry; its labels
    and stripped form are derived per call and never kept."""

    def test_slots_hold_no_label_caches(self):
        assert not [slot for slot in Name.__slots__ if "label" in slot]
        assert not hasattr(Name, "warm")

    def test_four_slots(self):
        assert Name.__slots__ == ("tld", "_psl_ref", "_psl_version",
                                  "_registrable")

    def test_stripped_is_derived_per_call(self):
        wild = intern_name("*.derived-strip.example")
        assert wild.stripped() is intern_name("derived-strip.example")
        assert wild.stripped() is wild.stripped()
        plain = intern_name("derived-strip.example")
        assert plain.stripped() is plain

    def test_registrable_matches_once_per_name_and_psl(self):
        psl = _CountingPsl(rules=["test", "co.test"])
        sites = [f"site-{i}.co.test" for i in range(10)]
        names = [(intern_name(host + site), site)
                 for site in sites for host in ("", "www.", "*.")]
        for _ in range(3):
            for name, site in names:
                assert name.registrable(psl) == site
        # One match per distinct name; "*.site" shares "site"'s entry.
        assert psl.matches == 2 * len(sites)

    def test_names_under_one_tld_share_its_string(self):
        one = intern_name("first-shared.example")
        two = intern_name("www.second-shared.example")
        assert one.tld == "example"
        assert one.tld is two.tld


class TestDetectorEquivalence:
    def test_bulk_run_matches_per_event_processing(self):
        """The detector's inlined bulk loop is observably identical to
        the per-event API (stats included)."""
        from repro.core.ctdetect import CTDetector
        from repro.workload.scenario import small_world
        world = small_world(scale=1 / 5000)
        bulk = CTDetector(world.archive, world.registries.tlds())
        bulk_out = bulk.run(world.certstream, world.window.start,
                            world.window.end)
        single = CTDetector(world.archive, world.registries.tlds())
        single_out = {}
        for event in world.certstream.events(world.window.start,
                                             world.window.end):
            for candidate in single.process_event(event):
                single_out[candidate.domain] = candidate
        assert bulk_out == single_out
        assert bulk.stats == single.stats

    def test_bulk_run_flushes_stats_on_error(self):
        """A drain that raises mid-feed still flushes its counters, so
        detector state (_seen, broker topic) and metrics stay in step."""
        from repro.core.ctdetect import CTDetector
        from repro.workload.scenario import small_world
        world = small_world(scale=1 / 5000)
        detector = CTDetector(world.archive, world.registries.tlds())

        boom = RuntimeError("mid-feed failure")

        class ExplodingFeed:
            def __init__(self, feed, after):
                self.feed = feed
                self.after = after

            def events(self, start_ts, end_ts):
                for i, event in enumerate(self.feed.events(start_ts,
                                                           end_ts)):
                    if i >= self.after:
                        raise boom
                    yield event

        with pytest.raises(RuntimeError):
            detector.run(ExplodingFeed(world.certstream, 25),
                         world.window.start, world.window.end)
        assert detector.stats.events == 25
        assert detector.stats.candidates == len(detector._seen) - \
            detector.stats.filtered_in_zone
