"""Tests for the Public Suffix List implementation."""

import pytest

from repro.dnscore.psl import (
    BUILTIN_RULES,
    PublicSuffixList,
    default_psl,
    registrable_domain,
)
from repro.errors import PSLError

from doubles import BuggyPublicSuffixList


@pytest.fixture(scope="module")
def psl():
    return PublicSuffixList()


class TestSuffixMatching:
    def test_simple_tld(self, psl):
        assert psl.public_suffix("example.com") == "com"

    def test_multi_label_suffix(self, psl):
        assert psl.public_suffix("example.co.uk") == "co.uk"

    def test_longest_rule_wins(self, psl):
        # Both 'uk' ... no plain 'uk' rule, but 'co.uk' beats implicit.
        assert psl.suffix_length("a.b.co.uk") == 2

    def test_unknown_tld_implicit_rule(self, psl):
        assert psl.public_suffix("example.zz") == "zz"

    def test_wildcard_rule(self, psl):
        # '*.ck' makes 'anything.ck' a public suffix.
        assert psl.is_public_suffix("foo.ck")
        assert psl.registrable_domain("bar.foo.ck") == "bar.foo.ck"

    def test_exception_rule(self, psl):
        # '!www.ck' carves www.ck out of the wildcard.
        assert psl.registrable_domain("www.ck") == "www.ck"
        assert psl.registrable_domain("sub.www.ck") == "www.ck"

    def test_private_suffixes(self, psl):
        assert psl.registrable_domain("site.github.io") == "site.github.io"
        assert psl.registrable_domain("a.b.pages.dev") == "b.pages.dev"


class TestRegistrableDomain:
    @pytest.mark.parametrize("name,expected", [
        ("example.com", "example.com"),
        ("www.example.com", "example.com"),
        ("a.b.c.example.shop", "example.shop"),
        ("example.co.uk", "example.co.uk"),
        ("www.example.co.uk", "example.co.uk"),
        ("*.example.xyz", "example.xyz"),
        ("sub.domain.amsterdam.nl", "domain.amsterdam.nl"),
    ])
    def test_extraction(self, psl, name, expected):
        assert psl.registrable_domain(name) == expected

    def test_bare_suffix_raises(self, psl):
        with pytest.raises(PSLError):
            psl.registrable_domain("co.uk")

    def test_bare_tld_raises(self, psl):
        with pytest.raises(PSLError):
            psl.registrable_domain("com")

    def test_or_none_swallows_bad_names(self, psl):
        assert psl.registrable_or_none("com") is None
        assert psl.registrable_or_none("-bad-.com") is None
        assert psl.registrable_or_none("good.example.com") == "example.com"

    def test_split(self, psl):
        assert psl.split("www.example.co.uk") == ("example.co.uk", "co.uk")

    def test_module_level_helper(self):
        assert registrable_domain("www.example.com") == "example.com"

    def test_default_psl_is_singleton(self):
        assert default_psl() is default_psl()


class TestBuggyPSL:
    """The degraded PSL used to reproduce the paper's misextraction
    failure mode (§4.1's long tail)."""

    def test_loses_multilabel_rules(self):
        buggy = BuggyPublicSuffixList()
        # With co.uk missing, the registrable 'domain' becomes co.uk.
        assert buggy.registrable_domain("www.example.co.uk") == "co.uk"

    def test_single_label_rules_survive(self):
        buggy = BuggyPublicSuffixList()
        assert buggy.registrable_domain("www.example.com") == "example.com"

    def test_divergence_only_under_multilabel_suffixes(self):
        good, buggy = PublicSuffixList(), BuggyPublicSuffixList()
        for name in ("a.example.com", "b.example.xyz", "x.foo.shop"):
            assert good.registrable_domain(name) == buggy.registrable_domain(name)


class TestCustomRules:
    def test_add_rule(self):
        psl = PublicSuffixList(rules=["com"])
        psl.add_rule("co.test")
        assert psl.registrable_domain("x.y.co.test") == "y.co.test"

    def test_blank_rules_ignored(self):
        psl = PublicSuffixList(rules=["com", "", "  "])
        assert psl.registrable_domain("a.com") == "a.com"

    def test_builtin_rules_cover_paper_tlds(self):
        for tld in ("com", "xyz", "shop", "online", "bond", "top", "net",
                    "org", "site", "store", "fun", "nl"):
            assert tld in BUILTIN_RULES
