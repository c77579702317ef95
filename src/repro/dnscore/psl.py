"""Public Suffix List: registrable-domain extraction.

The paper's step 1 extracts the *registered (pay-level) domain* from
certificate CN/SAN names using the PSL, and step 4 attributes some
misclassifications to incorrect SLD extraction.  This module implements
the PSL algorithm (normal rules, wildcard rules, exceptions) over an
embedded rule set covering the TLDs the simulation uses, plus the
multi-label suffixes needed to exercise the tricky paths
(``co.uk``-style wildcards and exceptions).

The rule semantics follow https://publicsuffix.org/list/ :

* the longest matching rule wins;
* ``*`` labels match exactly one label;
* exception rules (``!``) override wildcard rules;
* if no rule matches, the implicit rule ``*`` (the TLD itself) applies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.dnscore.interned import Name, intern_name
from repro.errors import DomainNameError, PSLError

#: Rules shipped with the library: every gTLD/ccTLD the scenarios use,
#: plus structurally interesting multi-label suffixes.
BUILTIN_RULES: Tuple[str, ...] = (
    # gTLDs from the paper's Table 1/2.
    "com", "net", "org", "xyz", "shop", "online", "bond", "top", "site",
    "store", "fun", "icu", "info", "biz", "live", "club", "vip", "lol",
    "cfd", "sbs", "click", "pro", "app", "dev", "io",
    # ccTLDs (the .nl ground-truth comparison, plus neighbours).
    "nl", "de", "uk", "eu", "be", "fr", "us",
    # Multi-label public suffixes.
    "co.uk", "org.uk", "ac.uk", "gov.uk",
    "amsterdam.nl",
    # Wildcard + exception structure (modelled after real PSL entries).
    "*.ck", "!www.ck",
    "*.kawasaki.jp", "jp", "co.jp",
    # Private-section style suffixes: hosting platforms whose customers
    # get subdomains; certificates for these must NOT be treated as
    # registrable-domain observations of the platform domain itself.
    "github.io", "netlify.app", "pages.dev", "workers.dev",
    "azurewebsites.net", "cloudfront.net", "herokuapp.com",
)


class PublicSuffixList:
    """PSL matcher with registrable-domain extraction."""

    def __init__(self, rules: Iterable[str] = BUILTIN_RULES) -> None:
        self._exact: Dict[Tuple[str, ...], bool] = {}
        self._wildcards: Dict[Tuple[str, ...], bool] = {}
        self._exceptions: Dict[Tuple[str, ...], bool] = {}
        #: Rule-set generation, bumped on every :meth:`add_rule`.
        #: :meth:`Name.registrable` caches results keyed by (PSL
        #: instance, version), so late rule additions invalidate every
        #: per-name cache instead of serving stale extractions.
        self.version = 0
        for rule in rules:
            self.add_rule(rule)

    def add_rule(self, rule: str) -> None:
        text = rule.strip().lower()
        if not text:
            return
        self.version += 1
        if text.startswith("!"):
            key = tuple(reversed(text[1:].split(".")))
            self._exceptions[key] = True
        elif text.startswith("*."):
            key = tuple(reversed(text[2:].split(".")))
            self._wildcards[key] = True
        else:
            key = tuple(reversed(text.split(".")))
            self._exact[key] = True

    # -- core algorithm ---------------------------------------------------------

    def suffix_length(self, name: str) -> int:
        """Number of labels in the public suffix of ``name``.

        Implements the PSL matching algorithm; the implicit ``*`` rule
        means an unknown TLD still yields a 1-label suffix.
        """
        return self._suffix_length(intern_name(name).rlabels)

    def _suffix_length(self, reversed_labels: Tuple[str, ...]) -> int:
        """PSL match on pre-split labels (TLD first) — the hot entry."""
        labels = reversed_labels
        if not labels:
            raise PSLError("the root name has no public suffix")
        exceptions = self._exceptions
        exact = self._exact
        wildcards = self._wildcards
        best = 1  # implicit '*' rule
        # One pass builds each prefix tuple once; exception rules (the
        # matched label count is the rule length - 1) take priority, so
        # they are checked for every depth before the longest-match
        # result is trusted.
        prev: Tuple[str, ...] = ()
        for depth in range(1, len(labels) + 1):
            prefix = labels[:depth]
            if prefix in exceptions:
                return depth - 1
            if prefix in exact and depth > best:
                best = depth
            # A wildcard rule '*.foo' has key ('foo',) and matches
            # depth len(key)+1.
            if depth >= 2 and prev in wildcards and depth > best:
                best = depth
            prev = prefix
        return best

    def public_suffix(self, name: str) -> str:
        """The public suffix of ``name`` (e.g. ``"co.uk"``)."""
        norm = intern_name(name)
        labels = norm.labels
        n = self._suffix_length(norm.rlabels)
        if n >= len(labels):
            # The name IS a public suffix (or shorter).
            return ".".join(labels)
        return ".".join(labels[-n:])

    def is_public_suffix(self, name: str) -> bool:
        norm = intern_name(name)
        return len(norm.labels) <= self._suffix_length(norm.rlabels)

    def registrable_domain(self, name: str) -> Name:
        """The registered / pay-level domain: public suffix + one label.

        Raises :class:`~repro.errors.PSLError` when the name is itself a
        public suffix (no registrable part) — callers in the pipeline
        treat that as a discard.  The heavy lifting (and the per-name
        cache) lives in :meth:`Name.registrable`.
        """
        norm = intern_name(name)
        # No pre-stripping: Name.registrable strips exactly one
        # wildcard level itself (stripping here too would double-strip
        # '*.*.com'-shaped names).
        registrable = norm.registrable(self)
        if registrable is None:
            stripped = norm.stripped()
            if not stripped:
                raise PSLError("the root name has no public suffix")
            raise PSLError(
                f"{stripped!r} is a public suffix; no registrable domain")
        return registrable

    def registrable_or_none(self, name: str) -> Optional[Name]:
        """Like :meth:`registrable_domain` but returns None on failure."""
        if type(name) is Name:
            return name.registrable(self)
        try:
            return intern_name(name).registrable(self)
        except DomainNameError:
            return None

    def split(self, name: str) -> Tuple[str, str]:
        """Split into (registrable domain, public suffix).

        One suffix match serves both halves — ``registrable_domain``
        and ``public_suffix`` each re-deriving the labels and re-running
        the matcher was pure waste.
        """
        norm = intern_name(name).stripped()
        labels = norm.labels
        if not labels:
            raise PSLError("the root name has no public suffix")
        n = self._suffix_length(norm.rlabels)
        if len(labels) <= n:
            raise PSLError(f"{norm!r} is a public suffix; no registrable domain")
        return ".".join(labels[-(n + 1):]), ".".join(labels[-n:])


_DEFAULT: Optional[PublicSuffixList] = None


def default_psl() -> PublicSuffixList:
    """Process-wide default PSL instance (built on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PublicSuffixList()
    return _DEFAULT


def registrable_domain(name: str) -> str:
    """Module-level convenience over :func:`default_psl`."""
    return default_psl().registrable_domain(name)
