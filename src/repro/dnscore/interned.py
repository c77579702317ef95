"""Interned domain names: one ``Name`` object per distinct name.

The pipeline's remaining hot path (profiled in the PR 3 fast-path
work) was *re-deriving the same string facts over and over*: PSL
extraction re-split labels per certificate name, and ``normalize``'s
fixed-size lru_cache started evicting near 1/100 scale.  This module
is the architectural fix — a single interned representation carried
across every layer instead of another point cache:

* :class:`Name` — an immutable, ``__slots__``-based :class:`str`
  subclass.  Being a ``str`` means a ``Name`` flows through every
  existing API unchanged (dict keys, ``join``, sorting, formatting,
  fingerprinting are all bit-identical), while the extra slots cache
  the derived facts every layer asks for: the TLD (one shared string
  per TLD), the wildcard-stripped form, and — lazily, keyed per PSL —
  the registrable domain.  The registrable cache is what bounds the
  PSL work: one suffix match per (name, PSL) for the process
  lifetime.  Labels are *not* retained; the rare callers that need
  them split on the spot.
* :class:`NameTable` — the process interner that replaces the old
  ``normalize`` lru_cache.  Canonical names are interned forever
  (never evicted mid-run; a run's working set *is* the world's name
  population, so eviction only causes re-derivation churn), and the
  table is scale-aware: :func:`configure_interner` sizes the
  non-canonical alias memo from the expected world volume.

``Name.of(x) is Name.of(x)`` holds for any two spellings of the same
name, so identity comparisons and per-object caches (CPython caches a
str's hash on the object, for instance) work across layers.

Callers never construct :class:`Name` directly — go through
:func:`intern_name` / ``Name.of`` so the identity guarantee holds.

Paper anchor: step 1 of §3 (CT detection) is where the paper's
deployment touches every SAN of every certificate; interning is what
makes that the cheap part of the reproduction.  The design rationale
and the measured effect live in ``docs/interned-names.md``.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import DomainNameError

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 253

_LABEL_RE = re.compile(r"^(?!-)[a-z0-9-]{1,63}(?<!-)$")
#: One-shot match for names that are *already* canonical (lower-case,
#: LDH labels, no trailing dot): the overwhelmingly common case in the
#: generator and pipeline, admitted without splitting into labels.
_CANONICAL_RE = re.compile(
    r"^(?=[a-z0-9.-]{1,253}$)"
    r"(?!-)[a-z0-9-]{1,63}(?<!-)"
    r"(?:\.(?!-)[a-z0-9-]{1,63}(?<!-))*$")
_WILDCARD = "*"


def _check_label(label: str) -> str:
    if label == _WILDCARD:
        return label
    if not _LABEL_RE.match(label):
        raise DomainNameError(f"invalid DNS label: {label!r}")
    return label


class Name(str):
    """An interned, canonical domain name.

    Value-wise a plain ``str`` (the canonical text: lower-case,
    dot-joined labels, no trailing dot; the root is ``""``), so every
    string consumer keeps working.  Identity-wise unique per distinct
    name within the process — obtain instances via :meth:`of`, never
    the constructor.  Treat instances as immutable: the slots are
    filled once by the interner and only ever replaced by
    equal-by-construction values (the lazy caches).
    """

    __slots__ = ("tld", "_stripped",
                 "_psl_ref", "_psl_version", "_registrable",
                 "_psl_ref2", "_psl_version2", "_registrable2")

    #: Interner entry point, attached below (`Name.of("Ex.COM.")`).
    of = None  # type: ignore[assignment]

    def __new__(cls, text: str = ""):
        # Direct construction would bypass the interner, leaving the
        # slots unset and breaking the identity guarantee every
        # `type(x) is Name` fast path trusts — route through it so
        # ``Name(x)`` is simply ``Name.of(x)``.  (The interner itself
        # builds instances via ``str.__new__``, which skips this.)
        return intern_name(text)

    # -- derived facts ------------------------------------------------------------

    @property
    def labels(self) -> Tuple[str, ...]:
        """Labels left to right; the root has none.  Built per call."""
        return tuple(str.split(self, ".")) if self else ()

    @property
    def rlabels(self) -> Tuple[str, ...]:
        """Labels right to left (TLD first) — the PSL matcher's input."""
        return tuple(str.split(self, ".")[::-1]) if self else ()

    @property
    def is_wildcard(self) -> bool:
        return str.startswith(self, "*.")

    def stripped(self) -> "Name":
        """This name without a leading ``*.`` wildcard label."""
        stripped = self._stripped
        if stripped is None:
            stripped = (intern_name(str.__getitem__(self, slice(2, None)))
                        if str.startswith(self, "*.") else self)
            self._stripped = stripped
        return stripped

    def parent_name(self) -> "Name":
        """Immediate parent as an interned name; the root's is the root."""
        return intern_name(str.partition(self, ".")[2])

    def registrable(self, psl) -> Optional["Name"]:
        """Registrable (pay-level) domain under ``psl``, or None.

        Args:
            psl: the :class:`~repro.dnscore.psl.PublicSuffixList` whose
                rules define the suffix boundary.

        Returns:
            The registrable domain as an interned :class:`Name`, or
            None when this name *is* a public suffix (or the root) —
            the pipeline treats that as a discard.

        The result is cached on the name in **two slots**, each keyed
        by (PSL instance, rule ``version``) with most-recently-used
        promotion: a single-PSL workload (the whole pipeline) hits the
        first slot with zero extra cost, and a workload that
        *alternates* two PSL instances over the same names — an
        ablation comparing rule sets per event — hits the second
        instead of recomputing per switch.  Each distinct (name, rule
        set) pair therefore costs one suffix match per process.
        Wildcard names delegate to (and share the cache of) their
        stripped form.
        """
        if self._psl_ref is psl and self._psl_version == psl.version:
            return self._registrable
        if self._psl_ref2 is psl and self._psl_version2 == psl.version:
            # MRU promotion: swap the slots so an alternating two-PSL
            # workload keeps hitting without ever recomputing.
            self._psl_ref, self._psl_ref2 = psl, self._psl_ref
            self._psl_version, self._psl_version2 = (
                self._psl_version2, self._psl_version)
            self._registrable, self._registrable2 = (
                self._registrable2, self._registrable)
            return self._registrable
        # Compute path — runs at most once per (name, PSL rule set).
        if str.startswith(self, "*."):
            # Exactly ONE wildcard level is stripped (certificate SANs
            # carry at most one; a remaining '*' participates in the
            # PSL match as an ordinary label) — matching the string
            # algorithm this type replaced, where '*.*.com' → '*.com'.
            target = self.stripped()
            if str.startswith(target, "*."):
                result = target._suffix_split(psl)
            else:
                result = target.registrable(psl)
        else:
            result = self._suffix_split(psl)
        # Demote the previous entry to the second slot.
        self._psl_ref2 = self._psl_ref
        self._psl_version2 = self._psl_version
        self._registrable2 = self._registrable
        self._psl_ref = psl
        self._psl_version = psl.version
        self._registrable = result
        return result

    def _suffix_split(self, psl) -> Optional["Name"]:
        """PSL match over this name's own labels, no wildcard handling.

        Runs once per (name, PSL) behind the :meth:`registrable` cache,
        so the labels are split here and dropped, not kept on the name.
        """
        if not self:
            return None
        labels = str.split(self, ".")
        depth = len(labels)
        suffix = psl._suffix_length(tuple(labels[::-1]))
        if depth <= suffix:
            return None
        if depth == suffix + 1:
            return self
        return intern_name(".".join(labels[depth - suffix - 1:]))

    # -- identity-preserving protocol support ------------------------------------

    def __copy__(self) -> "Name":
        return self

    def __deepcopy__(self, memo) -> "Name":
        return self

    def __reduce__(self):
        # Re-intern on unpickle so identity holds in the target process.
        return (_unpickle_name, (str.__add__(self, ""),))


def _unpickle_name(text: str) -> Name:
    return intern_name(text)


class NameTable:
    """The process interner: canonical text → the one :class:`Name`.

    Replaces the old ``normalize`` lru_cache.  Two maps:

    * ``_by_text`` — canonical text → Name.  **Never evicts**: a run's
      distinct-name population is the world volume (the 1/100-scale
      µs/reg knee was exactly the old cache evicting mid-run).  Note
      the flip side: *lookups* intern too, so a negative membership
      check retains the probed name.  Inside the simulation every
      probed name comes from the generator, but a service feeding this
      table unbounded external input (a real certstream) should front
      it with its own admission policy.
    * ``_aliases`` — non-canonical spelling (``"Ex.COM."``) → Name, a
      bounded convenience memo (cleared wholesale when full, like the
      registry's NS-set cache).  Pipeline-generated names are already
      canonical, so this map stays tiny in practice.

    ``reserve(expected)`` makes the table scale-aware: the alias bound
    follows the expected world volume so no legitimate alias population
    can thrash it mid-run.
    """

    #: Alias-memo bound when no expectation has been registered.
    DEFAULT_ALIAS_LIMIT = 1 << 17

    __slots__ = ("_by_text", "_aliases", "_tlds", "alias_limit", "expected",
                 "hits", "misses", "alias_hits")

    def __init__(self, expected: Optional[int] = None) -> None:
        self._by_text: Dict[str, Name] = {}
        self._aliases: Dict[str, Name] = {}
        #: One string per TLD, shared by every name under it.
        self._tlds: Dict[str, str] = {}
        self.expected = 0
        self.alias_limit = self.DEFAULT_ALIAS_LIMIT
        self.hits = 0
        self.misses = 0
        self.alias_hits = 0
        if expected:
            self.reserve(expected)

    # -- sizing -----------------------------------------------------------------

    def reserve(self, expected: int) -> None:
        """Declare the expected distinct-name volume of the coming run.

        Interned entries are unbounded regardless; this sizes the
        *alias* memo so even an all-alias workload of the declared
        volume never evicts mid-run.
        """
        if expected < 0:
            raise DomainNameError(f"expected volume must be >= 0: {expected}")
        self.expected = max(self.expected, int(expected))
        self.alias_limit = max(self.alias_limit, 2 * self.expected)

    # -- interning ---------------------------------------------------------------

    def intern(self, raw) -> Name:
        """The one entry point: any spelling → the canonical Name.

        Args:
            raw: any spelling of a domain name (str or Name; trailing
                dot and mixed case tolerated).

        Returns:
            The process-unique canonical :class:`Name`.

        Raises :class:`~repro.errors.DomainNameError` for malformed
        names, exactly like the old ``normalize``.
        """
        if type(raw) is Name:
            return raw
        try:
            found = self._by_text.get(raw)
        except TypeError:
            found = None  # unhashable input; rejected below
        if found is not None:
            self.hits += 1
            return found
        return self._intern_slow(raw)

    def _intern_slow(self, raw) -> Name:
        if not isinstance(raw, str):
            raise DomainNameError(
                f"domain name must be str, got {type(raw).__name__}")
        if _CANONICAL_RE.match(raw):
            self.misses += 1
            name = self._build(raw)
            self._by_text[name] = name
            return name
        alias = self._aliases.get(raw)
        if alias is not None:
            self.alias_hits += 1
            return alias
        text = raw.strip().lower()
        if text.endswith("."):
            text = text[:-1]
        if text == "":
            labels: List[str] = []
        else:
            if len(text) > MAX_NAME_LENGTH:
                raise DomainNameError(
                    f"name exceeds {MAX_NAME_LENGTH} octets: {text[:64]}...")
            labels = text.split(".")
            for label in labels:
                _check_label(label)
        canonical = ".".join(labels)
        name = self._by_text.get(canonical)
        if name is None:
            self.misses += 1
            name = self._build(canonical)
            self._by_text[name] = name
        else:
            self.hits += 1
        if raw != canonical:
            if len(self._aliases) >= self.alias_limit:
                self._aliases.clear()
            self._aliases[raw] = name
        return name

    def _build(self, text: str) -> Name:
        name = str.__new__(Name, text)
        tld = text.rpartition(".")[2]
        name.tld = self._tlds.setdefault(tld, tld)
        name._stripped = None
        name._psl_ref = None
        name._psl_version = -1
        name._registrable = None
        name._psl_ref2 = None
        name._psl_version2 = -1
        name._registrable2 = None
        return name

    # -- observability ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_text)

    def __contains__(self, text: str) -> bool:
        return text in self._by_text

    def __iter__(self) -> Iterator[Name]:
        return iter(self._by_text.values())

    def stats(self) -> Dict[str, int]:
        return {"interned": len(self._by_text), "aliases": len(self._aliases),
                "alias_limit": self.alias_limit, "expected": self.expected,
                "hits": self.hits, "misses": self.misses,
                "alias_hits": self.alias_hits}


#: The process-wide interner.  A singleton for the process lifetime so
#: the ``Name.of(x) is Name.of(x)`` identity guarantee can never be
#: silently broken by a table swap; :func:`configure_interner` adjusts
#: its sizing in place.
_TABLE = NameTable()

#: Hot-path alias: one global load instead of two attribute lookups.
intern_name = _TABLE.intern

Name.of = staticmethod(_TABLE.intern)


def default_table() -> NameTable:
    """The process-wide :class:`NameTable` behind :func:`intern_name`."""
    return _TABLE


def configure_interner(expected_names: int) -> NameTable:
    """Size the process interner for an expected distinct-name volume.

    Called by the scenario builder with its planned world volume before
    materialisation, so the table is scale-aware from the first intern.
    Growth-only and in place — existing :class:`Name` identities are
    preserved.
    """
    _TABLE.reserve(expected_names)
    return _TABLE
