"""Domain names: parsing, validation, and hierarchy operations.

Names are represented as immutable, lower-cased, dot-joined label
strings *without* the trailing root dot (``"example.com"``); the root
zone is the empty string.  Validation follows RFC 1035 limits (63-octet
labels, 253-octet names) with LDH (letters-digits-hyphen) label syntax,
plus ``xn--`` A-labels passing through untouched — the paper's pipeline
operates on names extracted from certificates, which are A-labels.

Since the interned-name refactor the canonical representation is
:class:`repro.dnscore.interned.Name` — a process-interned ``str``
subclass whose labels/TLD/registrable facts are computed once per
distinct name.  The functions here are thin shims over it, kept so
string-level callers (and the paper-faithful reading of the code)
never have to know about interning: they accept ``str`` or ``Name``
and :func:`normalize` returns the interned ``Name`` (which *is* the
canonical ``str``).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.dnscore.interned import (
    MAX_LABEL_LENGTH,
    MAX_NAME_LENGTH,
    Name,
    intern_name,
)
from repro.errors import DomainNameError

__all__ = [
    "MAX_LABEL_LENGTH", "MAX_NAME_LENGTH", "Name", "normalize", "is_valid",
    "labels", "label_count", "parent", "tld_of", "is_subdomain",
    "strip_wildcard", "ancestors", "join", "split_sld", "registrable_guess",
    "canonical_order_key",
]


def normalize(name: str) -> Name:
    """Normalise a textual domain name.

    Lower-cases, strips one trailing dot, validates each label, and
    returns the canonical form as the process-interned
    :class:`~repro.dnscore.interned.Name` (a ``str``).  Raises
    :class:`~repro.errors.DomainNameError` for malformed names.
    Already-interned inputs return themselves — identity, not a cache
    lookup.
    """
    return intern_name(name)


def is_valid(name: str) -> bool:
    """True if ``name`` parses as a syntactically valid domain name."""
    try:
        intern_name(name)
        return True
    except DomainNameError:
        return False


def labels(name: str) -> List[str]:
    """Labels of a normalised name, left to right; root → []."""
    return list(intern_name(name).labels)


def label_count(name: str) -> int:
    norm = intern_name(name)
    return str.count(norm, ".") + 1 if norm else 0


def parent(name: str) -> Name:
    """Immediate parent (``"a.b.c"`` → ``"b.c"``); root's parent is root."""
    return intern_name(name).parent_name()


def tld_of(name: str) -> str:
    """Rightmost label (``"a.b.com"`` → ``"com"``)."""
    norm = intern_name(name)
    if not norm:
        raise DomainNameError("the root has no TLD")
    return norm.tld


def is_subdomain(name: str, ancestor: str) -> bool:
    """True if ``name`` equals or falls under ``ancestor``."""
    child = intern_name(name).labels
    anc = intern_name(ancestor).labels
    if not anc:
        return True
    return len(child) >= len(anc) and child[-len(anc):] == anc


def strip_wildcard(name: str) -> Name:
    """Drop a leading ``*.`` wildcard label (certificate SANs use them)."""
    return intern_name(name).stripped()


def ancestors(name: str) -> Iterable[str]:
    """Yield proper ancestors from the immediate parent up to the TLD."""
    parts = intern_name(name).labels
    for i in range(1, len(parts)):
        yield ".".join(parts[i:])


def join(*parts: str) -> Name:
    """Join name fragments (``join("www", "example.com")``)."""
    pieces = [p for p in parts if p not in ("", ".")]
    return intern_name(".".join(pieces))


def split_sld(name: str, tld: str) -> Tuple[str, str]:
    """Split ``name`` into (sld, tld) assuming a one-label public suffix.

    This is the *naive* split; PSL-aware extraction lives in
    :mod:`repro.dnscore.psl`.  Raises if the name is not under ``tld``.
    """
    norm = intern_name(name)
    tld_norm = intern_name(tld)
    if not is_subdomain(norm, tld_norm):
        raise DomainNameError(f"{norm!r} is not under .{tld_norm}")
    remainder = norm[: -(len(tld_norm) + 1)] if tld_norm else norm
    if not remainder:
        raise DomainNameError(f"{norm!r} is the TLD itself")
    return remainder.split(".")[-1], tld_norm


def registrable_guess(name: str) -> str:
    """Last two labels of a name — the PSL-free fallback guess.

    The paper notes (§4.1) that incorrect SLD extraction via the PSL is
    one source of misclassified "newly registered" domains; keeping the
    naive guess around lets tests and ablations exercise that failure
    mode explicitly.
    """
    parts = intern_name(name).labels
    if len(parts) < 2:
        raise DomainNameError(f"{name!r} has no registrable part")
    return ".".join(parts[-2:])


def canonical_order_key(name: str) -> Tuple[str, ...]:
    """Sort key for DNSSEC-style canonical ordering (labels reversed)."""
    return intern_name(name).rlabels
