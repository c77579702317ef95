"""Domain-name generation for synthetic registrants.

Different registrant populations produce visibly different names —
dictionary compounds for ordinary registrations, algorithmically
generated strings and typo-squats for abusive campaigns, numbered
batches for bulk registrations.  Generators are deterministic functions
of their RNG stream and guarantee global uniqueness via an embedded
sequence component, so registries never see duplicate registrations
within a scenario.

Paper anchor: §4.3's abuse-kind populations (phishing typosquats,
DGA-style bulk spam, numbered card-fraud batches) are what these
styles make visibly distinct in the reproduced feeds and tables.

A generator's RNG stream *and* its sequence counter advance with every
name, so a generator is a serial resource — whoever shares one must
run serially.  The multi-core world build therefore gives every
``(tld, month)`` shard its *own* generators over month-scoped streams,
with :func:`month_scoped` namespaces keeping the per-month sequence
counters collision-free across months of one TLD (see
``docs/determinism.md``).
"""

from __future__ import annotations

import itertools
from typing import List

from repro.dnscore.interned import Name, intern_name
from repro.simtime.rng import RngStream

_ADJECTIVES = (
    "bright", "swift", "calm", "bold", "lunar", "solar", "prime", "metro",
    "nova", "zen", "apex", "vivid", "royal", "amber", "cobalt", "coral",
    "crystal", "dapper", "eager", "fable", "golden", "hazel", "ionic",
    "jade", "keen", "lively", "mellow", "noble", "opal", "pearl",
)

_NOUNS = (
    "river", "peak", "forge", "harbor", "studio", "labs", "market", "cloud",
    "garden", "bridge", "compass", "anchor", "beacon", "canvas", "delta",
    "ember", "falcon", "grove", "haven", "island", "junction", "kiosk",
    "lantern", "meadow", "nest", "orchard", "pixel", "quarry", "ridge",
    "summit",
)

_BRANDS = (
    "paypa1", "app1e", "amaz0n", "micros0ft", "netf1ix", "faceb00k",
    "g00gle", "chase-bank", "wells-farg0", "dhl-track", "usps-parcel",
    "irs-refund", "covid-relief", "crypto-wallet", "meta-mask",
    "binance-app", "coinbase-pro", "bank0famerica", "santander-id",
    "post-nl",
)

_VERBS = ("get", "try", "join", "visit", "use", "book", "shop", "go")

_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_VOWELS = "aeiou"

#: Choice pools hoisted out of the per-name hot path (a fresh list per
#: call costs as much as the draw itself at world-build volume).
_JOINERS = ("", "", "-")
_STARTUP_SUFFIXES = ("ly", "io", "ify", "hub")
_TYPO_TAILS = (
    "login", "secure", "verify", "account", "support", "update",
    "billing", "signin", "auth", "wallet",
)
_BASE36_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


class NameGenerator:
    """Deterministic unique name factory for one scenario."""

    def __init__(self, rng: RngStream, namespace: str = "") -> None:
        self._rng = rng
        self._seq = itertools.count(1)
        self.namespace = namespace

    def _suffix(self) -> str:
        """Unique tail: namespace prefix + base36 sequence number.

        The namespace keeps independently constructed generators (ghost
        certs, held domains, baseline population) collision-free.
        """
        n = next(self._seq)
        digits = _BASE36_DIGITS
        out = []
        while n:
            n, rem = divmod(n, 36)
            out.append(digits[rem])
        return f"{self.namespace}{''.join(reversed(out))}"

    # -- styles ---------------------------------------------------------------

    def dictionary(self, tld: str) -> str:
        """Ordinary, human-chosen compound (``brightriver7.com``);
        consumes three RNG choices."""
        adjective = self._rng.choice(_ADJECTIVES)
        noun = self._rng.choice(_NOUNS)
        joiner = self._rng.choice(_JOINERS)
        return f"{adjective}{joiner}{noun}{self._suffix()}.{tld}"

    def startup(self, tld: str) -> str:
        """Vowel-dropped brandable (``zenlyr3.io`` style)."""
        stem = self._rng.choice(_NOUNS)
        stem = "".join(c for c in stem if c not in _VOWELS)[:4] or stem[:3]
        vowel = self._rng.choice(_VOWELS)
        return f"{stem}{vowel}{self._rng.choice(_STARTUP_SUFFIXES)}{self._suffix()}.{tld}"

    def dga(self, tld: str, length: int = 12) -> str:
        """Algorithmically generated label (malware/bulk style)."""
        chars = []
        for i in range(length):
            pool = _CONSONANTS if i % 2 == 0 else _VOWELS
            chars.append(self._rng.choice(pool))
        return f"{''.join(chars)}{self._suffix()}.{tld}"

    def typosquat(self, tld: str) -> str:
        """Brand-adjacent phishing name (``paypa1-secure-login.com``)."""
        brand = self._rng.choice(_BRANDS)
        tail = self._rng.choice(_TYPO_TAILS)
        pattern = self._rng.choice([
            f"{brand}-{tail}", f"{tail}-{brand}", f"{brand}{tail}",
            f"{self._rng.choice(_VERBS)}-{brand}-{tail}",
        ])
        return f"{pattern}{self._suffix()}.{tld}"

    def bulk(self, tld: str, campaign_tag: str) -> str:
        """Numbered batch name sharing a campaign tag."""
        return f"{campaign_tag}-{self._suffix()}.{tld}"

    def parked(self, tld: str) -> str:
        """Speculative/parked inventory name."""
        noun = self._rng.choice(_NOUNS)
        return f"{noun}{self._rng.randint(100, 99999)}x{self._suffix()}.{tld}"

    def by_style(self, style: str, tld: str, campaign_tag: str = "cmp") -> Name:
        """Dispatch by style name (used by actor profiles).

        Returns the *interned* name: every generated domain enters the
        process :class:`~repro.dnscore.interned.NameTable` here, so all
        downstream normalisation (registration, certificates, RDAP,
        probes) is an identity check instead of string work.
        """
        if style == "dictionary":
            return intern_name(self.dictionary(tld))
        if style == "startup":
            return intern_name(self.startup(tld))
        if style == "dga":
            return intern_name(self.dga(tld))
        if style == "typosquat":
            return intern_name(self.typosquat(tld))
        if style == "bulk":
            return intern_name(self.bulk(tld, campaign_tag))
        if style == "parked":
            return intern_name(self.parked(tld))
        raise ValueError(f"unknown name style: {style!r}")


def month_scoped(rng: RngStream, month_index: int,
                 kind: str = "m") -> NameGenerator:
    """A generator whose namespace embeds a month index.

    The unit of parallelism in the world build is one ``(tld, month)``
    shard; each shard constructs its generators over month-scoped RNG
    streams, so the *streams* never collide — but the per-generator
    sequence counters all restart at 1.  Embedding the month index in
    the namespace (``m0-``, ``h2-``, ``gh1-``, …) makes the generated
    suffixes disjoint across months of one TLD, so months generate
    independently yet collision-free.

    ``kind`` distinguishes co-existing populations of one shard:
    ``"m"`` ordinary monthly NRDs, ``"h"`` held domains, ``"gh"``
    ghost-certificate names.
    """
    return NameGenerator(rng, namespace=f"{kind}{month_index}-")


def subdomain_names(rng: RngStream, domain: str, count: int) -> List[Name]:
    """Plausible service subdomains for SAN padding on certificates."""
    pool = ["mail", "www2", "api", "shop", "app", "cdn", "m", "portal",
            "login", "dev", "staging", "blog"]
    rng.shuffle(pool)
    return [intern_name(f"{label}.{domain}") for label in pool[:count]]
