"""X.509-shaped certificate objects (the fields CT consumers see).

The pipeline extracts domain names from the Common Name and Subject
Alternative Name fields of *precertificates* (RFC 6962 requires the
precertificate to be logged before final issuance, which is why the
paper restricts itself to PreCertificate entries — they are guaranteed
to appear before the certificate is used).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.dnscore import name as dnsname
from repro.dnscore.interned import Name
from repro.errors import CTError
from repro.simtime.clock import DAY


#: Maximum certificate lifetime per CA/B Forum BR v2 (398 days) — the
#: same constant bounds DV-token reuse (§3 footnote 2).
MAX_VALIDITY = 398 * DAY


class Certificate:
    """A (pre)certificate as seen through CT.

    ``is_precert`` distinguishes the precertificate (logged before
    issuance) from the final certificate; the pipeline only consumes
    precerts.

    A ``__slots__`` class: CT logs at paper scale hold millions of
    entries, so per-certificate memory and construction cost are part
    of the world-build budget.
    """

    __slots__ = ("serial", "common_name", "sans", "issuer", "not_before",
                 "not_after", "is_precert", "reused_validation")

    def __init__(self, serial: int, common_name: str,
                 sans: Tuple[str, ...], issuer: str,
                 not_before: int, not_after: int,
                 is_precert: bool = True,
                 reused_validation: bool = False) -> None:
        if not_after <= not_before:
            raise CTError("certificate expires before it begins")
        if not_after - not_before > MAX_VALIDITY:
            raise CTError("certificate exceeds 398-day maximum validity")
        self.serial = serial
        # strip_wildcard interns, so the result is already canonical.
        self.common_name = dnsname.strip_wildcard(common_name)
        self.sans = tuple(sans)
        self.issuer = issuer
        self.not_before = not_before
        self.not_after = not_after
        self.is_precert = is_precert
        #: True when the CA skipped fresh domain validation and relied on
        #: a cached DV token (the §4.2 cause-(iii) mechanism).
        self.reused_validation = reused_validation

    def dns_names(self) -> List[str]:
        """All DNS names covered: CN plus SANs, wildcards stripped,
        de-duplicated, invalid entries dropped (CT logs contain junk)."""
        names: List[str] = []
        seen = set()
        for raw in (self.common_name, *self.sans):
            if type(raw) is Name:
                # Pre-interned at generation: stripping is a slot read.
                name = raw.stripped()
            else:
                try:
                    name = dnsname.strip_wildcard(raw)
                except Exception:
                    continue
            if name and name not in seen:
                seen.add(name)
                names.append(name)
        return names

    @property
    def validity(self) -> int:
        return self.not_after - self.not_before

    def leaf_bytes(self) -> bytes:
        """Canonical encoding hashed into the CT Merkle tree."""
        payload = "|".join([
            str(self.serial), self.common_name, ",".join(self.sans),
            self.issuer, str(self.not_before), str(self.not_after),
            "pre" if self.is_precert else "final",
        ])
        return payload.encode("utf-8")


def make_precert(serial: int, domain: str, issuer: str, issued_at: int,
                 extra_sans: Iterable[str] = (),
                 validity: int = 90 * DAY,
                 include_www: bool = True,
                 reused_validation: bool = False) -> Certificate:
    """Build a typical DV precertificate for a registrable domain.

    Let's Encrypt-style issuance covers the bare domain plus ``www.``;
    ``extra_sans`` lets workload models add subdomains.
    """
    # Every SAN is interned at generation, so the detector and any
    # later consumer receive Names by identity.  Nothing else is
    # precomputed: a name's registrable domain is derived (and cached)
    # the first time a PSL asks for it, and its labels never are kept.
    norm = dnsname.normalize(domain)
    sans = [norm]
    if include_www:
        sans.append(dnsname.normalize(f"www.{norm}"))
    sans.extend(dnsname.normalize(s) for s in extra_sans)
    return Certificate(
        serial=serial,
        common_name=norm,
        sans=tuple(dict.fromkeys(sans)),
        issuer=issuer,
        not_before=issued_at,
        not_after=issued_at + min(validity, MAX_VALIDITY),
        is_precert=True,
        reused_validation=reused_validation,
    )
