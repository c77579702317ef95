"""Certificate Transparency substrate: certs, logs, CAs, the Certstream feed."""

from repro.ct.certificate import Certificate, MAX_VALIDITY, make_precert
from repro.ct.ctlog import CTLog, LogEntry
from repro.ct.ca import (
    CA_PROFILES,
    CAProfile,
    CertificateAuthority,
    DV_TOKEN_VALIDITY,
    DVToken,
    IssuanceRecord,
    pick_ca,
)
from repro.ct.certstream import CertstreamEvent, CertstreamFeed

__all__ = [
    "Certificate", "make_precert", "MAX_VALIDITY",
    "CTLog", "LogEntry",
    "CertificateAuthority", "CAProfile", "CA_PROFILES",
    "DVToken", "DV_TOKEN_VALIDITY", "IssuanceRecord", "pick_ca",
    "CertstreamEvent", "CertstreamFeed",
]
