"""Pipeline step 5: identify transient (short-lived) domains.

A candidate is a **transient candidate** when it never appears in any
zone snapshot across the analysis window (the archive carries the
paper's ±3-day slack for late-published files).  The §4.2 filtering then
splits candidates into:

* **confirmed transients** — RDAP succeeded and the creation timestamp
  confirms a new registration (the paper's 42 358);
* **RDAP-failed** — no registration data (ghost certificates dominate
  this bucket; ≈34 %);
* **misclassified** — RDAP shows an old creation date (held domains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.core.records import Candidate, ValidationVerdict
from repro.czds.archive import SnapshotArchive
from repro.registry.registry import RegistryGroup


@dataclass
class TransientBreakdown:
    """Step-5 output sets (domain names)."""

    candidates: Set[str]
    confirmed: Set[str]
    rdap_failed: Set[str]
    misclassified: Set[str]

    @property
    def rdap_failure_rate(self) -> float:
        if not self.candidates:
            return 0.0
        return len(self.rdap_failed) / len(self.candidates)


class TransientClassifier:
    """Step-5 operator."""

    def __init__(self, registries: RegistryGroup,
                 archive: SnapshotArchive) -> None:
        self.registries = registries
        self.archive = archive

    def is_transient_candidate(self, domain: str) -> bool:
        """Never captured by any snapshot in the (slack-extended) window.

        Domains with no current registration at all (ghost certificates)
        trivially qualify — nothing for a snapshot to capture.
        """
        lifecycle = self.registries.find_lifecycle(domain)
        if lifecycle is None:
            return True
        return not self.archive.appears_ever(lifecycle)

    def classify(self, candidates: Dict[str, Candidate],
                 verdicts: Dict[str, ValidationVerdict]) -> TransientBreakdown:
        transient: Set[str] = {
            domain for domain in candidates
            if self.is_transient_candidate(domain)
        }
        confirmed: Set[str] = set()
        rdap_failed: Set[str] = set()
        misclassified: Set[str] = set()
        for domain in transient:
            verdict = verdicts.get(domain)
            if verdict is None or not verdict.rdap_ok:
                rdap_failed.add(domain)
            elif verdict.misclassified:
                misclassified.add(domain)
            else:
                confirmed.add(domain)
        return TransientBreakdown(
            candidates=transient, confirmed=confirmed,
            rdap_failed=rdap_failed, misclassified=misclassified)
