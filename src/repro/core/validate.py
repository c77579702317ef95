"""Pipeline step 4: cross-validate CT detections against RDAP.

Two distinct questions (paper §3 step 4 and §4.2):

* **Consistency** — is the RDAP creation time within 24 hours of the CT
  observation?  The delay distribution of consistent candidates is
  Figure 1; the long tail past a day is attributed to late zone
  publication and PSL misextraction.
* **Newness** — is the domain actually newly registered?  Candidates
  whose RDAP creation long predates the observation (held domains,
  stale certificates) are *misclassified* and excluded from the
  confirmed-transient set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.records import Candidate, ValidationVerdict
from repro.registry.rdap import RDAPResult
from repro.simtime.clock import DAY


@dataclass(frozen=True)
class ValidatorConfig:
    """Thresholds for the two validation questions."""

    #: The paper's consistency bound: RDAP vs CT within 24 hours.
    consistency_bound: int = DAY
    #: Older than this ⇒ not newly registered (misclassified).
    newness_threshold: int = 4 * DAY


class Validator:
    """Step-4 operator: (candidate, RDAP) → verdict."""

    def __init__(self, config: ValidatorConfig = ValidatorConfig()) -> None:
        self.config = config

    def verdict(self, candidate: Candidate,
                rdap: Optional[RDAPResult]) -> ValidationVerdict:
        if rdap is None or not rdap.ok or rdap.record is None:
            return ValidationVerdict(
                domain=candidate.domain, rdap_ok=False,
                detection_delay=None, misclassified=False,
                consistent_24h=False)
        delay = candidate.ct_seen_at - rdap.record.created_at
        misclassified = delay > self.config.newness_threshold
        consistent = abs(delay) <= self.config.consistency_bound
        return ValidationVerdict(
            domain=candidate.domain, rdap_ok=True,
            detection_delay=delay, misclassified=misclassified,
            consistent_24h=consistent)

    def validate_all(self, candidates: Dict[str, Candidate],
                     rdap_results: Dict[str, RDAPResult]
                     ) -> Dict[str, ValidationVerdict]:
        return {
            domain: self.verdict(candidate, rdap_results.get(domain))
            for domain, candidate in candidates.items()
        }
