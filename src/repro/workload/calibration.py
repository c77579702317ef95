"""Calibration: from the paper's tables to generative parameters.

The reproduction inverts the paper's measurements: Table 1's zone-NRD
volumes become registration rates, Table 1's coverage column becomes
per-TLD certificate-issuance propensity, Table 2's transient counts
become fast-takedown campaign volumes, and the §4.2 RDAP-failure
decomposition fixes the ghost-certificate and held-domain volumes.

The arithmetic for the §4.2 decomposition: let ``T`` be the CT-observed
*real* transient count.  Ghost candidates ``G = g·T`` always fail RDAP;
held candidates ``H = h·T`` succeed but carry an old creation date;
real candidates fail mechanically at rate ``ε ≈ 3 %``.  Matching the
paper's 34 % failure and the 42 358/68 042 confirmation ratio gives
``g ≈ 0.50`` and ``h ≈ 0.059`` (derivation in DESIGN.md's experiment
index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import paperdata
from repro.errors import ConfigError
from repro.simtime.clock import HOUR, Window, utc
from repro.simtime.rng import stable_hash01

#: Calendar months of the paper's window, with their day counts.
MONTHS: Tuple[Tuple[str, int], ...] = (
    ("2023-11", 30),
    ("2023-12", 31),
    ("2024-01", 31),
)

#: Month keys in chronological (canonical) order.
MONTH_KEYS: Tuple[str, ...] = tuple(m for m, _ in MONTHS)


def month_index(month_key: str) -> int:
    """Position of a month key in the paper window (0-based).

    The index keys the per-``(tld, month)`` stream/namespace layout of
    the world build (``docs/determinism.md``): stream paths carry the
    month *key*, name namespaces carry this compact *index*.
    """
    try:
        return MONTH_KEYS.index(month_key)
    except ValueError:
        raise ConfigError(f"unknown month key: {month_key!r}") from None

#: TLDs the paper's "Others" bucket is spread across (weights Zipf-ish).
FILLER_TLDS: Tuple[str, ...] = (
    "fun", "icu", "info", "biz", "live", "club", "vip", "lol",
    "cfd", "sbs", "click", "pro",
)

#: §4.2 decomposition ratios (see module docstring).
GHOST_RATIO = 0.58
HELD_RATIO = 0.11

#: P(a transient-class domain has a certificate observed in time),
#: anchored by the .nl ground truth (99/334 ≈ 29.6 %, §4.4b).
TRANSIENT_CERT_COVERAGE = 0.28
#: P(a fast-removed domain is never captured by a daily snapshot),
#: empirical mean over the takedown-delay distribution.
NEVER_SNAPSHOT_GIVEN_FAST = 0.62
#: P(the certificate lands before the domain is filtered/removed).
CERT_IN_TIME_GIVEN_PLAN = 1.0

#: Adjustment from "coverage of zone NRDs" (Table 1) to the probability
#: an NRD *plans* an early certificate: certs that arrive after the
#: domain reaches a published snapshot are filtered by step 1, so the
#: plan rate must exceed the observed coverage.
EARLY_CERT_ADJUST = 1.19

#: Share of NRDs that obtain a certificate only days later (they are
#: filtered by step 1 and never become candidates, but they exercise
#: the filter and the DZDB history).
LATE_CERT_SHARE = 0.15

#: Share of zone NRDs deleted before the end of the analysis window
#: (§4.3: 555 491 ≈ 8 % of detected NRDs → ≈3.4 % of zone NRDs, but the
#: detected population is cert-biased; 0.081 of zone NRDs reproduces
#: the reported counts through the cert/coverage channel).
DELETED_SHARE_OF_NRD = 0.081
#: Among early-removed domains, the malicious share (calibrates the
#: 6.6 % blocklist hit rate through P(flag | malicious) ≈ 0.13).
EARLY_REMOVED_MALICIOUS_SHARE = 0.50

#: Probability a fast-removed (abusive) domain was registered before —
#: dropped abusive names get re-registered, which is what puts the
#: paper's 97 % of RDAP-failed transients into DZDB.
FAST_DOMAIN_HISTORY_PROB = 0.85

#: §4.1 — probability an NRD changes NS infrastructure within 24 h.
NS_CHANGE_PROB = 0.025
#: Probability a delegation is lame (exercises NS-direct liveness).
LAME_PROB = 0.01
#: Fraction of fast-malicious volume arriving in bulk campaigns.
CAMPAIGN_FRACTION = 0.5
#: Pre-window zone population as a fraction of window NRD volume.
BASELINE_FRACTION = 0.03


@dataclass(frozen=True)
class TLDTargets:
    """Scaled generative targets for one TLD."""

    tld: str
    #: Zone-NRD registrations per month {month_key: count}.
    monthly_nrd: Dict[str, int]
    #: CT coverage of zone NRDs (Table 1, fraction).
    ct_coverage: float
    #: Observed (candidate) transient counts per month (Table 2 scaled).
    monthly_transient_observed: Dict[str, int]

    @property
    def total_nrd(self) -> int:
        return sum(self.monthly_nrd.values())

    @property
    def total_transient_observed(self) -> int:
        return sum(self.monthly_transient_observed.values())

    def _sround(self, value: float, key: str) -> int:
        """Stochastic rounding: keeps small per-TLD-month expectations
        unbiased at aggressive scale-down factors."""
        base = int(value)
        frac = value - base
        bump = stable_hash01(f"{self.tld}|{key}", "sround") < frac
        return base + (1 if bump else 0)

    def fast_takedown_count(self, month: str) -> int:
        """Fast-removed registrations needed to yield the observed
        transient candidates through the cert + snapshot channel."""
        observed = self.monthly_transient_observed.get(month, 0)
        real = observed / (1.0 + GHOST_RATIO + HELD_RATIO)
        efficiency = (TRANSIENT_CERT_COVERAGE * NEVER_SNAPSHOT_GIVEN_FAST
                      * CERT_IN_TIME_GIVEN_PLAN)
        return self._sround(real / efficiency, f"{month}|fast")

    def ghost_count(self, month: str) -> int:
        observed = self.monthly_transient_observed.get(month, 0)
        real = observed / (1.0 + GHOST_RATIO + HELD_RATIO)
        return self._sround(real * GHOST_RATIO, f"{month}|ghost")

    def held_count(self, month: str) -> int:
        observed = self.monthly_transient_observed.get(month, 0)
        real = observed / (1.0 + GHOST_RATIO + HELD_RATIO)
        return self._sround(real * HELD_RATIO, f"{month}|held")

    def early_cert_prob(self) -> float:
        return min(0.97, self.ct_coverage * EARLY_CERT_ADJUST)


def _zipf_weights(n: int) -> List[float]:
    weights = [1.0 / (i + 1) for i in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


def _scaled(value: float, scale: float) -> int:
    return max(0, int(round(value * scale)))


def build_targets(scale: float) -> Dict[str, TLDTargets]:
    """Per-TLD targets at ``scale`` (1.0 = the paper's full volumes).

    The "Others" rows of Tables 1 and 2 are distributed across
    :data:`FILLER_TLDS`; Table 2's explicit ``fun`` row overrides the
    filler share for that TLD.
    """
    if not 0 < scale <= 1.0:
        raise ConfigError(f"scale must be in (0, 1], got {scale}")

    month_keys = [m for m, _ in MONTHS]
    targets: Dict[str, TLDTargets] = {}

    named_t2 = {row.tld: row for row in paperdata.TABLE2 if row.tld != "Others"}
    others_t2 = next(row for row in paperdata.TABLE2 if row.tld == "Others")

    filler_weights = dict(zip(FILLER_TLDS, _zipf_weights(len(FILLER_TLDS))))
    others_t1 = next(row for row in paperdata.TABLE1 if row.tld == "Others")
    # 'bond' has no Table 2 row: its transients hide in "Others"; treat
    # it as receiving a filler-sized share alongside the filler TLDs.
    transient_others_receivers = ["bond"] + [
        t for t in FILLER_TLDS if t not in named_t2]
    t_weights = _zipf_weights(len(transient_others_receivers))
    transient_share = dict(zip(transient_others_receivers, t_weights))

    def monthly_transients(tld: str) -> Dict[str, int]:
        row = named_t2.get(tld)
        if row is not None:
            return {
                month_keys[0]: _scaled(row.nov, scale),
                month_keys[1]: _scaled(row.dec, scale),
                month_keys[2]: _scaled(row.jan, scale),
            }
        share = transient_share.get(tld, 0.0)
        return {
            month_keys[0]: _scaled(others_t2.nov * share, scale),
            month_keys[1]: _scaled(others_t2.dec * share, scale),
            month_keys[2]: _scaled(others_t2.jan * share, scale),
        }

    for row in paperdata.TABLE1:
        if row.tld == "Others":
            continue
        # Zone-NRD monthly volume follows the CT-detected monthly shape.
        ct_total = max(1, row.total)
        monthly_nrd = {
            month: _scaled(row.zone_nrd * (ct_month / ct_total), scale)
            for month, ct_month in zip(month_keys, row.monthly)
        }
        targets[row.tld] = TLDTargets(
            tld=row.tld,
            monthly_nrd=monthly_nrd,
            ct_coverage=row.coverage_pct / 100.0,
            monthly_transient_observed=monthly_transients(row.tld),
        )

    # Fillers share the Others row of Table 1.
    ct_total_others = max(1, others_t1.total)
    for tld in FILLER_TLDS:
        weight = filler_weights[tld]
        monthly_nrd = {
            month: _scaled(others_t1.zone_nrd * weight * (ct_m / ct_total_others),
                           scale)
            for month, ct_m in zip(month_keys, others_t1.monthly)
        }
        targets[tld] = TLDTargets(
            tld=tld,
            monthly_nrd=monthly_nrd,
            ct_coverage=others_t1.coverage_pct / 100.0,
            monthly_transient_observed=monthly_transients(tld),
        )
    return targets


@dataclass(frozen=True)
class CCTLDTargets:
    """Ground-truth ccTLD targets (§4.4b, the .nl comparison)."""

    tld: str = "nl"
    #: Ordinary registrations per month (mid-size European registry).
    monthly_nrd: int = 60_000
    #: Domains deleted in <24 h over the whole window (paper: 714).
    deleted_under_24h: int = paperdata.CCTLD_DELETED_UNDER_24H
    #: Of those, never captured in a zone snapshot (paper: 334).
    never_in_snapshots: int = paperdata.CCTLD_NEVER_IN_SNAPSHOTS
    #: Takedowns in the ccTLD skew slower than gTLD card-fraud removals
    #: (334/714 ≈ 47 % evade capture vs ≈70 % for the gTLD fast lane).
    fast_median: int = int(11.5 * HOUR)
    cert_coverage: float = 0.30

    def scaled(self, scale: float) -> "CCTLDTargets":
        return CCTLDTargets(
            tld=self.tld,
            monthly_nrd=_scaled(self.monthly_nrd, scale),
            deleted_under_24h=max(4, _scaled(self.deleted_under_24h, scale)),
            never_in_snapshots=max(2, _scaled(self.never_in_snapshots, scale)),
            fast_median=self.fast_median,
            cert_coverage=self.cert_coverage,
        )


def month_window(month_key: str) -> Window:
    """The [start, end) window of a calendar month key like '2023-11'."""
    year, month = (int(p) for p in month_key.split("-"))
    if month == 12:
        return Window(utc(year, 12, 1), utc(year + 1, 1, 1))
    return Window(utc(year, month, 1), utc(year, month + 1, 1))
