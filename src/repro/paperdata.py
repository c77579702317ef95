"""Every number the paper reports, in one place.

Two consumers:

* :mod:`repro.workload.calibration` turns these into generative
  parameters (scaled registration volumes, per-TLD coverage targets);
* :mod:`repro.analysis` prints *paper vs. measured* for each experiment.

All values are transcribed from the IMC '24 camera-ready (tables and
inline statistics, §4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.simtime.clock import HOUR, MINUTE, DAY


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1: CT-detected NRDs and zone-diff NRDs."""

    tld: str
    nov: int
    dec: int
    jan: int
    total: int
    zone_nrd: int
    coverage_pct: float

    @property
    def monthly(self) -> Tuple[int, int, int]:
        return (self.nov, self.dec, self.jan)


#: Table 1 — top 10 TLDs by CT-detected NRDs, Nov 2023 - Jan 2024.
TABLE1: Tuple[Table1Row, ...] = (
    Table1Row("com", 1_127_727, 1_109_804, 1_505_044, 3_742_575, 8_467_641, 44.2),
    Table1Row("xyz", 114_582, 87_051, 107_740, 309_373, 649_010, 47.7),
    Table1Row("shop", 76_626, 99_660, 107_675, 283_961, 775_253, 36.6),
    Table1Row("online", 76_674, 76_693, 109_964, 263_331, 648_922, 40.6),
    Table1Row("bond", 75_779, 81_265, 84_997, 242_041, 292_552, 82.7),
    Table1Row("top", 82_746, 74_134, 83_837, 240_717, 532_363, 45.2),
    Table1Row("net", 79_660, 71_922, 84_320, 235_902, 643_030, 36.7),
    Table1Row("org", 53_377, 53_767, 76_400, 183_544, 481_870, 38.1),
    Table1Row("site", 46_695, 47_879, 65_801, 160_375, 465_542, 34.4),
    Table1Row("store", 42_931, 38_699, 50_279, 131_909, 326_383, 40.4),
    Table1Row("Others", 328_570, 333_000, 380_551, 1_042_121, 3_009_575, 34.6),
)

TABLE1_TOTAL = Table1Row("Total", 2_105_367, 2_073_874, 2_656_608,
                         6_835_849, 16_292_141, 42.0)


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2: observed transient domains per TLD."""

    tld: str
    nov: int
    dec: int
    jan: int
    total: int


#: Table 2 — transient domains observed (lower bound), by TLD.
TABLE2: Tuple[Table2Row, ...] = (
    Table2Row("com", 9_363, 10_597, 21_232, 41_192),
    Table2Row("online", 1_800, 2_369, 1_990, 6_159),
    Table2Row("site", 1_578, 1_381, 890, 3_849),
    Table2Row("net", 702, 866, 1_544, 3_112),
    Table2Row("org", 595, 602, 1_176, 2_373),
    Table2Row("shop", 688, 497, 507, 1_692),
    Table2Row("xyz", 321, 316, 624, 1_261),
    Table2Row("store", 422, 414, 377, 1_213),
    Table2Row("top", 213, 161, 276, 650),
    Table2Row("fun", 185, 175, 160, 520),
    Table2Row("Others", 1_609, 1_958, 2_454, 6_021),
)

TABLE2_TOTAL = Table2Row("Total", 17_476, 19_336, 31_230, 68_042)

#: §4.2 — transient candidates that survive RDAP validation.
CONFIRMED_TRANSIENTS = 42_358
#: §4.2 — RDAP failure rates: transient candidates vs. ordinary NRDs.
RDAP_FAILURE_TRANSIENT = 0.34
RDAP_FAILURE_NRD = 0.03
#: §4.2 — share of RDAP-failed transient candidates found in DZDB.
DZDB_HIT_RATE = 0.97

#: Table 3 — registrar distribution of confirmed transients.
TABLE3: Tuple[Tuple[str, int, float], ...] = (
    ("GoDaddy", 8_213, 19.39),
    ("Hostinger", 6_418, 15.2),
    ("NameCheap", 4_195, 9.9),
    ("Squarespace", 2_820, 6.7),
    ("Public Domain Registry", 2_625, 6.2),
    ("IONOS", 2_352, 5.6),
    ("Metaregistrar", 1_866, 4.4),
    ("NameSilo", 1_853, 4.4),
    ("Network Solutions, LLC", 1_670, 3.9),
    ("Tucows", 1_304, 3.1),
    ("Others", 9_042, 21.3),
)

#: Table 4 — DNS hosting (NS record SLD) of confirmed transients.
TABLE4: Tuple[Tuple[str, str, int, float], ...] = (
    ("Cloudflare", "cloudflare.com", 20_981, 49.5),
    ("Hostinger", "dns-parking.com", 3_682, 8.7),
    ("NS1", "nsone.net", 2_938, 6.9),
    ("Squarespace", "squarespacedns.com", 2_908, 6.9),
    ("GoDaddy", "domaincontrol.com", 2_315, 5.5),
    ("Others", "-", 9_534, 22.5),
)

#: Table 5 — web hosting (A-record origin ASN) of confirmed transients.
TABLE5: Tuple[Tuple[str, int, int, float], ...] = (
    ("Cloudflare", 13_335, 15_322, 36.2),
    ("Hostinger", 47_583, 5_930, 14.0),
    ("Amazon", 16_509, 3_198, 7.6),
    ("Squarespace", 53_831, 2_257, 5.3),
    ("Namecheap", 22_612, 1_650, 3.9),
    ("Others", 0, 14_001, 33.1),
)

#: Figure 1 reference points — CDF of (CT observation − RDAP creation).
FIG1_POINTS: Tuple[Tuple[int, float], ...] = (
    (15 * MINUTE, 0.30),   # ≈30 % within 15 minutes
    (45 * MINUTE, 0.50),   # 50 % within 45 minutes
    (DAY, 0.98),           # <2 % above one day
)

#: Figure 1 x-axis grid (log-scale ticks used in the paper).
FIG1_GRID: Tuple[int, ...] = (
    30, MINUTE, 2 * MINUTE, 5 * MINUTE, 15 * MINUTE, 30 * MINUTE,
    HOUR, 2 * HOUR, 3 * HOUR, 6 * HOUR, 12 * HOUR, DAY, 2 * DAY,
)

#: Figure 2 reference point — >50 % of transients die within 6 hours.
FIG2_POINTS: Tuple[Tuple[int, float], ...] = (
    (6 * HOUR, 0.50),
)

FIG2_GRID: Tuple[int, ...] = tuple(h * HOUR for h in range(1, 25))

#: §4.1 — NS infrastructure stability in the first 24 hours.
NS_KEPT_24H = 0.975
NS_CHANGED_24H = 0.025

#: §4.3 — blocklist statistics.
EARLY_REMOVED_COUNT = 555_491
EARLY_REMOVED_SHARE_OF_DETECTED = 0.10  # "10% of newly registered domains"
EARLY_REMOVED_FLAGGED = 0.066
EARLY_REMOVED_FLAG_TIMING = {"active": 0.92, "before": 0.03, "after_delete": 0.05}
TRANSIENT_FLAGGED = 0.05
TRANSIENT_FLAG_TIMING = {"registration_day": 0.05, "before": 0.01,
                         "after_delete": 0.94}

#: §4.4a — one-day SIE NOD comparison.
NOD_EXTRA_NRD_FACTOR = 1.05      # NOD detected ≈5 % more NRDs
NOD_NRD_OVERLAP_OF_UNION = 0.60  # intersection ≈60 % of union
NOD_TRANSIENT_UNION = 855
NOD_TRANSIENT_BOTH_SHARE = 0.33
NOD_EXTRA_TRANSIENT_FACTOR = 1.10

#: §4.4b — .nl registry ground truth.
CCTLD_DELETED_UNDER_24H = 714
CCTLD_NEVER_IN_SNAPSHOTS = 334
CCTLD_DETECTED_BY_METHOD = 99
CCTLD_DETECTION_RATE = 0.296

#: §4 headline: CT-feed coverage of zone-diff NRDs.
OVERALL_COVERAGE = 0.42
#: ≈1 % of CT-observed NRDs are transient candidates.
TRANSIENT_SHARE_OF_DETECTED = 0.01
