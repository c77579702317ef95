"""Pipeline step 1: infer newly registered domains from CT logs.

Consumes the Certstream feed, extracts registrable domains from CN/SAN
via the Public Suffix List, discards names already present in the
latest *published* zone snapshot, and emits one candidate per domain
(first observation wins).  Mirrors §3 step 1, including its stated
limitations — which the simulation reproduces rather than papers over:

* CAs may reuse cached DV tokens, so candidates can be domains that no
  longer (or never currently) exist;
* zone files may publish late, so "not in the latest snapshot" can be
  stale by days;
* only domains with certificates are visible at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.bus.broker import Broker, TOPIC_CANDIDATES
from repro.ct.certstream import CertstreamEvent, CertstreamFeed
from repro.czds.archive import SnapshotArchive
from repro.dnscore.interned import Name
from repro.dnscore.psl import PublicSuffixList, default_psl
from repro.core.records import Candidate


@dataclass
class DetectorStats:
    events: int = 0
    names_seen: int = 0
    psl_failures: int = 0
    unknown_tld: int = 0
    filtered_in_zone: int = 0
    duplicates: int = 0
    candidates: int = 0


class CTDetector:
    """Step-1 operator: Certstream → candidate stream."""

    def __init__(self, archive: SnapshotArchive,
                 known_tlds: Iterable[str],
                 psl: Optional[PublicSuffixList] = None,
                 broker: Optional[Broker] = None) -> None:
        self.archive = archive
        self.known_tlds: Set[str] = set(known_tlds)
        self.psl = psl if psl is not None else default_psl()
        self.broker = broker
        self.stats = DetectorStats()
        self._seen: Set[str] = set()

    def process_event(self, event: CertstreamEvent) -> List[Candidate]:
        """Extract zero or more *new* candidates from one feed message."""
        stats = self.stats
        stats.events += 1
        out: List[Candidate] = []
        registrables: List[Name] = []
        psl = self.psl
        registrable_or_none = psl.registrable_or_none
        for raw in event.all_names_raw:
            stats.names_seen += 1
            if type(raw) is Name:
                # SANs are interned at generation: the PSL match ran at
                # most once ever for this name, everything else here is
                # a slot read.
                registrable = raw.registrable(psl)
            else:
                registrable = registrable_or_none(raw)
            if registrable is None:
                stats.psl_failures += 1
                continue
            registrables.append(registrable)
        for domain in dict.fromkeys(registrables):
            tld = domain.tld
            if tld not in self.known_tlds:
                stats.unknown_tld += 1
                continue
            if domain in self._seen:
                stats.duplicates += 1
                continue
            if self.archive.covers(tld) and self.archive.in_latest_published(
                    domain, event.seen_at):
                stats.filtered_in_zone += 1
                self._seen.add(domain)  # known-registered; skip future certs
                continue
            candidate = Candidate(
                domain=domain, tld=tld, ct_seen_at=event.seen_at,
                cert_serial=event.certificate.serial,
                issuer=event.certificate.issuer,
                log_id=event.log_id,
                reused_validation=event.certificate.reused_validation)
            self._seen.add(domain)
            stats.candidates += 1
            out.append(candidate)
            if self.broker is not None:
                self.broker.produce(TOPIC_CANDIDATES, domain, candidate,
                                    event.seen_at)
        return out

    def run(self, feed: CertstreamFeed, start_ts: Optional[int] = None,
            end_ts: Optional[int] = None) -> Dict[str, Candidate]:
        """Drain the feed over a window; returns domain → candidate.

        The bulk path: same observable behaviour as looping
        :meth:`process_event` (a test pins the equivalence), but with
        the per-event work inlined — counters in locals flushed once,
        interned-identity dedup instead of a hash round, and the
        typical all-SANs-share-one-registrable certificate resolved
        without building a dict.
        """
        candidates: Dict[str, Candidate] = {}
        stats = self.stats
        psl = self.psl
        registrable_or_none = psl.registrable_or_none
        seen = self._seen
        known_tlds = self.known_tlds
        covers = self.archive.covers
        in_latest_published = self.archive.in_latest_published
        broker = self.broker
        events = names_seen = psl_failures = unknown_tld = 0
        filtered_in_zone = duplicates = emitted = 0
        try:
            for event in feed.events(start_ts, end_ts):
                events += 1
                registrables = []
                for raw in event.all_names_raw:
                    names_seen += 1
                    if type(raw) is Name:
                        registrable = raw.registrable(psl)
                    else:
                        registrable = registrable_or_none(raw)
                    if registrable is None:
                        psl_failures += 1
                    else:
                        registrables.append(registrable)
                # Registrables are interned, so identity is equality:
                # the common "CN + SANs of one domain" event dedups
                # with `is`.
                unique = registrables
                if len(registrables) > 1:
                    first = registrables[0]
                    if all(r is first for r in registrables):
                        unique = (first,)
                    else:
                        unique = dict.fromkeys(registrables)
                for domain in unique:
                    tld = domain.tld
                    if tld not in known_tlds:
                        unknown_tld += 1
                        continue
                    if domain in seen:
                        duplicates += 1
                        continue
                    if covers(tld) and in_latest_published(domain,
                                                           event.seen_at):
                        filtered_in_zone += 1
                        seen.add(domain)  # known-registered; skip future
                        continue
                    certificate = event.certificate
                    candidate = Candidate(
                        domain=domain, tld=tld, ct_seen_at=event.seen_at,
                        cert_serial=certificate.serial,
                        issuer=certificate.issuer,
                        log_id=event.log_id,
                        reused_validation=certificate.reused_validation)
                    seen.add(domain)
                    emitted += 1
                    candidates[domain] = candidate
                    if broker is not None:
                        broker.produce(TOPIC_CANDIDATES, domain, candidate,
                                       event.seen_at)
        finally:
            # Flushed even when the drain raises mid-feed (broker
            # error, interrupt): _seen and the broker topic were
            # already mutated, so the counters must stay in step.
            stats.events += events
            stats.names_seen += names_seen
            stats.psl_failures += psl_failures
            stats.unknown_tld += unknown_tld
            stats.filtered_in_zone += filtered_in_zone
            stats.duplicates += duplicates
            stats.candidates += emitted
        return candidates
