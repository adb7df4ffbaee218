"""Resolving uncertain predictions with side information (section 6).

Two techniques, applied in order:

1. **Data centres** (Figure 15).  A prediction region covering several
   countries, only one of which contains any known data centre, pins the
   proxy to that country — proxies live in data centres.

2. **Network metadata** (Figure 16).  Proxies sharing a provider, an AS,
   and a /24 prefix are "practically certain to be in the same data
   centre".  If one country is covered by *every* region in such a group,
   all of the group's proxies are ascribed to it.

Both refinements convert ``UNCERTAIN`` verdicts into ``CREDIBLE`` or
``FALSE``; the paper reclassified 353 of its 642 uncertain cases this way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..geo.datacenters import DataCenterRegistry
from ..geo.region import Region
from ..netsim.proxies import ProxyServer
from .assessment import ClaimAssessment, Verdict


@dataclass
class AuditRecord:
    """One proxy's full audit state: server, prediction region, assessment."""

    server: ProxyServer
    region: Region
    assessment: ClaimAssessment
    #: Verdict before any disambiguation, for the "no DCs" comparison row.
    initial_verdict: Optional[Verdict] = None
    #: Landmark observations the prediction was computed from (kept so the
    #: ICLab checker and the landmark-effectiveness analyses can reuse the
    #: same measurements instead of re-probing).
    observations: List = None
    #: Names of the phase-2 landmarks used.
    landmark_names: List[str] = None
    #: True when the measurement degraded (retries exhausted, widened
    #: panels, or an unlocatable target) instead of completing cleanly.
    degraded: bool = False
    #: Driver/measurer notes describing the degradation, empty otherwise.
    failure_notes: List[str] = field(default_factory=list)


def metadata_group_key(server: ProxyServer) -> Tuple[str, int, str]:
    """Servers sharing this key are assumed co-located (same DC)."""
    return (server.provider, server.asn, server.prefix)


def group_by_metadata(records: Sequence[AuditRecord]
                      ) -> Dict[Tuple[str, int, str], List[AuditRecord]]:
    groups: Dict[Tuple[str, int, str], List[AuditRecord]] = {}
    for record in records:
        groups.setdefault(metadata_group_key(record.server), []).append(record)
    return groups


def _reclassify(assessment: ClaimAssessment, resolved_country: str,
                method: str) -> None:
    """Rewrite an uncertain verdict once the true country is pinned down."""
    assessment.resolved_country = resolved_country
    assessment.resolution_method = method
    assessment.verdict = (Verdict.CREDIBLE
                          if resolved_country == assessment.claimed_country
                          else Verdict.FALSE)


def disambiguate_by_datacenters(records: Sequence[AuditRecord],
                                datacenters: DataCenterRegistry) -> int:
    """Apply the data-centre heuristic to every uncertain record.

    Returns the number of records reclassified.
    """
    reclassified = 0
    for record in records:
        if record.assessment.verdict is not Verdict.UNCERTAIN:
            continue
        dc_countries = datacenters.countries_with_dc_in_region(record.region)
        if len(dc_countries) == 1:
            _reclassify(record.assessment, dc_countries[0], "datacenter")
            reclassified += 1
    return reclassified


class Disambiguator:
    """Both refinement passes, one record at a time.

    :meth:`accept` applies the data-centre pass to the record — it
    touches only that record, so it commutes — and folds the countries
    the record's region covers into its metadata group's running
    intersection.  A record still uncertain after that is held, as a
    skeleton without region, observations and landmark names, until
    :meth:`close` runs the metadata pass over the held records with the
    completed intersections: a group of at least two co-located proxies
    whose regions all cover exactly one common country pins its
    uncertain members to that country.  The outcome does not depend on
    record order, and memory holds only the uncertain skeletons — which
    is what lets a campaign refine a fleet it never materialises.
    """

    def __init__(self, datacenters: DataCenterRegistry) -> None:
        self._datacenters = datacenters
        #: Metadata group key -> [members, countries every member covers].
        self._groups: Dict[Tuple[str, int, str], list] = {}
        self._held: List[AuditRecord] = []
        self.by_datacenter = 0
        self.by_metadata = 0

    def accept(self, record: AuditRecord) -> bool:
        """Refine one record as far as it alone allows.

        Returns False when the record is still uncertain and held for
        :meth:`close`.  The held skeleton shares the record's assessment,
        so :meth:`close` also updates the record itself.
        """
        self.by_datacenter += disambiguate_by_datacenters(
            [record], self._datacenters)
        covered = set(record.assessment.countries_covered)
        key = metadata_group_key(record.server)
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = [1, covered]
        else:
            group[0] += 1
            group[1] &= covered
        if record.assessment.verdict is Verdict.UNCERTAIN:
            self._held.append(replace(record, region=None, observations=None,
                                      landmark_names=None))
            return False
        return True

    def close(self) -> List[AuditRecord]:
        """Run the metadata pass; return the held records, now final."""
        for record in self._held:
            members, common = self._groups[metadata_group_key(record.server)]
            if members >= 2 and len(common) == 1:
                _reclassify(record.assessment, next(iter(common)), "metadata")
                self.by_metadata += 1
        held, self._held = self._held, []
        return held

    def counts(self) -> Dict[str, int]:
        """Reclassifications so far, by pass."""
        return {
            "datacenter": self.by_datacenter,
            "metadata": self.by_metadata,
            "total": self.by_datacenter + self.by_metadata,
        }


def refine_assessments(records: Sequence[AuditRecord],
                       datacenters: DataCenterRegistry) -> Dict[str, int]:
    """Run both disambiguation passes; return reclassification counts."""
    passes = Disambiguator(datacenters)
    for record in records:
        passes.accept(record)
    passes.close()
    return passes.counts()
