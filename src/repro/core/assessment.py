"""Claim assessment: credible / uncertain / false (section 6).

A provider's country claim for a proxy is

* **false** when the predicted region does not cover any part of the
  claimed country,
* **credible** when the predicted region lies entirely within the claimed
  country,
* **uncertain** when the region covers the claimed country *and* others.

For false and uncertain claims the paper also records whether the
prediction stays on the claimed country's continent — a region covering
Belgium, the Netherlands, and Germany still disproves North Korea.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..geo.region import Region
from ..geo.worldmap import WorldMap


class Verdict(enum.Enum):
    """Country-level assessment of one claim."""

    CREDIBLE = "credible"
    UNCERTAIN = "uncertain"
    FALSE = "false"
    UNLOCATABLE = "unlocatable"     # empty prediction region


class ContinentVerdict(enum.Enum):
    """Continent-level refinement used in Figure 17."""

    CREDIBLE = "continent credible"
    UNCERTAIN = "continent uncertain"
    FALSE = "continent false"
    UNKNOWN = "continent unknown"


@dataclass
class ClaimAssessment:
    """Everything the audit records about one proxy's claim."""

    claimed_country: str
    verdict: Verdict
    continent_verdict: ContinentVerdict
    countries_covered: List[str] = field(default_factory=list)
    region_area_km2: float = 0.0
    resolved_country: Optional[str] = None   # set by disambiguation
    resolution_method: Optional[str] = None  # "datacenter" or "metadata"

    @property
    def is_false(self) -> bool:
        return self.verdict is Verdict.FALSE

    @property
    def is_credible(self) -> bool:
        return self.verdict is Verdict.CREDIBLE

    def category(self) -> str:
        """The Figure 17 bar category this assessment falls into."""
        if self.verdict is Verdict.UNLOCATABLE:
            return "unlocatable"
        if self.verdict is Verdict.CREDIBLE:
            return "credible"
        if self.verdict is Verdict.UNCERTAIN:
            if self.continent_verdict is ContinentVerdict.CREDIBLE:
                return "country uncertain, continent credible"
            return "country and continent uncertain"
        # FALSE:
        if self.continent_verdict is ContinentVerdict.CREDIBLE:
            return "country false, continent credible"
        if self.continent_verdict is ContinentVerdict.UNCERTAIN:
            return "country false, continent uncertain"
        return "continent false"


#: Default coverage tolerance, km.  A prediction region is a raster; a
#: region whose continuous boundary clips a sliver of a country can lose
#: that overlap to cell quantisation.  One grid cell (~110 km at 1°) of
#: slack prevents rasterisation alone from flipping a verdict to FALSE —
#: in keeping with the paper's priority of never wrongly accusing.
DEFAULT_TOLERANCE_KM = 120.0


def assess_claim(region: Region, claimed_country: str,
                 worldmap: WorldMap,
                 tolerance_km: float = DEFAULT_TOLERANCE_KM) -> ClaimAssessment:
    """Classify one prediction region against one country claim."""
    if claimed_country not in worldmap.registry:
        raise KeyError(f"unknown claimed country {claimed_country!r}")
    if region.is_empty:
        return ClaimAssessment(
            claimed_country=claimed_country,
            verdict=Verdict.UNLOCATABLE,
            continent_verdict=ContinentVerdict.UNKNOWN,
        )
    covered = worldmap.countries_covered(region)
    if (claimed_country not in covered and tolerance_km > 0
            and worldmap.distance_to_country_km(region, claimed_country)
            <= tolerance_km):
        # Within rasterisation slack of the claimed country: treat the
        # claim as possibly covered rather than disproven.
        covered = covered + [claimed_country]
    claimed_continent = worldmap.registry.continent_of(claimed_country)
    covered_continents = {worldmap.registry.continent_of(code)
                          for code in covered}

    if claimed_country in covered:
        verdict = (Verdict.CREDIBLE if set(covered) == {claimed_country}
                   else Verdict.UNCERTAIN)
    else:
        verdict = Verdict.FALSE

    if not covered_continents:
        continent_verdict = ContinentVerdict.UNKNOWN
    elif covered_continents == {claimed_continent}:
        continent_verdict = ContinentVerdict.CREDIBLE
    elif claimed_continent in covered_continents:
        continent_verdict = ContinentVerdict.UNCERTAIN
    else:
        continent_verdict = ContinentVerdict.FALSE

    return ClaimAssessment(
        claimed_country=claimed_country,
        verdict=verdict,
        continent_verdict=continent_verdict,
        countries_covered=covered,
        region_area_km2=region.area_km2(),
    )


def tally_verdicts(assessments: Sequence[ClaimAssessment]) -> dict:
    """Counts per verdict, the paper's headline numbers."""
    counts = {verdict: 0 for verdict in Verdict}
    for assessment in assessments:
        counts[assessment.verdict] += 1
    return {verdict.value: count for verdict, count in counts.items()}


def tally_categories(assessments: Sequence[ClaimAssessment]) -> dict:
    """Counts per Figure 17 category."""
    counts: dict = {}
    for assessment in assessments:
        category = assessment.category()
        counts[category] = counts.get(category, 0) + 1
    return counts
