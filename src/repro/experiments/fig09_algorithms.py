"""Figure 9: precision of predicted regions on the crowdsourced test hosts.

Every crowd host is measured with the web tool (under the contributor's own
browser and OS — the paper's noisy regime) against the anchors, and each
algorithm predicts a region.  Three panels:

* **A** — ECDF of the distance from the region's edge to the true location
  (0 = the region covers the truth);
* **B** — ECDF of the distance from the region's *centroid* to the truth;
* **C** — ECDF of region area as a fraction of Earth's land area.

The paper's findings to reproduce: CBG covers ~90 % of hosts (the others
roughly half or less); centroid distances are similar across algorithms;
CBG's regions are much larger.  CBG++ (run with ``include_cbgpp=True``)
covers every host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import GeolocationAlgorithm
from ..core.cbg import CBG
from ..core.cbgpp import CBGPlusPlus
from ..core.hybrid import OctantSpotterHybrid
from ..core.observations import RttObservation
from ..core.octant import QuasiOctant
from ..core.spotter import Spotter
from ..geodesy.constants import EARTH_LAND_AREA_KM2
from ..geodesy.greatcircle import haversine_km
from ..netsim.crowd import CrowdHost
from ..netsim.tools import WebTool
from ..stats.cdf import Ecdf, ecdf
from .scenario import Scenario


@dataclass
class HostOutcome:
    """One (host, algorithm) prediction, reduced to the panel metrics."""

    host_name: str
    algorithm: str
    covered: bool
    miss_km: float             # panel A (inf when the region is empty)
    centroid_km: Optional[float]   # panel B (None when the region is empty)
    area_fraction: float       # panel C


@dataclass
class AlgorithmComparison:
    """All outcomes, grouped per algorithm, plus the panel ECDFs."""

    outcomes: List[HostOutcome] = field(default_factory=list)

    def algorithms(self) -> List[str]:
        seen: List[str] = []
        for outcome in self.outcomes:
            if outcome.algorithm not in seen:
                seen.append(outcome.algorithm)
        return seen

    def for_algorithm(self, name: str) -> List[HostOutcome]:
        return [o for o in self.outcomes if o.algorithm == name]

    def coverage(self, name: str) -> float:
        """Fraction of hosts whose true location is inside the region."""
        rows = self.for_algorithm(name)
        return sum(1 for o in rows if o.covered) / len(rows)

    def miss_ecdf(self, name: str) -> Ecdf:
        """Panel A: empty predictions are censored at +inf."""
        return ecdf([o.miss_km for o in self.for_algorithm(name)])

    def fraction_within(self, name: str, km: float) -> float:
        """P(miss <= km) — the "off by less than 5000 km" style numbers."""
        return self.miss_ecdf(name).at(km)


def measure_crowd_host(scenario: Scenario, crowd_host: CrowdHost,
                       rng: np.random.Generator) -> List[RttObservation]:
    """The web-tool measurement set one contributor uploads."""
    tool = WebTool(scenario.network, browser=crowd_host.browser,
                   seed=crowd_host.host.host_id)
    observations = []
    for landmark in scenario.atlas.anchors:
        sample = tool.measure(crowd_host.host, landmark, rng)
        # The web tool cannot tell 1 from 2 round-trips; consumers must
        # assume one round-trip, as the paper's pipeline does.
        observations.append(RttObservation(
            landmark_name=sample.landmark_name,
            lat=landmark.lat,
            lon=landmark.lon,
            one_way_ms=sample.apparent_one_way_ms,
        ))
    return observations


def default_algorithms(scenario: Scenario,
                       include_cbgpp: bool = False) -> List[GeolocationAlgorithm]:
    classes = [CBG, QuasiOctant, Spotter, OctantSpotterHybrid]
    if include_cbgpp:
        classes.append(CBGPlusPlus)
    return [cls(scenario.calibrations, scenario.worldmap) for cls in classes]


def run(scenario: Scenario, hosts: Optional[Sequence[CrowdHost]] = None,
        include_cbgpp: bool = False, seed: int = 0) -> AlgorithmComparison:
    """Predict every crowd host with every algorithm."""
    rng = np.random.default_rng(seed)
    hosts = hosts if hosts is not None else scenario.crowd
    algorithms = default_algorithms(scenario, include_cbgpp=include_cbgpp)
    comparison = AlgorithmComparison()
    for crowd_host in hosts:
        observations = measure_crowd_host(scenario, crowd_host, rng)
        true_lat, true_lon = crowd_host.true_location
        for algorithm in algorithms:
            prediction = algorithm.predict(observations)
            if prediction.region.is_empty:
                comparison.outcomes.append(HostOutcome(
                    host_name=crowd_host.host.name,
                    algorithm=algorithm.name,
                    covered=False,
                    miss_km=float("inf"),
                    centroid_km=None,
                    area_fraction=0.0,
                ))
                continue
            miss = prediction.miss_distance_km(true_lat, true_lon)
            centroid = prediction.region.centroid()
            centroid_km = haversine_km(true_lat, true_lon, *centroid)
            comparison.outcomes.append(HostOutcome(
                host_name=crowd_host.host.name,
                algorithm=algorithm.name,
                covered=(miss == 0.0),
                miss_km=miss,
                centroid_km=centroid_km,
                area_fraction=prediction.area_km2() / EARTH_LAND_AREA_KM2,
            ))
    return comparison


def format_table(comparison: AlgorithmComparison) -> str:
    lines = ["Figure 9 — prediction precision on crowdsourced hosts",
             f"{'algorithm':<14} {'coverage':>9} {'<5000km':>9} "
             f"{'med miss':>10} {'med centroid':>13} {'med area':>10}"]
    for name in comparison.algorithms():
        rows = comparison.for_algorithm(name)
        finite = [o.miss_km for o in rows if np.isfinite(o.miss_km)]
        centroids = [o.centroid_km for o in rows if o.centroid_km is not None]
        lines.append(
            f"{name:<14} {comparison.coverage(name):>8.0%} "
            f"{comparison.fraction_within(name, 5000.0):>8.0%} "
            f"{np.median(finite) if finite else float('nan'):>9.0f}km "
            f"{np.median(centroids) if centroids else float('nan'):>12.0f}km "
            f"{np.median([o.area_fraction for o in rows]):>9.3f}")
    return "\n".join(lines)
