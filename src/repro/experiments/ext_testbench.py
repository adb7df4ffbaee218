"""Extension (§8.1): test-bench VPN servers in known locations.

"In order to understand the errors added to our position estimates by the
indirect measurement procedure described in Section 5.3, we are planning
to set up test-bench VPN servers of our own, in known locations
worldwide, and attempt to measure their locations both directly and
indirectly."

This experiment does exactly that on the simulator: it stands up VPN
servers at known data-centre locations, locates each one **directly**
(the CLI tool running on the server measures the landmarks itself) and
**indirectly** (through the tunnel, with η-adapted RTTs), and compares
the two predictions — region area inflation, centroid offset, and
whether coverage of the true location survives the indirection.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.base import GeolocationAlgorithm
from ..core.cbgpp import CBGPlusPlus
from ..core.observations import RttObservation
from ..core.proxy_adapter import ProxyMeasurer, estimate_eta
from ..geodesy.greatcircle import haversine_km
from ..netsim.proxies import ProxyServer
from ..netsim.tools import CliTool
from .scenario import Scenario


@dataclass
class TestbenchRow:
    """One test-bench server's direct-vs-indirect comparison."""

    server_name: str
    true_country: Optional[str]
    direct_area_km2: float
    indirect_area_km2: float
    direct_covers: bool
    indirect_covers: bool
    direct_miss_km: float        # region -> true location (0 when covered)
    indirect_miss_km: float
    centroid_offset_km: float    # distance between the two centroids

    @property
    def area_inflation(self) -> float:
        """How much bigger the indirect region is (≥ ~1 expected)."""
        if self.direct_area_km2 <= 0:
            return float("inf")
        return self.indirect_area_km2 / self.direct_area_km2


@dataclass
class TestbenchResult:
    rows: List[TestbenchRow]
    eta: float

    def coverage_rate(self, indirect: bool = True) -> float:
        flag = "indirect_covers" if indirect else "direct_covers"
        return sum(1 for r in self.rows if getattr(r, flag)) / len(self.rows)

    def median_area_inflation(self) -> float:
        return float(np.median([r.area_inflation for r in self.rows
                                if np.isfinite(r.area_inflation)]))

    def median_centroid_offset_km(self) -> float:
        return float(np.median([r.centroid_offset_km for r in self.rows]))

    def worst_miss_km(self, indirect: bool = True) -> float:
        field_name = "indirect_miss_km" if indirect else "direct_miss_km"
        finite = [getattr(r, field_name) for r in self.rows
                  if np.isfinite(getattr(r, field_name))]
        return max(finite) if finite else float("inf")


def _build_testbench_fleet(scenario: Scenario, n_servers: int,
                           rng: np.random.Generator) -> List[ProxyServer]:
    """Stand up our own VPN servers at known data-centre sites."""
    sites = scenario.datacenters.all()
    if len(sites) < n_servers:
        raise ValueError(f"only {len(sites)} data centres available")
    chosen = [sites[int(i)] for i in
              rng.choice(len(sites), size=n_servers, replace=False)]
    servers: List[ProxyServer] = []
    for number, site in enumerate(chosen):
        city = scenario.factory.nearest_city(site.lat, site.lon)
        hosting = scenario.topology.add_hosting_as(
            f"Testbench-{site.name}", city.city_id, rng)
        host = scenario.factory.create(
            site.lat, site.lon, name=f"testbench-{number}",
            responds_to_ping=True, listens_on_port_80=True,
            city_id=city.city_id, router=(hosting.asn, city.city_id),
            last_mile_ms=float(rng.uniform(0.05, 0.4)))
        servers.append(ProxyServer(
            hostname=f"testbench-{number}.example",
            ip=f"203.0.{number}.1",
            provider="testbench",
            claimed_country=site.country,
            host=host,
            asn=hosting.asn,
            prefix=f"203.0.{number}.0/24",
            datacenter_city_id=city.city_id,
            honest=True,
            responds_to_ping=True,
            gateway_responds=True,
            allows_traceroute=True,
        ))
    return servers


def run(scenario: Scenario, n_servers: int = 12, seed: int = 0,
        algorithm: Optional[GeolocationAlgorithm] = None) -> TestbenchResult:
    """Locate every test-bench server directly and through its own tunnel.

    The servers stand on a copy of ``scenario``: adding their hosts and
    hosting ASes to the caller's world would change every later audit
    of it.
    """
    scenario = copy.deepcopy(scenario)
    rng = np.random.default_rng(seed)
    if algorithm is None:
        algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
    servers = _build_testbench_fleet(scenario, n_servers, rng)
    landmarks = scenario.atlas.anchors
    cli = CliTool(scenario.network, seed=seed)
    eta = estimate_eta(scenario.network, scenario.client, servers, rng)

    rows: List[TestbenchRow] = []
    for server in servers:
        # Direct: we own the server, so the CLI tool runs on it.
        direct_observations = [
            RttObservation(lm.name, lm.lat, lm.lon,
                           cli.measure(server.host, lm, rng).rtt_ms / 2.0)
            for lm in landmarks]
        direct = algorithm.predict(direct_observations)
        # Indirect: the standard through-the-tunnel procedure.
        measurer = ProxyMeasurer(scenario.network, scenario.client, server,
                                 eta=eta.eta, seed=server.host.host_id)
        indirect = algorithm.predict(measurer.observe(landmarks, rng))

        true_lat, true_lon = server.true_location
        direct_centroid = direct.region.centroid()
        indirect_centroid = indirect.region.centroid()
        offset = (haversine_km(*direct_centroid, *indirect_centroid)
                  if direct_centroid and indirect_centroid else float("nan"))
        direct_miss = direct.miss_distance_km(true_lat, true_lon)
        indirect_miss = indirect.miss_distance_km(true_lat, true_lon)
        rows.append(TestbenchRow(
            server_name=server.hostname,
            true_country=scenario.true_country_of(server),
            direct_area_km2=direct.area_km2(),
            indirect_area_km2=indirect.area_km2(),
            direct_covers=direct_miss == 0.0,
            indirect_covers=indirect_miss == 0.0,
            direct_miss_km=direct_miss,
            indirect_miss_km=indirect_miss,
            centroid_offset_km=offset,
        ))
    return TestbenchResult(rows=rows, eta=eta.eta)


def format_table(result: TestbenchResult) -> str:
    lines = [
        f"Extension — test-bench servers, direct vs indirect "
        f"({len(result.rows)} servers, eta={result.eta:.3f})",
        f"  coverage: direct {result.coverage_rate(indirect=False):.0%}, "
        f"indirect {result.coverage_rate(indirect=True):.0%}",
        f"  median area inflation (indirect/direct): "
        f"{result.median_area_inflation():.2f}x",
        f"  median centroid offset: "
        f"{result.median_centroid_offset_km():.0f} km",
        f"  worst miss: direct {result.worst_miss_km(indirect=False):.0f} km, "
        f"indirect {result.worst_miss_km(indirect=True):.0f} km",
        "  (clean direct measurement from DC-grade hosts exposes residual",
        "   bestline underestimation — the paper's section 8.1 anchor-",
        "   connectivity concern; the indirect procedure's upward bias is",
        "   protective)",
    ]
    return "\n".join(lines)
