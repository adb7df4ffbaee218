"""Reference implementations the program itself no longer ships.

Each oracle is the plain, slow form of something ``src/`` now does one
faster way, kept here so tests can pin the fast form bit for bit:

* :func:`perserver_audit` — the audit one server at a time: the
  ``(seed, host_id)`` stream, the server's fault epoch,
  ``TwoPhaseDriver.locate`` (scalar ``predict``), the own-claim
  assessment, the dead-tunnel record, and the two batch disambiguation
  passes;
* :func:`disambiguate_by_metadata` — the batch metadata pass the
  streaming :class:`repro.core.disambiguation.Disambiguator` replaced;
* :class:`NetworkxPathEngine` — per-source networkx Dijkstra behind
  ``PathEngine``'s public methods, swapped into a ``Network`` through
  its ``engine`` attribute;
* the ``bool_*`` functions — the boolean-mask formulas of the
  ``Region`` and ``WorldMap`` queries and of the largest-consistent-
  subset search, which now run on packed words;
* the ``naive_*`` functions — the plain broadcast formulas of the
  bank's two mask kernels, which settle whole blocks from coarse
  aggregates and sweep a fleet of panels at once;
* :func:`scalar_rtt_sample_ms` — one RTT sample drawn with scalar
  generator calls, which ``Network.rtt_sample_ms`` now takes as the
  one-sample case of ``rtt_samples_ms``;
* :func:`scalar_nearest_city` — the nearest-city loop that
  ``HostFactory.nearest_city`` runs as one vectorised distance row.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.assessment import Verdict, assess_claim
from repro.core.cbgpp import CBGPlusPlus
from repro.core.disambiguation import (AuditRecord, _reclassify,
                                       disambiguate_by_datacenters,
                                       group_by_metadata)
from repro.core.proxy_adapter import ProxyMeasurer, estimate_eta
from repro.core.multilateration import SUBSET_SEARCH_BUDGET
from repro.core.twophase import TwoPhaseDriver, TwoPhaseSelector
from repro.experiments.audit import AuditResult
from repro.geo.grid import Grid
from repro.geo.region import Region, pack_bits, unpack_bits
from repro.geo.worldmap import OCEAN, WorldMap
from repro.geodesy.greatcircle import haversine_km, haversine_km_vec
from repro.netsim.faults import (FaultInjector, MeasurementFailed,
                                 resolve_fault_profile)
from repro.netsim.network import Unreachable
from repro.netsim.pathengine import graph_digest
from repro.netsim.topology import RouterId, Topology


# -- the per-server audit pipeline --------------------------------------------

def perserver_audit(scenario, max_servers: Optional[int] = None,
                    seed: int = 0, fault_profile=None,
                    disambiguate: bool = True) -> AuditResult:
    """``run_audit`` one server at a time, with no fleet batching.

    Mirrors the audit's contract: η is fitted over the whole fleet under
    the run's fault injector, every server's stream is keyed by
    ``(seed, host_id)`` and measured inside its fault epoch, and a dead
    tunnel yields a degraded record with the empty region.
    """
    servers = scenario.all_servers()[:max_servers]
    algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
    profile = resolve_fault_profile(
        fault_profile if fault_profile is not None
        else scenario.fault_profile)
    injector = None
    if profile is not None:
        injector = FaultInjector(profile, seed=seed)
        injector.schedule_outages(
            [lm.host.host_id for lm in scenario.atlas.all_landmarks()])
    network = scenario.network
    driver = TwoPhaseDriver(TwoPhaseSelector(scenario.atlas, seed=seed),
                            algorithm)
    records: List[AuditRecord] = []
    with network.faults_installed(injector):
        eta = estimate_eta(network, scenario.client, scenario.all_servers(),
                           np.random.default_rng(seed))
        for server in servers:
            rng = np.random.default_rng((seed, server.host.host_id))
            measurer = ProxyMeasurer(network, scenario.client, server,
                                     eta=eta.eta, seed=server.host.host_id)
            with network.measurement_epoch_for(server.host):
                try:
                    result = driver.locate(measurer.observe, rng)
                except MeasurementFailed as exc:
                    region = Region.empty(algorithm.grid)
                    assessment = assess_claim(
                        region, server.claimed_country, scenario.worldmap)
                    records.append(AuditRecord(
                        server=server, region=region, assessment=assessment,
                        initial_verdict=assessment.verdict, observations=[],
                        landmark_names=[], degraded=True,
                        failure_notes=[f"tunnel unreachable: {exc}"]))
                    continue
            assessment = assess_claim(result.prediction.region,
                                      server.claimed_country,
                                      scenario.worldmap)
            records.append(AuditRecord(
                server=server, region=result.prediction.region,
                assessment=assessment, initial_verdict=assessment.verdict,
                observations=(list(result.phase2_observations)
                              + list(result.phase1_observations)),
                landmark_names=list(result.phase2_landmarks),
                degraded=result.degraded,
                failure_notes=list(result.notes)))
    reclassified = {"datacenter": 0, "metadata": 0, "total": 0}
    if disambiguate:
        by_datacenter = disambiguate_by_datacenters(records,
                                                    scenario.datacenters)
        by_metadata = disambiguate_by_metadata(records)
        reclassified = {"datacenter": by_datacenter,
                        "metadata": by_metadata,
                        "total": by_datacenter + by_metadata}
    return AuditResult(records=records, eta=eta, reclassified=reclassified,
                       fault_profile=profile.name if profile else None)


def disambiguate_by_metadata(records: Sequence[AuditRecord]) -> int:
    """The batch shared-prefix pass over co-located proxy groups.

    For each metadata group of at least two proxies, compute the set of
    countries covered by *every* member's region.  If exactly one
    country survives, every still-uncertain member is ascribed to it.
    Returns the number of records reclassified.
    """
    reclassified = 0
    for group in group_by_metadata(records).values():
        if len(group) < 2:
            continue
        common: Optional[set] = None
        for record in group:
            covered = set(record.assessment.countries_covered)
            common = covered if common is None else (common & covered)
            if not common:
                break
        if not common or len(common) != 1:
            continue
        resolved = next(iter(common))
        for record in group:
            if record.assessment.verdict is Verdict.UNCERTAIN:
                _reclassify(record.assessment, resolved, "metadata")
                reclassified += 1
    return reclassified


# -- the networkx path engine -------------------------------------------------

class NetworkxPathEngine:
    """``PathEngine``'s public methods over per-source networkx Dijkstra.

    Every delay resolves from the canonically-smaller endpoint, as in
    ``PathEngine``; trees are computed lazily per source, so
    :meth:`warm` has nothing to do.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._trees: Dict[RouterId, Dict[RouterId, float]] = {}
        self._version = topology.version

    def _tree(self, source: RouterId) -> Dict[RouterId, float]:
        if self.topology.version != self._version:
            self._trees.clear()
            self._version = self.topology.version
        tree = self._trees.get(source)
        if tree is None:
            if source not in self.topology.graph:
                raise Unreachable(f"router {source!r} is not in the graph")
            tree = nx.single_source_dijkstra_path_length(
                self.topology.graph, source, weight="latency_ms")
            self._trees[source] = tree
        return tree

    @property
    def n_routers(self) -> int:
        return self.topology.graph.number_of_nodes()

    @property
    def n_rows(self) -> int:
        return len(self._trees)

    def ensure_rows(self, sources: Sequence[RouterId]) -> None:
        for source in sources:
            self._tree(source)

    def distances_from(self, router: RouterId) -> np.ndarray:
        tree = self._tree(router)
        return np.array([tree.get(node, np.inf)
                         for node in sorted(self.topology.graph.nodes)])

    def path_ms(self, a: RouterId, b: RouterId) -> float:
        if a == b:
            return 0.0
        source, target = (a, b) if a <= b else (b, a)
        try:
            return float(self._tree(source)[target])
        except KeyError:
            raise Unreachable(f"no path between {a!r} and {b!r}") from None

    def path_pairs_ms(self, a_routers: Sequence[RouterId],
                      b_routers: Sequence[RouterId]) -> np.ndarray:
        if len(a_routers) != len(b_routers):
            raise ValueError("router lists disagree in length")
        return np.array([self.path_ms(a, b)
                         for a, b in zip(a_routers, b_routers)],
                        dtype=np.float64)

    def topology_digest(self) -> str:
        return graph_digest(self.topology)

    def warm(self, routers: Sequence[RouterId]) -> None:
        """Nothing to precompute: trees fill lazily per source."""


# -- boolean Region / WorldMap formulas ---------------------------------------

def bool_intersect_mask(mask: np.ndarray, other: np.ndarray) -> np.ndarray:
    return mask & other


def bool_intersect_words(mask: np.ndarray, words: np.ndarray) -> np.ndarray:
    return mask & unpack_bits(words, len(mask))


def bool_contains(grid: Grid, mask: np.ndarray, lat: float,
                  lon: float) -> bool:
    return bool(mask[grid.cell_index(lat, lon)])


def bool_contains_cells(mask: np.ndarray, indices: np.ndarray) -> np.ndarray:
    return mask[np.asarray(indices, dtype=np.intp)]


def bool_clip_to_plausible(worldmap: WorldMap,
                           mask: np.ndarray) -> np.ndarray:
    return mask & worldmap.plausibility_mask


def bool_countries_covered(worldmap: WorldMap,
                           mask: np.ndarray) -> List[str]:
    owners = worldmap.country_raster[mask]
    land = owners != OCEAN
    if not land.any():
        return []
    totals = np.bincount(owners[land].astype(np.intp),
                         weights=worldmap.grid.cell_areas_km2[mask][land],
                         minlength=len(worldmap.countries()))
    covered = np.flatnonzero(totals > 0)
    ordered = covered[np.argsort(-totals[covered], kind="stable")]
    return [worldmap.countries()[int(idx)].iso2 for idx in ordered]


def bool_distance_to_country_km(worldmap: WorldMap, mask: np.ndarray,
                                iso2: str) -> float:
    """Brute force: the minimum over every (region cell, country cell)."""
    if not mask.any():
        return float("inf")
    country = worldmap.country_raster == worldmap.registry.index_of(iso2)
    if (country & mask).any():
        return 0.0
    grid = worldmap.grid
    lats, lons = grid.cell_lats[country], grid.cell_lons[country]
    return float(min(haversine_km_vec(grid.cell_lats[cell],
                                      grid.cell_lons[cell], lats, lons).min()
                     for cell in np.flatnonzero(mask)))


# -- the boolean subset search ------------------------------------------------

def bool_largest_consistent_subset(masks) -> Tuple[List[int], np.ndarray]:
    """The subset search on plain boolean rows: the same greedy
    incumbent, witness-cell certificate and budgeted branch-and-bound."""
    matrix = np.atleast_2d(np.asarray(masks, dtype=bool))
    n, n_bits = matrix.shape
    everything = matrix.all(axis=0)
    if everything.any():
        return list(range(n)), everything
    order = sorted(range(n), key=lambda i: -int(matrix[i].sum()))
    greedy: List[int] = []
    greedy_mask = np.ones(n_bits, dtype=bool)
    for index in order:
        if (greedy_mask & matrix[index]).any():
            greedy_mask &= matrix[index]
            greedy.append(index)
    witness = matrix.sum(axis=0) > len(greedy)
    if not witness.any():
        return sorted(greedy), greedy_mask
    rows = matrix[:, witness]
    best = [len(greedy), None]
    budget = [SUBSET_SEARCH_BUDGET]

    def descend(position: int, current: np.ndarray, chosen: List[int]):
        if budget[0] <= 0:
            return
        budget[0] -= 1
        if len(chosen) + n - position <= best[0]:
            return
        if position == n:
            best[:] = [len(chosen), list(chosen)]
            return
        candidate = current & rows[order[position]]
        if candidate.any():
            descend(position + 1, candidate, chosen + [order[position]])
        descend(position + 1, current, chosen)

    descend(0, np.ones(rows.shape[1], dtype=bool), [])
    if best[1] is None:
        return sorted(greedy), greedy_mask
    return sorted(best[1]), matrix[best[1]].all(axis=0)


# -- the bank's mask kernels ---------------------------------------------------

def naive_disk_intersections(fields: np.ndarray,
                             radii_families: np.ndarray) -> np.ndarray:
    """One panel's disk ANDs: ``(fields <= radii[:, None]).all(0)`` per
    radius family, packed — ``(m, n_words)`` for ``(k, n_cells)`` float32
    fields and ``(m, k)`` radii."""
    radii = np.asarray(radii_families, dtype=np.float32)
    return pack_bits(np.stack([(fields <= family[:, None]).all(axis=0)
                               for family in radii]))


def naive_ring_votes(fields: np.ndarray, inner: np.ndarray,
                     outer: np.ndarray) -> np.ndarray:
    """One panel's per-cell annulus votes: the sum of the ``(k, n_cells)``
    annulus masks ``inner <= field <= outer``."""
    inner = np.asarray(inner, dtype=np.float32)[:, None]
    outer = np.asarray(outer, dtype=np.float32)[:, None]
    return ((fields >= inner) & (fields <= outer)).sum(axis=0)


# -- the scalar RTT sample -----------------------------------------------------

def scalar_rtt_sample_ms(network, a, b, rng: np.random.Generator) -> float:
    """One round-trip sample between hosts ``a`` and ``b``, ms, from
    scalar draws: exponential queueing noise scaled by the endpoint
    cities' congestion, a 2% chance of a heavy spike, then the open
    measurement epoch's faults (NaN when the probe is lost)."""
    scale = (network.topology.city(a.city_id).congestion_scale_ms
             + network.topology.city(b.city_id).congestion_scale_ms)
    noise = float(rng.exponential(scale))
    if rng.random() < 0.02:
        noise += float(rng.exponential(60.0))
    sample = network.base_rtt_ms(a, b) + noise
    faults = network.active_faults()
    if faults is not None:
        at = network._fault_time
        down = (faults.landmark_down(a.host_id, at)
                or faults.landmark_down(b.host_id, at))
        sample = float(faults.afflict_burst(np.array([sample]), down, rng)[0])
    return sample


# -- the scalar nearest city ---------------------------------------------------

def scalar_nearest_city(factory, lat: float, lon: float):
    """The city closest to ``(lat, lon)``, one haversine call per city;
    ``min`` keeps the first of equally distant cities."""
    return min(factory.topology.cities,
               key=lambda city: haversine_km(lat, lon, city.lat, city.lon))
