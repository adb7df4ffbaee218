"""The rasterised world: country/continent assignment on the analysis grid.

A :class:`WorldMap` binds a :class:`~repro.geo.countries.CountryRegistry`
to a :class:`~repro.geo.grid.Grid` and precomputes, for every grid cell:

* which country owns it (or ocean),
* which continent that country belongs to,
* whether it is "plausible terrain" for the paper's final clipping step
  (on land, south of 85°N, north of 60°S).

Cells claimed by multiple countries' footprint boxes are awarded to the
country with the nearest anchor point (a major population centre), which
resolves sloppy box overlaps along borders.  Every country is guaranteed at
least one cell — the one containing its first anchor — so even micro-states
(Vatican, Monaco) exist on the map.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geodesy.constants import MAX_PLAUSIBLE_LATITUDE_DEG, MIN_PLAUSIBLE_LATITUDE_DEG
from ..geodesy.greatcircle import haversine_km, haversine_term_km
from .countries import CONTINENTS, Country, CountryRegistry
from .grid import Grid
from .region import Region, pack_bits

OCEAN = -1


def _min_cell_distance_km(grid: Grid, cells_a: np.ndarray,
                          cells_b: np.ndarray) -> float:
    """Smallest great-circle distance between two ascending lists of grid
    cells, km.

    Bit for bit the minimum of :func:`haversine_km_vec` over every
    (a, b) cell pair, without the pairwise sweep.  Its per-pair term
    ``sin(dphi/2)**2 + cos(phi_a)*cos(phi_b) * sin(dlam/2)**2`` splits
    into factors of the two cells' grid rows and of their columns; for
    one pair of rows it is monotone non-decreasing in the column factor
    (``cos >= 0``), and so is every step from the term to km.  So the
    minimum is the km of the smallest row term + cosine product times
    the smallest column factor between the two rows' cells — the same
    ufuncs on the same operands, computed per row and column instead of
    per cell pair, with no pair-sized temporaries.
    """
    if not cells_b.size:
        raise ValueError("no cells to measure a distance to")
    rows_a, cols_a = np.divmod(cells_a, grid.n_lon)
    rows_b, cols_b = np.divmod(cells_b, grid.n_lon)
    lat_rows_a, row_of_a = np.unique(rows_a, return_inverse=True)
    lat_rows_b, row_of_b = np.unique(rows_b, return_inverse=True)
    lon_cols_a, col_of_a = np.unique(cols_a, return_inverse=True)
    lon_cols_b, col_of_b = np.unique(cols_b, return_inverse=True)
    phi_a = np.radians(grid.lat_centers[lat_rows_a])[:, None]
    phi_b = np.radians(grid.lat_centers[lat_rows_b])[None, :]
    row_term = np.sin((phi_b - phi_a) / 2.0) ** 2
    cosines = np.cos(phi_a) * np.cos(phi_b)
    col_term = np.sin(np.radians(
        grid.lon_centers[lon_cols_b][None, :]
        - grid.lon_centers[lon_cols_a][:, None]) / 2.0) ** 2
    # Both cell lists are ascending, hence grouped by row.
    b_row_starts = np.flatnonzero(np.diff(row_of_b, prepend=-1))
    best = np.inf
    a_row_splits = np.flatnonzero(np.diff(row_of_a)) + 1
    for row, cols in enumerate(np.split(col_of_a, a_row_splits)):
        nearest = col_term[cols].min(axis=0)[col_of_b]
        per_row_b = np.minimum.reduceat(nearest, b_row_starts)
        best = min(best, (row_term[row] + cosines[row] * per_row_b).min())
    return float(haversine_term_km(np.array([best]))[0])


class WorldMap:
    """Country and continent rasters over an analysis grid."""

    def __init__(self, registry: Optional[CountryRegistry] = None,
                 grid: Optional[Grid] = None):
        self.registry = registry if registry is not None else CountryRegistry.default()
        self.grid = grid if grid is not None else Grid()
        self._countries: List[Country] = list(self.registry)
        self.country_raster = self._rasterize()
        self.continent_raster = self._continent_raster()
        self.land_mask = self.country_raster != OCEAN
        self.plausibility_mask = self.land_mask & self.grid.latitude_band_mask(
            MIN_PLAUSIBLE_LATITUDE_DEG, MAX_PLAUSIBLE_LATITUDE_DEG)
        # Packed (uint64 word) twins of the rasters, built lazily: the
        # packed region engine clips and checks country overlap with
        # word-wide AND instead of cell-by-cell boolean sweeps.
        self._plausibility_words: Optional[np.ndarray] = None
        self._land_words: Optional[np.ndarray] = None
        self._country_words: Optional[np.ndarray] = None

    # -- raster construction -------------------------------------------------

    def _rasterize(self) -> np.ndarray:
        grid = self.grid
        raster = np.full(grid.n_cells, OCEAN, dtype=np.int16)
        claim_count = np.zeros(grid.n_cells, dtype=np.int16)
        claims: List[Tuple[int, np.ndarray]] = []
        for idx, country in enumerate(self._countries):
            mask = np.zeros(grid.n_cells, dtype=bool)
            for lat_min, lat_max, lon_min, lon_max in country.boxes:
                mask |= ((grid.cell_lats >= lat_min) & (grid.cell_lats <= lat_max)
                         & (grid.cell_lons >= lon_min) & (grid.cell_lons <= lon_max))
            # An anchor near a box edge can sit in a cell whose *centre*
            # falls outside the box; the country claims that cell too, so
            # coastal capitals are never rasterised into the ocean.
            for anchor_lat, anchor_lon in country.anchors:
                mask[grid.cell_index(anchor_lat, anchor_lon)] = True
            claims.append((idx, mask))
            claim_count += mask
        # Uncontested cells are assigned directly.
        for idx, mask in claims:
            sole = mask & (claim_count == 1)
            raster[sole] = idx
        # Contested cells go to the country with the nearest anchor point.
        contested = np.flatnonzero(claim_count > 1)
        for cell in contested:
            lat = float(grid.cell_lats[cell])
            lon = float(grid.cell_lons[cell])
            best_idx, best_distance = OCEAN, float("inf")
            for idx, mask in claims:
                if not mask[cell]:
                    continue
                for anchor_lat, anchor_lon in self._countries[idx].anchors:
                    d = haversine_km(lat, lon, anchor_lat, anchor_lon)
                    if d < best_distance:
                        best_distance = d
                        best_idx = idx
            raster[cell] = best_idx
        # Guarantee every country at least one cell.  Micro-states whose
        # footprint is smaller than a cell get the cell nearest their
        # anchor that does not hold another country's anchor (so Vatican
        # City cannot erase Rome).
        anchor_cell_of: Dict[int, int] = {}
        for i, c in enumerate(self._countries):
            # First-registered country keeps the cell when two anchors
            # share it (Rome's cell belongs to Italy, not Vatican City).
            anchor_cell_of.setdefault(grid.cell_index(*c.anchors[0]), i)
        forced_cells: Dict[int, int] = {}
        for idx, country in enumerate(self._countries):
            if (raster == idx).any():
                continue
            anchor_lat, anchor_lon = country.anchors[0]
            distances = grid.distances_from(anchor_lat, anchor_lon)
            for cell in np.argsort(distances)[:64]:
                cell = int(cell)
                owner = anchor_cell_of.get(cell)
                if cell in forced_cells:
                    continue  # already granted to another micro-state
                if owner is None or owner == idx:
                    raster[cell] = idx
                    forced_cells[cell] = idx
                    break
            else:
                raster[grid.cell_index(anchor_lat, anchor_lon)] = idx
        return raster

    def _continent_raster(self) -> np.ndarray:
        continent_index = {code: i for i, code in enumerate(CONTINENTS)}
        lookup = np.full(len(self._countries) + 1, OCEAN, dtype=np.int8)
        for idx, country in enumerate(self._countries):
            lookup[idx] = continent_index[country.continent]
        # country_raster has OCEAN == -1; np fancy-indexing with -1 hits the
        # sentinel slot we appended at the end of `lookup`.
        return lookup[self.country_raster]

    # -- point queries ----------------------------------------------------------

    def country_at(self, lat: float, lon: float) -> Optional[str]:
        """ISO-2 code of the country owning the cell at this point, or None."""
        idx = int(self.country_raster[self.grid.cell_index(lat, lon)])
        if idx == OCEAN:
            return None
        return self._countries[idx].iso2

    def continent_at(self, lat: float, lon: float) -> Optional[str]:
        """Continent code at this point, or None over ocean."""
        code = self.country_at(lat, lon)
        if code is None:
            return None
        return self.registry.continent_of(code)

    def is_land(self, lat: float, lon: float) -> bool:
        return bool(self.land_mask[self.grid.cell_index(lat, lon)])

    # -- packed raster views ------------------------------------------------------

    @property
    def plausibility_words(self) -> np.ndarray:
        """``plausibility_mask`` as packed uint64 words (lazy, cached)."""
        if self._plausibility_words is None:
            self._plausibility_words = pack_bits(self.plausibility_mask)
        return self._plausibility_words

    @property
    def land_words(self) -> np.ndarray:
        """``land_mask`` as packed uint64 words (lazy, cached)."""
        if self._land_words is None:
            self._land_words = pack_bits(self.land_mask)
        return self._land_words

    @property
    def country_words(self) -> np.ndarray:
        """Per-country packed masks, one uint64 word row per country.

        Row ``i`` packs ``country_raster == i`` (registry order), so a
        region↔country overlap test is one word-level AND + ``any`` —
        the packed engine's replacement for gathering the raster over
        every member cell.
        """
        if self._country_words is None:
            raster = self.country_raster
            matrix = raster[None, :] == np.arange(
                len(self._countries), dtype=raster.dtype)[:, None]
            self._country_words = pack_bits(matrix)
        return self._country_words

    # -- region queries -----------------------------------------------------------

    def clip_to_plausible(self, region: Region) -> Region:
        """Apply the paper's final clipping: land only, 60°S..85°N."""
        if region.is_packed_native:
            return region.intersect_words(self.plausibility_words)
        return region.intersect_mask(self.plausibility_mask)

    def country_region(self, iso2: str) -> Region:
        """The region consisting of every cell owned by ``iso2``."""
        idx = self.registry.index_of(iso2)
        return Region(self.grid, self.country_raster == idx)

    def continent_region(self, continent: str) -> Region:
        if continent not in CONTINENTS:
            raise ValueError(f"unknown continent {continent!r}")
        continent_idx = CONTINENTS.index(continent)
        return Region(self.grid, self.continent_raster == continent_idx)

    def countries_covered(self, region: Region) -> List[str]:
        """ISO-2 codes of all countries the region overlaps, sorted by area overlap."""
        # Word-level early exit for packed regions: an all-ocean region
        # (common for blown-out predictions) never unpacks a single cell.
        if (region.is_packed_native
                and not (region.words & self.land_words).any()):
            return []
        cells = region.cell_indices()
        owners = self.country_raster[cells]
        land = owners != OCEAN
        if not land.any():
            return []
        totals = np.bincount(owners[land].astype(np.intp),
                             weights=self.grid.cell_areas_km2[cells][land],
                             minlength=len(self._countries))
        covered = np.flatnonzero(totals > 0)
        ordered = covered[np.argsort(-totals[covered], kind="stable")]
        return [self._countries[int(idx)].iso2 for idx in ordered]

    def continents_covered(self, region: Region) -> List[str]:
        """Continent codes the region overlaps, most-covered first."""
        seen: Dict[str, float] = {}
        for code in self.countries_covered(region):
            continent = self.registry.continent_of(code)
            seen[continent] = seen.get(continent, 0.0) + 1.0
        return sorted(seen, key=lambda c: -seen[c])

    def distance_to_country_km(self, region: Region, iso2: str) -> float:
        """Minimum distance between a region and a country's cells, km.

        Zero when they overlap; infinity when the region is empty.
        """
        idx = self.registry.index_of(iso2)
        if region.is_empty:
            return float("inf")
        if region.is_packed_native:
            overlaps = bool((self.country_words[idx] & region.words).any())
        else:
            overlaps = bool(
                ((self.country_raster == idx) & region.mask).any())
        if overlaps:
            return 0.0
        return _min_cell_distance_km(
            self.grid, region.cell_indices(),
            np.flatnonzero(self.country_raster == idx))

    def covers_country(self, region: Region, iso2: str) -> bool:
        """Does the region overlap any cell of the country?"""
        idx = self.registry.index_of(iso2)
        if region.is_packed_native:
            return bool((self.country_words[idx] & region.words).any())
        return bool((self.country_raster[region.mask] == idx).any())

    def within_country(self, region: Region, iso2: str) -> bool:
        """Is every land cell of the region inside the country?

        Ocean cells are ignored: a coastal disk that spills over water but
        touches only one country's land is "entirely within" that country
        for assessment purposes (matching the paper's land clipping).
        """
        covered = self.countries_covered(region)
        return covered == [iso2] if covered else False

    # -- sampling -----------------------------------------------------------------

    def random_point_in(self, iso2: str, rng: np.random.Generator) -> Tuple[float, float]:
        """A uniformly random land point inside the country (cell-jittered)."""
        region = self.country_region(iso2)
        indices = region.cell_indices()
        if len(indices) == 0:
            raise ValueError(f"country {iso2!r} owns no cells at this resolution")
        weights = self.grid.cell_areas_km2[indices]
        chosen = int(rng.choice(indices, p=weights / weights.sum()))
        lat, lon = self.grid.cell_center(chosen)
        half = self.grid.resolution_deg / 2.0
        jitter_lat = float(rng.uniform(-half, half)) * 0.9
        jitter_lon = float(rng.uniform(-half, half)) * 0.9
        return (max(-90.0, min(90.0, lat + jitter_lat)),
                max(-180.0, min(179.999, lon + jitter_lon)))

    def countries(self) -> Sequence[Country]:
        return tuple(self._countries)
