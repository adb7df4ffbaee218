"""Tests for the rasterised world map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import CONTINENTS, Grid, Region, WorldMap
from repro.geodesy import SphericalDisk
from repro.geodesy.greatcircle import haversine_km_vec


def pairwise_min_km(grid, cells_a, cells_b):
    """Oracle: the chunked all-pairs haversine sweep that
    ``distance_to_country_km`` used to run."""
    best = float("inf")
    chunk = max(1, 4_000_000 // len(cells_b))
    for start in range(0, len(cells_a), chunk):
        part = cells_a[start:start + chunk]
        distances = haversine_km_vec(
            grid.cell_lats[part][:, None], grid.cell_lons[part][:, None],
            grid.cell_lats[cells_b][None, :], grid.cell_lons[cells_b][None, :])
        best = min(best, float(distances.min()))
    return best


@pytest.fixture(scope="module")
def world():
    # 2-degree grid: fine enough for mid-size countries, fast to build.
    return WorldMap(grid=Grid(resolution_deg=2.0))


class TestPointQueries:
    @pytest.mark.parametrize("lat,lon,expected", [
        (52.52, 13.40, "DE"),    # Berlin
        (48.86, 2.35, "FR"),     # Paris
        (40.71, -74.01, "US"),   # New York
        (35.68, 139.69, "JP"),   # Tokyo
        (-33.87, 151.21, "AU"),  # Sydney
        (-23.55, -46.63, "BR"),  # Sao Paulo
        (55.76, 37.62, "RU"),    # Moscow
        (1.35, 103.82, "SG"),    # Singapore
    ])
    def test_major_cities_resolve_correctly(self, world, lat, lon, expected):
        assert world.country_at(lat, lon) == expected

    def test_ocean_is_none(self, world):
        assert world.country_at(30.0, -40.0) is None       # mid-Atlantic
        assert world.country_at(-50.0, 100.0) is None      # southern Indian

    def test_continent_at(self, world):
        assert world.continent_at(52.52, 13.40) == "EU"
        assert world.continent_at(35.68, 139.69) == "AS"
        assert world.continent_at(30.0, -40.0) is None

    def test_is_land(self, world):
        assert world.is_land(52.52, 13.40)
        assert not world.is_land(30.0, -40.0)


class TestRasterConsistency:
    def test_every_country_has_cells(self, world):
        for country in world.countries():
            assert not world.country_region(country.iso2).is_empty, country.iso2

    def test_anchor_cells_resolve_to_own_country_mostly(self, world, scenario):
        # Anchor points are major cities; at the production 1-degree
        # resolution nearly all resolve to their own country (a handful of
        # micro-states and borderline capitals are swallowed by a
        # neighbour's cell; at the coarser 2-degree test grid more are).
        production = scenario.worldmap
        mismatches = []
        for country in production.countries():
            lat, lon = country.anchors[0]
            if production.country_at(lat, lon) != country.iso2:
                mismatches.append(country.iso2)
        assert len(mismatches) <= 6, mismatches
        coarse_mismatches = [
            c.iso2 for c in world.countries()
            if world.country_at(*c.anchors[0]) != c.iso2]
        assert len(coarse_mismatches) <= 20, coarse_mismatches

    def test_land_fraction_plausible(self, world):
        # Earth is ~29% land; coarse boxes overshoot a little.
        fraction = world.land_mask.mean()
        assert 0.2 <= fraction <= 0.45

    def test_plausibility_mask_subset_of_land(self, world):
        assert not (world.plausibility_mask & ~world.land_mask).any()

    def test_plausibility_clips_latitudes(self, world):
        grid = world.grid
        index = grid.cell_index(-70.0, 60.0)
        assert not world.plausibility_mask[index]

    def test_continent_raster_consistent_with_country(self, world):
        rng = np.random.default_rng(0)
        for _ in range(200):
            index = int(rng.integers(world.grid.n_cells))
            lat, lon = world.grid.cell_center(index)
            country = world.country_at(lat, lon)
            continent = world.continent_at(lat, lon)
            if country is None:
                assert continent is None
            else:
                assert continent == world.registry.continent_of(country)


class TestRegionQueries:
    def test_countries_covered_sorted_by_overlap(self, world):
        # A big disk on Berlin covers DE most.
        region = Region.from_disk(world.grid, SphericalDisk(52.5, 13.4, 600.0))
        covered = world.countries_covered(region)
        assert covered[0] == "DE"
        assert "PL" in covered or "CZ" in covered

    def test_covers_and_within(self, world):
        region = Region.from_disk(world.grid, SphericalDisk(52.5, 13.4, 150.0))
        assert world.covers_country(region, "DE")
        assert world.within_country(region, "DE")
        big = Region.from_disk(world.grid, SphericalDisk(52.5, 13.4, 900.0))
        assert world.covers_country(big, "DE")
        assert not world.within_country(big, "DE")

    def test_within_country_ignores_ocean(self, world):
        # A coastal disk near Lisbon spills into the Atlantic but only
        # touches Portuguese (and maybe Spanish) land.
        region = Region.from_disk(world.grid, SphericalDisk(38.7, -9.1, 250.0))
        covered = world.countries_covered(region)
        assert covered[0] == "PT"

    def test_continents_covered(self, world):
        region = Region.from_disk(world.grid, SphericalDisk(36.0, 30.0, 1500.0))
        continents = world.continents_covered(region)
        assert "EU" in continents and "AF" in continents

    def test_clip_to_plausible(self, world):
        region = Region.full(world.grid)
        clipped = world.clip_to_plausible(region)
        assert clipped.n_cells == int(world.plausibility_mask.sum())

    def test_country_region_unknown_code(self, world):
        with pytest.raises(KeyError):
            world.country_region("ZZ")

    def test_continent_region(self, world):
        europe = world.continent_region("EU")
        assert europe.contains(48.86, 2.35)
        assert not europe.contains(35.68, 139.69)
        with pytest.raises(ValueError):
            world.continent_region("XX")

    def test_distance_to_country(self, world):
        region = Region.from_disk(world.grid, SphericalDisk(48.86, 2.35, 200.0))
        assert world.distance_to_country_km(region, "FR") == 0.0
        d_japan = world.distance_to_country_km(region, "JP")
        assert d_japan > 8000.0
        assert world.distance_to_country_km(Region.empty(world.grid), "FR") \
            == float("inf")

    @settings(max_examples=40, deadline=None)
    @given(lat=st.floats(-89.0, 89.0), lon=st.floats(-179.0, 179.0),
           radius=st.floats(50.0, 4000.0), country=st.integers(0, 10_000))
    def test_distance_matches_pairwise_sweep(self, world, lat, lon, radius,
                                             country):
        region = Region.from_disk(world.grid, SphericalDisk(lat, lon, radius))
        iso2 = world.countries()[country % len(world.countries())].iso2
        cells = np.flatnonzero(
            world.country_raster == world.registry.index_of(iso2))
        got = world.distance_to_country_km(region, iso2)
        if region.is_empty or world.covers_country(region, iso2):
            return
        assert got == pairwise_min_km(world.grid, region.cell_indices(), cells)

    @settings(max_examples=30, deadline=None)
    @given(resolution=st.sampled_from([4.0, 2.0, 1.0, 180 / 19]),
           data=st.data())
    def test_cell_distance_matches_pairwise_sweep(self, resolution, data):
        from repro.geo.worldmap import _min_cell_distance_km
        grid = Grid(resolution_deg=resolution)
        cells = st.lists(st.integers(0, grid.n_cells - 1), min_size=1,
                         max_size=400, unique=True).map(sorted)
        cells_a = np.array(data.draw(cells), dtype=np.int64)
        cells_b = np.array(data.draw(cells), dtype=np.int64)
        assert _min_cell_distance_km(grid, cells_a, cells_b) == \
            pairwise_min_km(grid, cells_a, cells_b)


class TestSampling:
    def test_random_point_in_country(self, world):
        rng = np.random.default_rng(5)
        for code in ("DE", "BR", "AU", "IN"):
            for _ in range(5):
                lat, lon = world.random_point_in(code, rng)
                assert world.country_at(lat, lon) == code
