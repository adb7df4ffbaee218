"""Tests for the Region mask algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import Grid, Region
from repro.geodesy import EARTH_RADIUS_KM, SphericalDisk, SphericalRing


@pytest.fixture(scope="module")
def grid():
    return Grid(resolution_deg=4.0)


def random_region(grid, seed):
    rng = np.random.default_rng(seed)
    return Region(grid, rng.random(grid.n_cells) < 0.3)


class TestConstruction:
    def test_empty_and_full(self, grid):
        assert Region.empty(grid).is_empty
        assert Region.full(grid).n_cells == grid.n_cells

    def test_from_disk_matches_mask(self, grid):
        disk = SphericalDisk(20.0, 30.0, 1500.0)
        region = Region.from_disk(grid, disk)
        assert np.array_equal(region.mask, grid.disk_mask(20.0, 30.0, 1500.0))

    def test_from_ring(self, grid):
        ring = SphericalRing(0.0, 0.0, 1000.0, 3000.0)
        region = Region.from_ring(grid, ring)
        assert not region.contains(0.0, 0.0)

    def test_from_cells(self, grid):
        region = Region.from_cells(grid, [0, 5, 10])
        assert region.n_cells == 3
        with pytest.raises(IndexError):
            Region.from_cells(grid, [grid.n_cells])

    def test_mask_shape_checked(self, grid):
        with pytest.raises(ValueError):
            Region(grid, np.zeros(10, dtype=bool))


class TestSetAlgebra:
    def test_intersection_subset_of_both(self, grid):
        a = random_region(grid, 1)
        b = random_region(grid, 2)
        inter = a & b
        assert not (inter.mask & ~a.mask).any()
        assert not (inter.mask & ~b.mask).any()

    def test_union_superset_of_both(self, grid):
        a = random_region(grid, 3)
        b = random_region(grid, 4)
        union = a | b
        assert not (a.mask & ~union.mask).any()
        assert not (b.mask & ~union.mask).any()

    def test_difference(self, grid):
        a = random_region(grid, 5)
        b = random_region(grid, 6)
        diff = a.difference(b)
        assert not (diff.mask & b.mask).any()

    def test_inclusion_exclusion_on_areas(self, grid):
        a = random_region(grid, 7)
        b = random_region(grid, 8)
        lhs = (a | b).area_km2() + (a & b).area_km2()
        rhs = a.area_km2() + b.area_km2()
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_cross_grid_operations_rejected(self, grid):
        other = Grid(resolution_deg=4.0)
        with pytest.raises(ValueError):
            Region.full(grid).intersect(Region.full(other))

    def test_equality(self, grid):
        a = Region.from_cells(grid, [1, 2])
        b = Region.from_cells(grid, [1, 2])
        c = Region.from_cells(grid, [1, 3])
        assert a == b
        assert a != c

    def test_unhashable(self, grid):
        with pytest.raises(TypeError):
            hash(Region.empty(grid))


class TestMetrics:
    def test_full_region_area_is_sphere(self, grid):
        assert Region.full(grid).area_km2() == pytest.approx(
            4 * math.pi * EARTH_RADIUS_KM ** 2, rel=0.01)

    def test_disk_region_area_close_to_analytic(self, grid):
        disk = SphericalDisk(10.0, 10.0, 3000.0)
        region = Region.from_disk(grid, disk)
        assert region.area_km2() == pytest.approx(disk.area_km2(), rel=0.1)

    def test_centroid_of_disk_region_near_center(self, grid):
        region = Region.from_disk(grid, SphericalDisk(35.0, 70.0, 2000.0))
        lat, lon = region.centroid()
        assert lat == pytest.approx(35.0, abs=3.0)
        assert lon == pytest.approx(70.0, abs=4.0)

    def test_centroid_across_antimeridian(self, grid):
        region = Region.from_disk(grid, SphericalDisk(0.0, 179.0, 1500.0))
        lat, lon = region.centroid()
        assert abs(lat) < 4.0
        assert abs(abs(lon) - 179.0) < 5.0

    def test_centroid_empty_is_none(self, grid):
        assert Region.empty(grid).centroid() is None

    def test_distance_zero_inside(self, grid):
        region = Region.from_disk(grid, SphericalDisk(50.0, 10.0, 2000.0))
        assert region.distance_to_point_km(50.0, 10.0) == 0.0

    def test_distance_positive_outside(self, grid):
        region = Region.from_disk(grid, SphericalDisk(50.0, 10.0, 800.0))
        d = region.distance_to_point_km(-30.0, 10.0)
        assert d > 7000.0

    def test_distance_empty_region_raises(self, grid):
        with pytest.raises(ValueError):
            Region.empty(grid).distance_to_point_km(0.0, 0.0)

    def test_repr_mentions_cells(self, grid):
        text = repr(Region.from_cells(grid, [0]))
        assert "cells=1" in text


class TestProperties:
    @given(seed_a=st.integers(0, 1000), seed_b=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_intersection_commutes(self, seed_a, seed_b):
        grid = Grid(resolution_deg=4.0)
        a = random_region(grid, seed_a)
        b = random_region(grid, seed_b)
        assert (a & b) == (b & a)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_idempotence(self, seed):
        grid = Grid(resolution_deg=4.0)
        a = random_region(grid, seed)
        assert (a & a) == a
        assert (a | a) == a

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_full_is_identity_for_intersection(self, seed):
        grid = Grid(resolution_deg=4.0)
        a = random_region(grid, seed)
        assert (a & Region.full(grid)) == a
        assert (a | Region.empty(grid)) == a
