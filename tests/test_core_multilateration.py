"""Tests for the multilateration engines."""

import numpy as np
import pytest

from repro.core import (
    DiskConstraint,
    GaussianRing,
    bayesian_region,
    intersect_disks,
    largest_consistent_subset,
)
from repro.core.multilateration import mode_region_from_votes
from repro.geo import Grid


@pytest.fixture(scope="module")
def grid():
    return Grid(resolution_deg=4.0)


def disk(grid, lat, lon, radius):
    return grid.disk_mask(lat, lon, radius)


def votes_of(masks):
    return np.sum(masks, axis=0, dtype=np.int32)


class TestIntersectDisks:
    def test_figure1_multilateration(self):
        """The paper's Figure 1: Bourges+Cromer+Randers triangulate Belgium.

        Needs a 2-degree grid — the Belgium-sized intersection falls
        between 4-degree cell centres.
        """
        grid = Grid(resolution_deg=2.0)
        constraints = [
            DiskConstraint("bourges", 47.08, 2.40, 500.0),
            DiskConstraint("cromer", 52.93, 1.30, 500.0),
            DiskConstraint("randers", 56.46, 10.04, 800.0),
        ]
        region = intersect_disks(grid, constraints)
        assert not region.is_empty
        # Brussels is in the intersection; Madrid and Berlin are not.
        assert region.contains(50.85, 4.35)
        assert not region.contains(40.42, -3.70)
        assert not region.contains(52.52, 13.40)

    def test_disjoint_disks_give_empty(self, grid):
        constraints = [
            DiskConstraint("a", 0.0, 0.0, 300.0),
            DiskConstraint("b", 0.0, 90.0, 300.0),
        ]
        assert intersect_disks(grid, constraints).is_empty

    def test_requires_disks(self, grid):
        with pytest.raises(ValueError):
            intersect_disks(grid, [])


class TestModeRegion:
    def test_equals_intersection_when_consistent(self, grid):
        masks = [disk(grid, 0, 0, 3000), disk(grid, 0, 10, 3000)]
        region = mode_region_from_votes(grid, votes_of(masks))
        expected = masks[0] & masks[1]
        assert np.array_equal(region.mask, expected)

    def test_majority_wins_when_inconsistent(self, grid):
        masks = [disk(grid, 0, 0, 1500), disk(grid, 0, 5, 1500),
                 disk(grid, 0, 90, 500)]  # the third is off on its own
        region = mode_region_from_votes(grid, votes_of(masks))
        assert region.contains(0.0, 2.5)
        assert not region.contains(0.0, 90.0)

    def test_base_mask_restricts_votes(self, grid):
        masks = [disk(grid, 0, 0, 2000)]
        base = grid.latitude_band_mask(-90.0, -50.0)  # far away from the disk
        region = mode_region_from_votes(grid, votes_of(masks), base_mask=base)
        assert region.is_empty


class TestLargestConsistentSubset:
    def test_all_consistent_fast_path(self, grid):
        masks = [disk(grid, 0, 0, 4000), disk(grid, 0, 10, 4000),
                 disk(grid, 5, 5, 4000)]
        chosen, mask = largest_consistent_subset(masks)
        assert chosen == [0, 1, 2]
        assert mask.any()

    def test_single_outlier_dropped(self, grid):
        masks = [disk(grid, 0, 0, 2000), disk(grid, 0, 8, 2000),
                 disk(grid, 4, 4, 2000), disk(grid, 0, 170, 800)]
        chosen, mask = largest_consistent_subset(masks)
        assert chosen == [0, 1, 2]
        assert mask.any()

    def test_two_rival_cliques_larger_wins(self, grid):
        cluster_a = [disk(grid, 0, 0, 1500), disk(grid, 0, 5, 1500),
                     disk(grid, 3, 2, 1500)]
        cluster_b = [disk(grid, 0, 120, 1500), disk(grid, 0, 125, 1500)]
        chosen, mask = largest_consistent_subset(cluster_a + cluster_b)
        assert chosen == [0, 1, 2]

    def test_mutually_exclusive_keeps_one(self, grid):
        masks = [disk(grid, 0, 0, 400), disk(grid, 0, 60, 400),
                 disk(grid, 0, 120, 400)]
        chosen, mask = largest_consistent_subset(masks)
        assert len(chosen) == 1
        assert mask.any()

    def test_requires_masks(self):
        with pytest.raises(ValueError):
            largest_consistent_subset([])

    def test_subset_result_is_actual_intersection(self, grid):
        masks = [disk(grid, 0, 0, 2000), disk(grid, 0, 8, 2000),
                 disk(grid, 0, 170, 800)]
        chosen, mask = largest_consistent_subset(masks)
        expected = np.ones_like(mask)
        for index in chosen:
            expected &= masks[index]
        assert np.array_equal(mask, expected)


class TestBayesianRegion:
    def test_mass_parameter_validated(self, grid):
        rings = [GaussianRing("a", 0.0, 0.0, 1000.0, 200.0)]
        with pytest.raises(ValueError):
            bayesian_region(grid, rings, mass=0.0)
        with pytest.raises(ValueError):
            bayesian_region(grid, [], mass=0.9)

    def test_region_concentrates_on_ring(self, grid):
        rings = [GaussianRing("a", 0.0, 0.0, 2000.0, 150.0)]
        region = bayesian_region(grid, rings, mass=0.9)
        assert not region.is_empty
        # Cells near the ring radius are included; the center is not.
        assert not region.contains(0.0, 0.0)

    def test_two_rings_pick_crossings(self, grid):
        rings = [GaussianRing("a", 0.0, 0.0, 2000.0, 150.0),
                 GaussianRing("b", 0.0, 30.0, 2000.0, 150.0)]
        region = bayesian_region(grid, rings, mass=0.8)
        assert not region.is_empty
        centroid = region.centroid()
        # Crossings are symmetric about lon 15.
        assert centroid[1] == pytest.approx(15.0, abs=6.0)

    def test_higher_mass_bigger_region(self, grid):
        rings = [GaussianRing("a", 10.0, 10.0, 1500.0, 300.0)]
        small = bayesian_region(grid, rings, mass=0.5)
        large = bayesian_region(grid, rings, mass=0.99)
        assert large.n_cells >= small.n_cells

    def test_prior_mask_respected(self, grid):
        rings = [GaussianRing("a", 0.0, 0.0, 2000.0, 200.0)]
        prior = grid.latitude_band_mask(0.0, 90.0)  # northern hemisphere only
        region = bayesian_region(grid, rings, mass=0.9, prior_mask=prior)
        assert not (region.mask & ~prior).any()

    def test_all_masked_prior_gives_empty(self, grid):
        rings = [GaussianRing("a", 0.0, 0.0, 2000.0, 200.0)]
        prior = np.zeros(grid.n_cells, dtype=bool)
        assert bayesian_region(grid, rings, mass=0.9, prior_mask=prior).is_empty
