"""Cross-cutting property-based tests of core invariants.

These complement the per-module tests with randomized checks of the
system-level guarantees the paper's argument rests on:

* the largest-consistent-subset search is exact (vs brute force);
* CBG++ regions contain the corresponding naive intersections;
* assessments are stable under region growth in the right direction
  (growing a region can never turn FALSE into a *different* country's
  exclusive CREDIBLE, etc.);
* calibrations never produce negative or super-physical bounds.
"""

import itertools
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Verdict, largest_consistent_subset
from repro.core.calibration import CbgCalibration
from repro.experiments import run_audit
from repro.geo import Grid
from repro.geodesy import BASELINE_SPEED_KM_PER_MS, MAX_SURFACE_DISTANCE_KM
from tests.oracles import bool_largest_consistent_subset

GRID = Grid(resolution_deg=10.0)   # 648 cells: brute-force friendly


def _brute_force_best(masks, base):
    """Reference implementation: try every subset, largest first."""
    n = len(masks)
    for size in range(n, 0, -1):
        best = None
        for combo in itertools.combinations(range(n), size):
            mask = base.copy()
            for index in combo:
                mask &= masks[index]
            if mask.any():
                best = (list(combo), mask)
                break
        if best is not None:
            return best
    return ([], base)


disk_strategy = st.tuples(
    st.floats(min_value=-60.0, max_value=70.0),
    st.floats(min_value=-170.0, max_value=170.0),
    st.floats(min_value=300.0, max_value=6000.0))


class TestSubsetSearchExactness:
    @given(st.lists(disk_strategy, min_size=1, max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_cardinality(self, disks):
        masks = [GRID.disk_mask(lat, lon, radius)
                 for lat, lon, radius in disks]
        base = np.ones(GRID.n_cells, dtype=bool)
        chosen, mask = largest_consistent_subset(masks)
        reference_chosen, reference_mask = _brute_force_best(masks, base)
        # Cardinality must be optimal (the specific subset may differ when
        # several maximal families exist).
        assert len(chosen) == len(reference_chosen)
        if chosen:
            assert mask.any()
        # The returned mask really is the intersection of the chosen masks.
        check = base.copy()
        for index in chosen:
            check &= masks[index]
        assert np.array_equal(mask, check)

    @given(st.lists(disk_strategy, min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_result_never_empty_when_any_disk_nonempty(self, disks):
        masks = [GRID.disk_mask(lat, lon, radius)
                 for lat, lon, radius in disks]
        if not any(mask.any() for mask in masks):
            return
        chosen, mask = largest_consistent_subset(masks)
        assert mask.any()
        assert len(chosen) >= 1


class TestSubsetEngineEquivalence:
    """The bitset subset search equals the boolean oracle's."""

    @given(seed=st.integers(0, 100_000),
           n_masks=st.integers(min_value=1, max_value=12),
           n_bits=st.integers(min_value=1, max_value=300),
           density=st.floats(min_value=0.02, max_value=0.7))
    @settings(max_examples=80, deadline=None)
    def test_random_masks_identical(self, seed, n_masks, n_bits, density):
        rng = np.random.default_rng(seed)
        masks = rng.random((n_masks, n_bits)) < density
        masks &= rng.random(n_bits) < 0.8     # cells no mask may cover
        chosen_bool, mask_bool = bool_largest_consistent_subset(masks)
        chosen_bits, mask_bits = largest_consistent_subset(masks)
        assert chosen_bool == chosen_bits
        assert np.array_equal(mask_bool, mask_bits)

    @given(st.lists(disk_strategy, min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_disk_masks_identical(self, disks):
        masks = [GRID.disk_mask(lat, lon, radius)
                 for lat, lon, radius in disks]
        chosen_bool, mask_bool = bool_largest_consistent_subset(masks)
        chosen_bits, mask_bits = largest_consistent_subset(masks)
        assert chosen_bool == chosen_bits
        assert np.array_equal(mask_bool, mask_bits)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel audit requires the fork start method")
class TestParallelAuditEquivalence:
    """Worker count must never change what an audit concludes."""

    def test_workers_bit_identical(self, scenario):
        serial = run_audit(scenario, max_servers=12, seed=3, workers=1)
        parallel = run_audit(scenario, max_servers=12, seed=3, workers=4)
        assert serial.verdict_counts() == parallel.verdict_counts()
        assert serial.verdict_counts(initial=True) == \
            parallel.verdict_counts(initial=True)
        for a, b in zip(serial.records, parallel.records):
            assert a.server.ip == b.server.ip
            assert np.array_equal(a.region.mask, b.region.mask)
            assert a.assessment.verdict == b.assessment.verdict
            assert a.assessment.countries_covered == \
                b.assessment.countries_covered
            assert a.landmark_names == b.landmark_names
            assert [obs.one_way_ms for obs in a.observations] == \
                [obs.one_way_ms for obs in b.observations]


class TestCalibrationPhysicality:
    @given(seed=st.integers(0, 10_000),
           n=st.integers(min_value=5, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_bounds_always_physical(self, seed, n):
        rng = np.random.default_rng(seed)
        distances = rng.uniform(10, 19000, n)
        speeds = rng.uniform(20, 195)
        delays = distances / speeds + rng.exponential(8.0, n)
        model = CbgCalibration(list(zip(distances, delays)),
                               apply_slowline=True)
        for delay in rng.uniform(0, 400, 10):
            bound = model.max_distance_km(float(delay))
            assert 0.0 <= bound <= MAX_SURFACE_DISTANCE_KM
            # The baseline bound dominates and is itself physical.
            baseline = model.baseline_distance_km(float(delay))
            assert bound <= baseline + 1e-6
            assert baseline <= min(delay * BASELINE_SPEED_KM_PER_MS,
                                   MAX_SURFACE_DISTANCE_KM) + 1e-6


class TestAuditRecordInvariants:
    """Invariants over the shared audit's real records."""

    def test_covered_countries_exist(self, scenario, audit):
        for record in audit.records:
            for code in record.assessment.countries_covered:
                assert code in scenario.registry

    def test_uncertain_implies_multiple_candidates(self, audit):
        for record in audit.records:
            if record.assessment.verdict is Verdict.UNCERTAIN:
                assert len(set(record.assessment.countries_covered)) >= 2

    def test_credible_implies_claim_covered(self, audit):
        for record in audit.records:
            if (record.assessment.is_credible
                    and record.assessment.resolution_method is None):
                assert record.assessment.countries_covered == [
                    record.assessment.claimed_country]

    def test_resolution_only_from_uncertain(self, audit):
        for record in audit.records:
            if record.assessment.resolution_method is not None:
                assert record.initial_verdict is not None
                assert record.initial_verdict.value == "uncertain"

    def test_region_area_matches_recorded(self, audit):
        for record in audit.records[:40]:
            assert record.assessment.region_area_km2 == pytest.approx(
                record.region.area_km2())
