"""Performance benchmarks of the pipeline's hot paths.

Repeated timing of the costs that dominate a fleet audit: calibration
fitting, distance-field/disk-mask evaluation, the subset search, and a
full CBG++ prediction.  Each bench runs rounds for about a second and
holds its minimum under the baseline tripwire (``tests.perf_baseline``).
"""

import numpy as np
import pytest

from benchmarks.timing import min_call_s
from repro.core import CBGPlusPlus, RttObservation, largest_consistent_subset
from repro.core.calibration import CbgCalibration
from repro.geo import Grid
from tests.perf_baseline import (CBG_CALIBRATION_FIT_S,
                                 CBGPP_FULL_PREDICTION_S, DISK_MASK_CACHED_S,
                                 DISTANCE_FIELD_UNCACHED_S,
                                 REGION_COUNTRY_COVERAGE_S,
                                 SUBSET_SEARCH_WITH_CONFLICTS_S,
                                 TIME_TRIPWIRE)


@pytest.fixture(scope="module")
def observations(scenario):
    rng = np.random.default_rng(0)
    target = scenario.factory.create(48.8, 2.3, name="perf-target")
    observations = []
    for landmark in scenario.atlas.anchors[:25]:
        base = scenario.network.base_one_way_ms(target, landmark.host)
        observations.append(RttObservation(
            landmark.name, landmark.lat, landmark.lon,
            base + float(rng.exponential(2.0))))
    return observations


def test_perf_cbg_calibration_fit(scenario):
    points = scenario.atlas.calibration_data(scenario.atlas.anchors[0])
    floor, result = min_call_s(
        lambda: CbgCalibration(points, apply_slowline=True))
    assert result.speed_km_per_ms > 0
    assert floor < TIME_TRIPWIRE * CBG_CALIBRATION_FIT_S


def test_perf_distance_field_uncached():
    grid = Grid(resolution_deg=1.0)
    counter = [0]

    def compute():
        # A fresh coordinate each round defeats the LRU cache, so the
        # benchmark measures the haversine sweep itself.
        counter[0] += 1
        lat = (counter[0] * 0.137) % 80.0
        return grid.distances_from(lat, 10.0)

    floor, distances = min_call_s(compute)
    assert distances.shape == (grid.n_cells,)
    assert floor < TIME_TRIPWIRE * DISTANCE_FIELD_UNCACHED_S


def test_perf_disk_mask_cached(scenario):
    grid = scenario.grid
    grid.distances_from(50.0, 8.0)  # warm the cache
    floor, mask = min_call_s(lambda: grid.disk_mask(50.0, 8.0, 1500.0))
    assert mask.any()
    assert floor < TIME_TRIPWIRE * DISK_MASK_CACHED_S


def test_perf_subset_search_with_conflicts(scenario):
    grid = scenario.grid
    rng = np.random.default_rng(1)
    masks = [grid.disk_mask(48.0 + float(rng.normal(0, 3)),
                            10.0 + float(rng.normal(0, 5)),
                            float(rng.uniform(800, 4000)))
             for _ in range(20)]
    masks += [grid.disk_mask(-30.0, 140.0, 500.0)]  # a conflicting outlier
    floor, (chosen, mask) = min_call_s(
        lambda: largest_consistent_subset(masks))
    assert mask.any()
    assert len(chosen) >= 20
    assert floor < TIME_TRIPWIRE * SUBSET_SEARCH_WITH_CONFLICTS_S


def test_perf_cbgpp_full_prediction(scenario, observations):
    algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
    algorithm.predict(observations)  # warm calibration + distance caches
    floor, prediction = min_call_s(lambda: algorithm.predict(observations))
    assert not prediction.failed
    assert floor < TIME_TRIPWIRE * CBGPP_FULL_PREDICTION_S


def test_perf_region_country_coverage(scenario, observations):
    algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
    region = algorithm.predict(observations).region
    floor, covered = min_call_s(
        lambda: scenario.worldmap.countries_covered(region))
    assert covered
    assert floor < TIME_TRIPWIRE * REGION_COUNTRY_COVERAGE_S
