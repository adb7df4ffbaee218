"""Tests specific to CBG++'s failure-elimination machinery."""

import numpy as np
import pytest

from repro.core import CBGPlusPlus, RttObservation


@pytest.fixture(scope="module")
def algorithm(scenario):
    return CBGPlusPlus(scenario.calibrations, scenario.worldmap)


def good_observations(scenario, n=8):
    """Consistent observations placing the target near Frankfurt."""
    target = (50.11, 8.68)
    observations = []
    for landmark in scenario.atlas.anchors[:n]:
        cal = scenario.calibrations.cbg(landmark.name, apply_slowline=True)
        from repro.geodesy import haversine_km
        distance = haversine_km(*target, landmark.lat, landmark.lon)
        # A delay that makes the bestline bound comfortably generous.
        delay = cal.bestline.delay_at(distance) * 1.3 + 2.0
        observations.append(RttObservation(
            landmark.name, landmark.lat, landmark.lon, delay))
    return observations


class TestSubsetBehaviour:
    def test_consistent_observations_keep_all_landmarks(self, scenario,
                                                        algorithm):
        observations = good_observations(scenario)
        prediction = algorithm.predict(observations)
        assert not prediction.failed
        assert prediction.discarded_landmarks == []
        assert len(prediction.used_landmarks) == len(observations)

    def test_underestimated_disk_discarded_not_fatal(self, scenario,
                                                     algorithm):
        observations = good_observations(scenario)
        # Corrupt one observation to a near-zero delay: its bestline AND
        # baseline disks shrink to (almost) a point far from the others'
        # intersection — the paper's underestimation failure.
        victim = observations[0]
        corrupted = [RttObservation(victim.landmark_name, victim.lat,
                                    victim.lon, 0.01)] + observations[1:]
        prediction = algorithm.predict(corrupted)
        assert not prediction.failed
        assert victim.landmark_name in prediction.discarded_landmarks

    def test_never_empty_even_with_conflicts(self, scenario, algorithm):
        observations = good_observations(scenario)
        # Corrupt half the observations to tiny delays.
        corrupted = [
            RttObservation(o.landmark_name, o.lat, o.lon, 0.01)
            if i % 2 == 0 else o
            for i, o in enumerate(observations)]
        prediction = algorithm.predict(corrupted)
        assert not prediction.failed

    def test_baseline_region_fallback(self, scenario, algorithm):
        # All delays tiny: every bestline disk is nearly a point, but the
        # baseline family still admits a nonempty consistent subset.
        observations = [
            RttObservation(lm.name, lm.lat, lm.lon, 0.01)
            for lm in scenario.atlas.anchors[:6]]
        prediction = algorithm.predict(observations)
        assert not prediction.failed
