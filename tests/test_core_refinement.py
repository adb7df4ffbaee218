"""Tests for iterative refinement (§8.1 extension)."""

import numpy as np
import pytest

from repro.core import (
    CBGPlusPlus,
    IterativeRefiner,
    RttObservation,
    TwoPhaseDriver,
    TwoPhaseSelector,
)
from repro.netsim import CliTool


@pytest.fixture(scope="module")
def setup(scenario):
    algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
    target = scenario.factory.create(48.86, 2.35, name="refine-paris")
    tool = CliTool(scenario.network, seed=21)
    rng = np.random.default_rng(21)

    def measure(landmarks):
        return [RttObservation(
            lm.name, lm.lat, lm.lon,
            tool.measure(target, lm, rng).rtt_ms / 2.0)
            for lm in landmarks]

    selector = TwoPhaseSelector(scenario.atlas, seed=21)
    initial = TwoPhaseDriver(selector, algorithm).locate(measure, rng)
    return scenario, algorithm, target, measure, initial


class TestRefiner:
    def test_region_shrinks_or_holds(self, setup):
        scenario, algorithm, target, measure, initial = setup
        refiner = IterativeRefiner(scenario.atlas, algorithm)
        observations = (initial.phase2_observations
                        + initial.phase1_observations)
        result = refiner.refine(initial.prediction, observations, measure)
        assert result.prediction.area_km2() <= initial.prediction.area_km2()

    def test_truth_still_covered(self, setup):
        scenario, algorithm, target, measure, initial = setup
        refiner = IterativeRefiner(scenario.atlas, algorithm)
        observations = (initial.phase2_observations
                        + initial.phase1_observations)
        result = refiner.refine(initial.prediction, observations, measure)
        assert result.prediction.miss_distance_km(target.lat, target.lon) \
            == 0.0

    def test_rounds_recorded_consistently(self, setup):
        scenario, algorithm, target, measure, initial = setup
        refiner = IterativeRefiner(scenario.atlas, algorithm, batch_size=5,
                                   max_rounds=3)
        observations = (initial.phase2_observations
                        + initial.phase1_observations)
        result = refiner.refine(initial.prediction, observations, measure)
        assert len(result.rounds) <= 3
        for round_info in result.rounds:
            assert len(round_info.landmarks_added) <= 5
            assert round_info.area_after_km2 <= round_info.area_before_km2 * 1.001
        assert result.total_measurements == sum(
            len(r.landmarks_added) for r in result.rounds)

    def test_stops_on_diminishing_returns(self, setup):
        scenario, algorithm, target, measure, initial = setup
        # Demand an absurd 90% shrinkage per round: should stop quickly.
        refiner = IterativeRefiner(scenario.atlas, algorithm,
                                   min_shrinkage=0.9, max_rounds=10)
        observations = (initial.phase2_observations
                        + initial.phase1_observations)
        result = refiner.refine(initial.prediction, observations, measure)
        assert len(result.rounds) <= 2

    def test_new_landmarks_are_new(self, setup):
        scenario, algorithm, target, measure, initial = setup
        refiner = IterativeRefiner(scenario.atlas, algorithm, max_rounds=2)
        observations = (initial.phase2_observations
                        + initial.phase1_observations)
        already_used = {o.landmark_name for o in observations}
        result = refiner.refine(initial.prediction, observations, measure)
        added = [name for r in result.rounds for name in r.landmarks_added]
        assert len(added) == len(set(added))
        assert not (set(added) & already_used)

    def test_parameter_validation(self, scenario):
        algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
        with pytest.raises(ValueError):
            IterativeRefiner(scenario.atlas, algorithm, batch_size=0)
        with pytest.raises(ValueError):
            IterativeRefiner(scenario.atlas, algorithm, max_rounds=0)
        with pytest.raises(ValueError):
            IterativeRefiner(scenario.atlas, algorithm, min_shrinkage=1.0)
