"""Tests for the calibration cache."""

import pytest

from repro.core import CalibrationSet


class TestCalibrationSet:
    def test_landmark_lookup(self, scenario):
        calibrations = scenario.calibrations
        name = scenario.atlas.anchors[0].name
        assert calibrations.landmark(name).name == name
        with pytest.raises(KeyError):
            calibrations.landmark("nope")

    def test_cbg_model_cached(self, scenario):
        calibrations = CalibrationSet(scenario.atlas)
        name = scenario.atlas.anchors[0].name
        first = calibrations.cbg(name)
        second = calibrations.cbg(name)
        assert first is second

    def test_slowline_variant_cached_separately(self, scenario):
        calibrations = CalibrationSet(scenario.atlas)
        name = scenario.atlas.anchors[0].name
        plain = calibrations.cbg(name, apply_slowline=False)
        slow = calibrations.cbg(name, apply_slowline=True)
        assert plain is not slow
        assert not plain.apply_slowline
        assert slow.apply_slowline

    def test_octant_model_available(self, scenario):
        name = scenario.atlas.anchors[1].name
        model = scenario.calibrations.octant(name)
        assert model.max_distance_km(50.0) > 0

    def test_spotter_global_singleton(self, scenario):
        first = scenario.calibrations.spotter()
        second = scenario.calibrations.spotter()
        assert first is second

    def test_probe_landmarks_calibratable(self, scenario):
        probe = scenario.atlas.probes[0]
        model = scenario.calibrations.cbg(probe.name)
        assert model.n_points == len(scenario.atlas.anchors)

    def test_landmarks_named(self, scenario):
        names = [lm.name for lm in scenario.atlas.anchors[:3]]
        resolved = scenario.calibrations.landmarks_named(names)
        assert [lm.name for lm in resolved] == names
