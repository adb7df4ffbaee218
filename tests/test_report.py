"""Tests for the ASCII map renderer."""

import pytest

from repro.geo import Region
from repro.geodesy import SphericalDisk
from repro.report import DEFAULT_HEIGHT, DEFAULT_WIDTH, MapCanvas, region_map


@pytest.fixture(scope="module")
def germany_region(scenario):
    return scenario.worldmap.clip_to_plausible(
        Region.from_disk(scenario.grid, SphericalDisk(51.0, 10.0, 400.0)))


class TestMapCanvas:
    def test_dimensions(self, scenario):
        canvas = MapCanvas(scenario.worldmap, width=40, height=12)
        rendered = canvas.render()
        lines = rendered.splitlines()
        assert len(lines) == 14  # body + two border lines
        assert all(len(line) == 42 for line in lines)

    def test_land_and_ocean_distinguished(self, scenario):
        canvas = MapCanvas(scenario.worldmap)
        rendered = canvas.render()
        assert "." in rendered     # land
        assert " " in rendered     # ocean

    def test_too_small_rejected(self, scenario):
        with pytest.raises(ValueError):
            MapCanvas(scenario.worldmap, width=5, height=2)

    def test_bad_bounds_rejected(self, scenario):
        with pytest.raises(ValueError):
            MapCanvas(scenario.worldmap, bounds=(50.0, 40.0, 0.0, 10.0))

    def test_marker_drawn(self, scenario):
        canvas = MapCanvas(scenario.worldmap)
        canvas.draw_marker(51.0, 10.0, "X")
        assert "X" in canvas.render()

    def test_marker_outside_bounds_ignored(self, scenario):
        canvas = MapCanvas(scenario.worldmap, bounds=(40.0, 60.0, 0.0, 20.0))
        canvas.draw_marker(-30.0, -60.0)
        assert "X" not in canvas.render()

    def test_region_overlay(self, scenario, germany_region):
        canvas = MapCanvas(scenario.worldmap, bounds=(35.0, 65.0, -10.0, 30.0))
        canvas.draw_region(germany_region)
        rendered = canvas.render()
        assert "#" in rendered

    def test_empty_region_draws_nothing(self, scenario):
        canvas = MapCanvas(scenario.worldmap)
        before = canvas.render()
        canvas.draw_region(Region.empty(scenario.grid))
        assert canvas.render() == before


class TestRegionMap:
    def test_zoomed_map_contains_region_and_marker(self, scenario,
                                                   germany_region):
        rendered = region_map(scenario.worldmap, germany_region,
                              markers=[(52.52, 13.40)])
        assert "#" in rendered
        assert "X" in rendered

    def test_world_map_when_not_zoomed(self, scenario, germany_region):
        rendered = region_map(scenario.worldmap, germany_region, zoom=False)
        lines = rendered.splitlines()
        assert len(lines) == DEFAULT_HEIGHT + 2
        assert len(lines[0]) == DEFAULT_WIDTH + 2
