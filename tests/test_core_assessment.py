"""Tests for claim assessment."""

import pytest

from repro.core import (
    ClaimAssessment,
    ContinentVerdict,
    Verdict,
    assess_claim,
    tally_categories,
    tally_verdicts,
)
from repro.geo import Region
from repro.geodesy import SphericalDisk


def region_around(worldmap, lat, lon, radius_km):
    region = Region.from_disk(worldmap.grid, SphericalDisk(lat, lon, radius_km))
    return worldmap.clip_to_plausible(region)


class TestVerdicts:
    def test_credible_small_region_inside_country(self, scenario):
        # Central Germany, comfortably away from every border.
        region = region_around(scenario.worldmap, 51.0, 9.5, 100.0)
        assessment = assess_claim(region, "DE", scenario.worldmap)
        assert assessment.verdict is Verdict.CREDIBLE
        assert assessment.continent_verdict is ContinentVerdict.CREDIBLE
        assert assessment.category() == "credible"

    def test_uncertain_region_spanning_neighbours(self, scenario):
        region = region_around(scenario.worldmap, 52.5, 13.4, 800.0)
        assessment = assess_claim(region, "DE", scenario.worldmap)
        assert assessment.verdict is Verdict.UNCERTAIN
        assert assessment.continent_verdict is ContinentVerdict.CREDIBLE
        assert "DE" in assessment.countries_covered

    def test_false_far_away_claim(self, scenario):
        region = region_around(scenario.worldmap, 52.5, 13.4, 800.0)
        assessment = assess_claim(region, "KP", scenario.worldmap)
        assert assessment.verdict is Verdict.FALSE
        assert assessment.continent_verdict is ContinentVerdict.FALSE
        assert assessment.category() == "continent false"

    def test_false_same_continent(self, scenario):
        region = region_around(scenario.worldmap, 52.5, 13.4, 400.0)
        assessment = assess_claim(region, "PT", scenario.worldmap)
        assert assessment.verdict is Verdict.FALSE
        assert assessment.continent_verdict is ContinentVerdict.CREDIBLE
        assert assessment.category() == "country false, continent credible"

    def test_unlocatable_empty_region(self, scenario):
        assessment = assess_claim(Region.empty(scenario.grid), "DE",
                                  scenario.worldmap)
        assert assessment.verdict is Verdict.UNLOCATABLE
        assert assessment.category() == "unlocatable"

    def test_unknown_country_rejected(self, scenario):
        region = region_around(scenario.worldmap, 52.5, 13.4, 100.0)
        with pytest.raises(KeyError):
            assess_claim(region, "ZZ", scenario.worldmap)

    def test_region_area_recorded(self, scenario):
        region = region_around(scenario.worldmap, 52.5, 13.4, 400.0)
        assessment = assess_claim(region, "DE", scenario.worldmap)
        assert assessment.region_area_km2 == pytest.approx(region.area_km2())


class TestTolerance:
    def test_borderline_miss_becomes_uncertain(self, scenario):
        """A region hugging the Czech side of the DE/CZ border must not
        disprove a German claim — rasterisation slack."""
        region = region_around(scenario.worldmap, 49.9, 13.6, 80.0)
        covered = scenario.worldmap.countries_covered(region)
        if "DE" in covered:
            pytest.skip("region already touches DE at this resolution")
        assessment = assess_claim(region, "DE", scenario.worldmap,
                                  tolerance_km=120.0)
        assert assessment.verdict is Verdict.UNCERTAIN

    def test_zero_tolerance_restores_strictness(self, scenario):
        region = region_around(scenario.worldmap, 49.9, 13.6, 80.0)
        covered = scenario.worldmap.countries_covered(region)
        if "DE" in covered:
            pytest.skip("region already touches DE at this resolution")
        assessment = assess_claim(region, "DE", scenario.worldmap,
                                  tolerance_km=0.0)
        assert assessment.verdict is Verdict.FALSE

    def test_tolerance_does_not_save_distant_claims(self, scenario):
        region = region_around(scenario.worldmap, 52.5, 13.4, 300.0)
        assessment = assess_claim(region, "JP", scenario.worldmap,
                                  tolerance_km=120.0)
        assert assessment.verdict is Verdict.FALSE


class TestCategoriesAndTallies:
    def _assessment(self, verdict, continent_verdict):
        return ClaimAssessment("DE", verdict, continent_verdict)

    def test_all_false_categories(self):
        cases = {
            ContinentVerdict.CREDIBLE: "country false, continent credible",
            ContinentVerdict.UNCERTAIN: "country false, continent uncertain",
            ContinentVerdict.FALSE: "continent false",
        }
        for continent_verdict, expected in cases.items():
            assessment = self._assessment(Verdict.FALSE, continent_verdict)
            assert assessment.category() == expected

    def test_uncertain_categories(self):
        a = self._assessment(Verdict.UNCERTAIN, ContinentVerdict.CREDIBLE)
        assert a.category() == "country uncertain, continent credible"
        b = self._assessment(Verdict.UNCERTAIN, ContinentVerdict.UNCERTAIN)
        assert b.category() == "country and continent uncertain"

    def test_tally_verdicts(self):
        assessments = [
            self._assessment(Verdict.CREDIBLE, ContinentVerdict.CREDIBLE),
            self._assessment(Verdict.FALSE, ContinentVerdict.FALSE),
            self._assessment(Verdict.FALSE, ContinentVerdict.FALSE),
        ]
        counts = tally_verdicts(assessments)
        assert counts["credible"] == 1
        assert counts["false"] == 2
        assert counts["uncertain"] == 0

    def test_tally_categories(self):
        assessments = [
            self._assessment(Verdict.UNCERTAIN, ContinentVerdict.CREDIBLE),
            self._assessment(Verdict.UNCERTAIN, ContinentVerdict.CREDIBLE),
        ]
        counts = tally_categories(assessments)
        assert counts == {"country uncertain, continent credible": 2}

    def test_flag_properties(self):
        assessment = self._assessment(Verdict.CREDIBLE,
                                      ContinentVerdict.CREDIBLE)
        assert assessment.is_credible
        assert not assessment.is_false
        assert assessment.verdict is not Verdict.UNCERTAIN
