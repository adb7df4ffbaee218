"""Structural checks on every figure experiment's output.

Each experiment runs once, in its paper claim (``tests/claims.py``), and
these tests check that the output objects of that same run are
self-consistent; ``tests/test_paper_claims.py`` checks the paper's bounds.
The error paths run on the shared scenario.
"""

import pytest

from repro.core.disambiguation import group_by_metadata
from repro.experiments import (
    fig02_calibration,
    fig04_tools,
    fig09_algorithms,
    fig11_effectiveness,
    fig17_assessment,
    fig18_honesty,
    fig20_datacenter_error,
)
from tests import claims


@pytest.fixture(scope="module")
def world():
    return claims.world()


def from_claim(key):
    return claims.get(key).result


class TestFig02:
    def test_runs_and_formats(self, world):
        figure = from_claim("fig02")
        text = fig02_calibration.format_table(figure)
        assert "bestline" in text
        assert figure.n_points == len(world.scenario.atlas.anchors) - 1

    def test_bad_index_rejected(self, scenario):
        with pytest.raises(IndexError):
            fig02_calibration.run(scenario, landmark_index=10_000)


class TestFig04:
    def test_linux_result_structure(self):
        result = from_claim("fig04")
        assert result.one_rtt_fit.slope > 0
        assert result.two_rtt_fit.slope > result.one_rtt_fit.slope
        assert "slope ratio" in fig04_tools.format_table(result)

    def test_unknown_os_rejected(self, scenario):
        with pytest.raises(ValueError):
            fig04_tools.run(scenario, os="plan9")


class TestFig09:
    def test_outcomes_complete(self, world):
        comparison = from_claim("fig09")
        assert len(comparison.outcomes) == 5 * len(world.scenario.crowd)
        assert set(comparison.algorithms()) == {
            "cbg", "quasi-octant", "spotter", "hybrid", "cbg++"}
        text = fig09_algorithms.format_table(comparison)
        assert "coverage" in text

    def test_ecdf_accessors(self, world):
        comparison = from_claim("fig09")
        for name in comparison.algorithms():
            assert 0.0 <= comparison.coverage(name) <= 1.0
            assert comparison.miss_ecdf(name).n == len(world.scenario.crowd)


class TestFig10:
    def test_ratio_samples(self, world):
        figure = from_claim("fig10")
        n = min(80, len(world.scenario.atlas.anchors))
        assert len(figure.samples) == n * (n - 1)
        assert 0.0 <= figure.bestline_underestimate_rate() <= 1.0
        percentiles = dict(figure.ratio_percentiles("baseline"))
        assert percentiles[0.5] >= 1.0


class TestFig11:
    def test_samples_per_host_anchor_pair(self, world):
        figure = from_claim("fig11")
        assert len(figure.samples) == 12 * len(world.scenario.atlas.anchors)
        assert 0.0 < figure.effective_rate() < 1.0

    def test_rejects_empty(self, scenario):
        with pytest.raises(ValueError):
            fig11_effectiveness.run(scenario, hosts=[])


class TestFig13:
    def test_eta_figure(self):
        figure = from_claim("fig13")
        assert figure.n_proxies >= 3
        assert 0.4 <= figure.eta <= 0.6


class TestFig14:
    def test_landscape(self):
        landscape = from_claim("fig14")
        assert set(landscape.studied_counts) == set("ABCDEFG")
        for rank in landscape.studied_ranks.values():
            assert rank >= 1


class TestFig16And17:
    def test_disambiguation_summary(self, world):
        summary = from_claim("fig16")
        assert summary.n_records == len(world.audit.records)
        assert summary.total_resolved == world.audit.reclassified["total"]

    def test_assessment_figure(self, world):
        figure = from_claim("fig17")
        assert figure.n_proxies == len(world.audit.records)
        assert sum(figure.verdicts_final.values()) == figure.n_proxies
        assert figure.alleged_top
        assert "Figure 17" in fig17_assessment.format_table(figure)

    def test_probable_country_resolution_order(self, world):
        for record in world.audit.records:
            guess = fig17_assessment.probable_country(record, world.scenario)
            if record.assessment.resolved_country:
                assert guess == record.assessment.resolved_country


class TestFig18:
    def test_matrix_shape(self, world):
        matrix = fig18_honesty.summarize(world.audit, n_countries=10)
        assert len(matrix.countries) <= 10
        for rate in matrix.honesty.values():
            assert 0.0 <= rate <= 1.0

    def test_all_countries_variant_larger(self, world):
        top = fig18_honesty.summarize(world.audit, n_countries=10)
        assert len(from_claim("fig19").countries) >= len(top.countries)


class TestFig20:
    def test_group_spread(self, world):
        groups = group_by_metadata(world.audit.records)
        key, group = max(groups.items(), key=lambda item: len(item[1]))
        spread = fig20_datacenter_error.analyze_group(world.scenario, key,
                                                      group)
        assert spread.n_hosts == len(group)
        assert len(spread.areas_km2) == len(group)


class TestFig21:
    def test_rows_complete(self):
        comparison = from_claim("fig21")
        for label in comparison.ROW_ORDER:
            row = comparison.rows[label]
            assert set(row) == set(comparison.providers)
            for value in row.values():
                assert 0.0 <= value <= 1.0


class TestFig22:
    def test_matrices_populated(self, world):
        figures = from_claim("fig22")
        assert figures.continent_matrix.total() > 0
        assert figures.country_matrix.total() > 0
        rate = figures.same_continent_confusion_rate(world.scenario)
        assert 0.0 <= rate <= 1.0
