"""Tests for the §8/§8.1 extension experiments.

The adversary and test-bench experiments run once, in their paper claims
(``tests/claims.py``); these tests check the output of that same run.
"""

import numpy as np
import pytest

from repro.experiments import ext_adversary, ext_testbench, run_audit
from repro.experiments.scenario import SMALL_CROWD_QUOTAS, build_scenario
from repro.netsim import NavigationTimingWebTool, WebTool
from tests import claims


class TestAdversaryExperiment:
    @pytest.fixture(scope="class")
    def experiment(self):
        return claims.get("ext_adversary").result

    def test_all_cells_present(self, experiment):
        assert len(experiment.outcomes) == 4
        for strategy in ("add-delay", "forge-synack"):
            for algorithm in ("cbg++", "spotter"):
                experiment.outcome(strategy, algorithm)

    def test_delay_cannot_evict_truth_from_cbgpp(self, experiment):
        """Delay only inflates distances: CBG-family disks only grow."""
        outcome = experiment.outcome("add-delay", "cbg++")
        assert outcome.covers_truth

    def test_delay_displaces_spotter(self, experiment):
        """Minimum-speed models are susceptible to added delay."""
        outcome = experiment.outcome("add-delay", "spotter")
        assert not outcome.covers_truth
        assert outcome.displaced

    def test_forgery_defeats_everyone(self, experiment):
        for algorithm in ("cbg++", "spotter"):
            outcome = experiment.outcome("forge-synack", algorithm)
            assert not outcome.covers_truth
            assert outcome.miss_pretend_km < outcome.miss_truth_km

    def test_format_table(self, experiment):
        text = ext_adversary.format_table(experiment)
        assert "add-delay" in text and "forge-synack" in text


class TestTestbenchExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return claims.get("ext_testbench").result

    def test_rows_complete(self, result):
        assert len(result.rows) == 10
        for row in result.rows:
            assert row.direct_area_km2 >= 0
            assert row.indirect_area_km2 >= 0

    def test_eta_fitted(self, result):
        assert 0.4 <= result.eta <= 0.6

    def test_errors_are_local_not_continental(self, result):
        """Direct/indirect disagreement stays at border scale (~100s of
        km), never continent scale."""
        assert result.worst_miss_km(indirect=True) < 1500.0
        assert result.worst_miss_km(indirect=False) < 1500.0
        assert result.median_centroid_offset_km() < 500.0

    def test_indirection_does_not_shrink_regions(self, result):
        """The tunnel's upward bias should never make regions smaller on
        the median."""
        assert result.median_area_inflation() >= 0.8

    def test_format_table(self, result):
        assert "direct" in ext_testbench.format_table(result)

    def test_leaves_the_callers_world_alone(self):
        """The servers stand on a copy: a run adds no AS or host to the
        caller's world and moves none of its audit records."""
        world = build_scenario(
            seed=3, proxy_scale=0.1,
            anchor_quotas={"EU": 12, "NA": 6, "AS": 4},
            probe_quotas={"EU": 10, "NA": 6},
            crowd_quotas=SMALL_CROWD_QUOTAS)

        def state():
            audit = run_audit(world, max_servers=20, seed=0)
            return (world.network.topology_digest(),
                    len(world.factory.hosts),
                    [(r.server.host.host_id, r.region.packed_bytes(),
                      r.assessment.verdict) for r in audit.records])

        before = state()
        ext_testbench.run(world, n_servers=4)
        assert state() == before


class TestNavigationTimingTool:
    def test_supported_landmark_measures_one_rtt(self, scenario, rng):
        client = scenario.factory.create(50.0, 8.6, name="navtiming-client")
        landmark = next(lm for lm in scenario.atlas.anchors
                        if lm.host.listens_on_port_80)
        tool = NavigationTimingWebTool(
            scenario.network, supporting_landmarks=[landmark.name])
        sample = tool.measure(client, landmark, rng)
        assert sample.n_round_trips == 1
        assert sample.tool == "web-navtiming"

    def test_unsupported_falls_back_to_classic(self, scenario, rng):
        client = scenario.factory.create(50.0, 8.6, name="navtiming-client2")
        landmark = next(lm for lm in scenario.atlas.anchors
                        if lm.host.listens_on_port_80)
        tool = NavigationTimingWebTool(scenario.network)  # nobody supports it
        sample = tool.measure(client, landmark, rng)
        assert sample.n_round_trips == 2  # classic two-round-trip behaviour

    def test_api_reduces_noise(self, scenario):
        """Per-measurement overhead via the API is below the classic
        browser path's."""
        client = scenario.factory.create(50.0, 8.6, name="navtiming-client3",
                                         os="windows")
        landmark = next(lm for lm in scenario.atlas.anchors
                        if not lm.host.listens_on_port_80)  # 1 RTT both ways
        api_tool = NavigationTimingWebTool(
            scenario.network, supporting_landmarks=[landmark.name])
        classic = WebTool(scenario.network)
        rng = np.random.default_rng(0)
        api_best = min(api_tool.measure(client, landmark, rng).rtt_ms
                       for _ in range(15))
        classic_best = min(classic.measure(client, landmark, rng).rtt_ms
                           for _ in range(15))
        assert api_best <= classic_best
