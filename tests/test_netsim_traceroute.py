"""Tests for traceroute simulation and the measurement-channel survey."""

import numpy as np
import pytest

from repro.netsim import (
    survey_measurement_channels,
    traceroute,
    traceroute_through_proxy,
)
from tests import claims


@pytest.fixture(scope="module")
def endpoints(scenario):
    a = scenario.factory.create(48.14, 11.58, name="tr-munich")
    b = scenario.factory.create(40.42, -3.70, name="tr-madrid")
    return a, b


class TestTraceroute:
    def test_hops_follow_the_route(self, scenario, endpoints):
        a, b = endpoints
        result = traceroute(scenario.network, a, b,
                            np.random.default_rng(0))
        path = scenario.network.route(a.router, b.router)
        assert len(result.hops) == len(path)
        for hop, router in zip(result.hops, path):
            if hop.responded:
                assert hop.router == router

    def test_rtts_increase_along_responding_hops(self, scenario, endpoints):
        a, b = endpoints
        result = traceroute(scenario.network, a, b,
                            np.random.default_rng(1))
        rtts = [hop.rtt_ms for hop in result.hops if hop.responded]
        assert len(rtts) >= 2
        # Allow small jitter inversions but demand overall growth.
        assert rtts[-1] > rtts[0]

    def test_some_hops_silent(self, scenario, endpoints):
        a, b = endpoints
        silent = 0
        for seed in range(10):
            result = traceroute(scenario.network, a, b,
                                np.random.default_rng(seed))
            silent += sum(not hop.responded for hop in result.hops)
        assert silent > 0


class TestThroughProxy:
    def test_blocking_proxy_yields_nothing(self, scenario, endpoints):
        blocking = next(s for s in scenario.all_servers()
                        if not s.allows_traceroute)
        result = traceroute_through_proxy(
            scenario.network, endpoints[0], blocking, endpoints[1])
        assert result.hops == []
        assert not result.reached_destination

    def test_silent_gateway_hides_first_hop(self, scenario, endpoints):
        proxy = next(s for s in scenario.all_servers()
                     if s.allows_traceroute and not s.gateway_responds)
        result = traceroute_through_proxy(
            scenario.network, endpoints[0], proxy, endpoints[1],
            np.random.default_rng(3))
        assert result.hops
        assert not result.hops[0].responded

    def test_visible_gateway_may_answer(self, scenario, endpoints):
        proxy = next(s for s in scenario.all_servers()
                     if s.allows_traceroute and s.gateway_responds)
        result = traceroute_through_proxy(
            scenario.network, endpoints[0], proxy, endpoints[1],
            np.random.default_rng(4))
        assert result.hops


class TestChannelSurvey:
    def test_matches_paper_percentages(self):
        # The survey of the whole fleet runs once, in its paper claim.
        stats = claims.get("ext_channels").result
        # Paper section 4.2: ~10% answer ICMP, ~10% of gateways visible,
        # ~2/3 traceroutable, and TCP port 80 always works.
        assert 0.05 <= stats["icmp_ping"] <= 0.2
        assert 0.05 <= stats["gateway_visible"] <= 0.2
        assert 0.5 <= stats["traceroute_through"] <= 0.8
        assert stats["tcp_port_80"] == 1.0

    def test_empty_fleet_rejected(self, scenario):
        with pytest.raises(ValueError):
            survey_measurement_channels(scenario.network, [], scenario.client)
