"""Tests for the VPN provider fleet and proxied measurement."""

import numpy as np
import pytest

from repro.netsim import (
    PROVIDER_PROFILES,
    ProxiedClient,
    competitor_claim_counts,
)


class TestFleetStructure:
    def test_seven_providers(self, scenario):
        names = [p.name for p in scenario.providers]
        assert names == list("ABCDEFG")

    def test_claim_breadth_ordering(self, scenario):
        by_name = {p.name: p.n_claimed_countries for p in scenario.providers}
        assert by_name["A"] > by_name["B"] > by_name["C"] > by_name["G"]

    def test_every_claim_backed_by_a_server(self, scenario):
        for provider in scenario.providers:
            claimed_with_servers = {s.claimed_country for s in provider.servers}
            assert claimed_with_servers == set(provider.claimed_countries)

    def test_all_claims_are_known_countries(self, scenario):
        for provider in scenario.providers:
            for code in provider.claimed_countries:
                assert code in scenario.registry

    def test_servers_claiming_filter(self, scenario):
        provider = scenario.providers[0]
        code = provider.claimed_countries[0]
        for server in provider.servers_claiming(code):
            assert server.claimed_country == code

    def test_ips_unique(self, scenario):
        ips = [s.ip for s in scenario.all_servers()]
        assert len(ips) == len(set(ips))


class TestGroundTruth:
    def test_honest_servers_are_in_claimed_country(self, scenario):
        mismatches = 0
        honest = [s for s in scenario.all_servers() if s.honest]
        for server in honest:
            truth = scenario.true_country_of(server)
            if truth != server.claimed_country:
                mismatches += 1
        # Rasterisation of border cities can flip a handful.
        assert mismatches <= 0.05 * len(honest)

    def test_dishonest_servers_are_elsewhere(self, scenario):
        for server in scenario.all_servers():
            if server.honest:
                continue
            truth = scenario.true_country_of(server)
            assert truth != server.claimed_country

    def test_tier1_claims_mostly_honest(self, scenario):
        tier1 = {c.iso2 for c in scenario.registry.by_hosting_tier(1)}
        tier3 = {c.iso2 for c in scenario.registry.by_hosting_tier(3)}
        servers = scenario.all_servers()
        rate = lambda pool: (sum(1 for s in pool if s.honest) / len(pool))
        tier1_servers = [s for s in servers if s.claimed_country in tier1]
        tier3_servers = [s for s in servers if s.claimed_country in tier3]
        assert rate(tier1_servers) > 0.6
        assert rate(tier3_servers) < 0.3

    def test_fake_servers_concentrate_in_hosting_countries(self, scenario):
        fakes = [s for s in scenario.all_servers() if not s.honest]
        tier12 = {c.iso2 for c in scenario.registry if c.hosting_tier <= 2}
        located = [scenario.true_country_of(s) for s in fakes]
        in_hosting = sum(1 for code in located if code in tier12)
        assert in_hosting / len(fakes) > 0.9

    def test_provider_d_more_honest_than_b(self, scenario):
        by_name = {p.name: p for p in scenario.providers}
        rate = lambda p: (sum(1 for s in p.servers if s.honest)
                          / len(p.servers))
        assert rate(by_name["D"]) > rate(by_name["B"])


class TestNetworkMetadata:
    def test_same_site_shares_asn_and_prefix(self, scenario):
        by_site = {}
        for server in scenario.all_servers():
            key = (server.provider, server.datacenter_city_id)
            by_site.setdefault(key, []).append(server)
        for group in by_site.values():
            assert len({s.asn for s in group}) == 1
            assert len({s.prefix for s in group}) == 1

    def test_different_providers_never_share_prefixes(self, scenario):
        prefix_providers = {}
        for server in scenario.all_servers():
            prefix_providers.setdefault(server.prefix, set()).add(server.provider)
        for providers in prefix_providers.values():
            assert len(providers) == 1

    def test_ip_within_prefix(self, scenario):
        for server in scenario.all_servers()[:100]:
            network_part = server.prefix.rsplit(".", 1)[0]
            assert server.ip.startswith(network_part + ".")

    def test_ping_response_rate_about_ten_percent(self, scenario):
        servers = scenario.all_servers()
        rate = sum(1 for s in servers if s.responds_to_ping) / len(servers)
        assert 0.04 <= rate <= 0.2


class TestProxiedClient:
    def test_rtt_through_proxy_is_sum_of_legs(self, scenario):
        server = scenario.all_servers()[0]
        tunnel = ProxiedClient(scenario.network, scenario.client, server)
        rng = np.random.default_rng(0)
        landmark = scenario.atlas.anchors[0]
        through = min(tunnel.rtt_through_proxy_ms(landmark, rng)
                      for _ in range(20))
        floor = (scenario.network.base_rtt_ms(scenario.client, server.host)
                 + scenario.network.base_rtt_ms(server.host, landmark.host))
        assert through >= floor
        assert through < floor * 1.5 + 30

    def test_self_ping_about_twice_direct(self, scenario):
        server = next(s for s in scenario.all_servers() if s.responds_to_ping)
        tunnel = ProxiedClient(scenario.network, scenario.client, server)
        rng = np.random.default_rng(1)
        direct = min(scenario.network.rtt_sample_ms(scenario.client,
                                                    server.host, rng)
                     for _ in range(10))
        indirect = min(tunnel.self_ping_through_proxy_ms(rng) for _ in range(10))
        assert indirect == pytest.approx(2 * direct, rel=0.3)


class TestMarketModel:
    def test_competitor_counts_sorted_and_bounded(self):
        counts = competitor_claim_counts(n_providers=150)
        assert len(counts) == 150
        assert counts == sorted(counts, reverse=True)
        assert counts[0] <= 197
        assert counts[-1] >= 1

    def test_deterministic(self):
        assert competitor_claim_counts(seed=7) == competitor_claim_counts(seed=7)

    def test_profiles_cover_a_to_g(self):
        assert list(PROVIDER_PROFILES) == list("ABCDEFG")
