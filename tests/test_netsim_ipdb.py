"""Tests for the synthetic IP-to-location databases."""

import pytest

from repro.netsim import DEFAULT_DATABASES, IpToLocationDatabase, IpdbPanel


class TestPanel:
    def test_five_default_databases(self, scenario):
        assert len(scenario.ipdb.names()) == 5
        assert set(scenario.ipdb.names()) == {
            "DB-IP", "Eureka", "IP2Location", "IPInfo", "MaxMind"}

    def test_lookup_deterministic(self, scenario):
        server = scenario.all_servers()[0]
        truth = scenario.true_country_of(server) or server.claimed_country
        first = scenario.ipdb.lookup("MaxMind", server, truth)
        second = scenario.ipdb.lookup("MaxMind", server, truth)
        assert first == second

    def test_lookup_returns_known_country(self, scenario):
        for server in scenario.all_servers()[:50]:
            truth = scenario.true_country_of(server) or server.claimed_country
            for name in scenario.ipdb.names():
                assert scenario.ipdb.lookup(name, server, truth) \
                    in scenario.registry

    def test_unknown_database_raises(self, scenario):
        server = scenario.all_servers()[0]
        with pytest.raises(KeyError):
            scenario.ipdb.lookup("NoSuchDB", server, "DE")

    def test_true_claims_usually_confirmed(self, scenario):
        honest = [s for s in scenario.all_servers() if s.honest][:200]
        agreed = 0
        for server in honest:
            truth = scenario.true_country_of(server) or server.claimed_country
            if scenario.ipdb.agreement_with_claim("MaxMind", server,
                                                  server.claimed_country):
                agreed += 1
        assert agreed / len(honest) > 0.9

    def test_false_claims_often_echoed(self, scenario):
        """The paper's core suspicion: databases repeat provider claims."""
        fakes = [s for s in scenario.all_servers() if not s.honest][:200]
        for db_name in ("Eureka", "MaxMind"):
            echoed = sum(
                1 for s in fakes
                if scenario.ipdb.agreement_with_claim(
                    db_name, s, scenario.true_country_of(s) or "US"))
            assert echoed / len(fakes) > 0.7


class TestDatabaseValidation:
    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            IpToLocationDatabase("bad", susceptibility=1.5, registry_accuracy=0.5)
        with pytest.raises(ValueError):
            IpToLocationDatabase("bad", susceptibility=0.5, registry_accuracy=-0.1)

    def test_default_databases_valid(self):
        for database in DEFAULT_DATABASES:
            assert 0.0 <= database.susceptibility <= 1.0
            assert 0.0 <= database.registry_accuracy <= 1.0
