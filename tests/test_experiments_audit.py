"""Tests for the audit pipeline and scenario plumbing."""

import pytest

from repro.core import Verdict
from repro.experiments import cached_audit, default_scenario, run_audit


class TestScenario:
    def test_default_scenario_memoised(self):
        assert default_scenario() is default_scenario()

    def test_components_wired(self, scenario):
        assert scenario.client.name == "client-frankfurt"
        assert scenario.worldmap.grid is scenario.grid
        assert scenario.calibrations.atlas is scenario.atlas
        assert len(scenario.providers) == 7

    def test_true_country_of(self, scenario):
        server = scenario.all_servers()[0]
        truth = scenario.true_country_of(server)
        assert truth in scenario.registry

    def test_all_servers_ordering(self, scenario):
        servers = scenario.all_servers()
        providers_seen = [s.provider for s in servers]
        # Provider blocks are contiguous (A's servers, then B's, ...).
        assert providers_seen == sorted(providers_seen, key="ABCDEFG".index)


class TestRunAudit:
    def test_records_one_per_server(self, scenario, audit):
        assert len(audit.records) == 150

    def test_eta_estimated(self, audit):
        assert 0.4 <= audit.eta.eta <= 0.6

    def test_initial_verdicts_preserved(self, audit):
        for record in audit.records:
            assert record.initial_verdict is not None
            if record.assessment.resolution_method is None:
                assert record.assessment.verdict == record.initial_verdict

    def test_observations_retained(self, audit):
        for record in audit.records[:10]:
            assert record.observations
            assert record.landmark_names

    def test_verdict_counts_sum(self, audit):
        counts = audit.verdict_counts()
        assert sum(counts.values()) == len(audit.records)

    def test_category_counts_sum(self, audit):
        assert sum(audit.category_counts().values()) == len(audit.records)

    def test_by_provider_partition(self, audit):
        grouped = audit.by_provider()
        assert sum(len(v) for v in grouped.values()) == len(audit.records)

    def test_agreement_rate_generous_geq_strict(self, audit):
        assert (audit.agreement_rate(generous=True)
                >= audit.agreement_rate(generous=False))

    def test_agreement_rate_unknown_provider(self, audit):
        with pytest.raises(ValueError):
            audit.agreement_rate("Z")

    def test_ground_truth_mostly_sound(self, audit):
        truth = audit.ground_truth_accuracy()
        assert truth["false_precision"] >= 0.9
        assert truth["credible_precision"] >= 0.85

    def test_disambiguation_can_be_disabled(self, scenario):
        result = run_audit(scenario, max_servers=20, seed=5,
                           disambiguate=False)
        assert result.reclassified["total"] == 0
        for record in result.records:
            assert record.assessment.resolution_method is None

    def test_cached_audit_identity(self, scenario):
        a = cached_audit(scenario, max_servers=150, seed=0)
        b = cached_audit(scenario, max_servers=150, seed=0)
        assert a is b

    def test_cached_audit_keys_by_object_not_address(self, scenario):
        # Two scenarios must never share a cache entry, even if one's
        # id() is recycled after garbage collection.  Tokens are handed
        # out per object and travel with it.
        from repro.experiments.audit import _scenario_token
        token = _scenario_token(scenario)
        assert _scenario_token(scenario) == token

        class Shim:
            pass

        other = Shim()
        assert _scenario_token(other) != token

    def test_cached_audit_eviction_bounded(self, scenario, monkeypatch):
        from repro.experiments import audit as audit_module
        calls = []
        monkeypatch.setattr(audit_module, "run_audit",
                            lambda s, max_servers=None, seed=0: calls.append(seed))
        monkeypatch.setattr(audit_module, "_AUDIT_CACHE", type(
            audit_module._AUDIT_CACHE)(
                maxsize=audit_module._AUDIT_CACHE_SLOTS))
        for seed in range(audit_module._AUDIT_CACHE_SLOTS + 3):
            audit_module.cached_audit(scenario, max_servers=1, seed=seed)
        assert len(audit_module._AUDIT_CACHE) <= audit_module._AUDIT_CACHE_SLOTS
        # Oldest entries were evicted; a re-request recomputes.
        before = len(calls)
        audit_module.cached_audit(scenario, max_servers=1, seed=0)
        assert len(calls) == before + 1

    def test_false_claims_exist_and_dominate_tier3(self, scenario, audit):
        tier3 = {c.iso2 for c in scenario.registry.by_hosting_tier(3)}
        tier3_records = [r for r in audit.records
                         if r.server.claimed_country in tier3]
        if not tier3_records:
            pytest.skip("no tier-3 claims in the audited slice")
        false_rate = (sum(1 for r in tier3_records if r.assessment.is_false)
                      / len(tier3_records))
        assert false_rate > 0.5


class TestWarmSelectionAndEta:
    def test_truncated_audit_warms_only_audited_servers(self):
        """A quick truncated run must not pay a full-fleet Dijkstra for
        servers it never measures (the warm-selection regression)."""
        # A seed no other test uses: default_scenario memoises, and the
        # shared instance is already warm from the session audit.
        fresh = default_scenario(seed=97)
        engine = fresh.network.engine
        run_audit(fresh, max_servers=4, seed=0)
        audited = fresh.all_servers()[:4]
        landmark_routers = {lm.host.router
                            for lm in fresh.atlas.all_landmarks()}
        needed = ({fresh.client.router}
                  | landmark_routers
                  | {server.host.router for server in audited})
        unaudited = [server.host.router for server in fresh.all_servers()[4:]
                     if server.host.router not in needed]
        assert unaudited, "fleet too small to observe truncation"
        warmed = set(engine._rows)
        assert needed <= warmed
        assert not (warmed & set(unaudited))

    def test_repeated_audit_does_not_recompute_warm_rows(self, scenario):
        """Warming the same fleet twice must be a no-op, not a second
        multi-source Dijkstra (the warm 60-server bench regression)."""
        engine = scenario.network.engine
        run_audit(scenario, max_servers=10, seed=0)
        calls = []
        original = engine._compute_rows
        engine._compute_rows = lambda sources: (
            calls.append(list(sources)) or original(sources))
        try:
            run_audit(scenario, max_servers=10, seed=0)
        finally:
            engine._compute_rows = original
        assert calls == []

    def test_eta_independent_of_truncation(self, scenario):
        """η is a campaign-level calibration fitted on the whole fleet:
        truncated quick runs must report the exact η of a full audit."""
        short = run_audit(scenario, max_servers=3, seed=0)
        longer = run_audit(scenario, max_servers=30, seed=0)
        assert short.eta == longer.eta

    def test_server_cap_counts_from_the_front(self, scenario):
        """``max_servers`` is a count: 0 audits nothing, and a negative
        cap is an error rather than a slice from the end."""
        assert run_audit(scenario, max_servers=0, seed=0).records == []
        with pytest.raises(ValueError, match="max_servers"):
            run_audit(scenario, max_servers=-5, seed=0)
