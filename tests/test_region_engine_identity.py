"""Reference identities that outlived the boolean region engine.

An audit and its reporting never force a region's boolean view, the
partition-based credible-set selection matches its argsort reference,
and the ``cached_audit`` hit/miss counters.  (Every packed
``Region``/``WorldMap`` query is pinned against its boolean formula in
``test_geo_region_packed.py``; audit records against the per-server
oracle in ``test_audit_engine_identity.py``.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import multilateration as ml
from repro.experiments import cached_audit, run_audit
from repro.experiments import audit as audit_module


class TestAuditIdentity:
    def test_packed_records_never_materialise_bool_masks(self, scenario):
        """The memory win is real only if the audit path stays word-level:
        assessment, disambiguation, and reporting must not force the lazy
        boolean view of any record region."""
        result = run_audit(scenario, max_servers=12, seed=0)
        assert len(result.records) == 12
        result.verdict_counts()
        result.verdict_counts(initial=True)
        result.category_counts()
        result.agreement_rate()
        result.agreement_rate(generous=False)
        result.ground_truth_accuracy()
        assert not any(r.region.has_bool_view for r in result.records)


class TestCredibleSetSelection:
    """The np.partition top-k in bayesian_region vs the argsort reference."""

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_random_masses_match(self, seed):
        rng = np.random.default_rng(seed)
        cell_mass = rng.random(4050)
        cell_mass[rng.random(4050) < 0.6] = 0.0
        total = float(cell_mass.sum())
        for mass in (0.5, 0.95, 1.0):
            assert np.array_equal(
                ml._credible_mask_topk(cell_mass, total, mass),
                ml._credible_mask_argsort(cell_mass, total, mass))

    def test_boundary_ties_match(self):
        """Tied masses straddling the cutoff must break identically
        (toward the lower cell index) in both selection paths."""
        cell_mass = np.zeros(500)
        cell_mass[10:60] = 0.5          # one big tie group at the cutoff
        cell_mass[200:210] = 1.0
        total = float(cell_mass.sum())
        for mass in (0.2, 0.5, 0.9, 1.0):
            assert np.array_equal(
                ml._credible_mask_topk(cell_mass, total, mass),
                ml._credible_mask_argsort(cell_mass, total, mass))

    def test_growth_loop_is_exercised(self, monkeypatch):
        """With a tiny initial k the cutoff misses the candidate prefix
        and the 4x growth loop must still land on the reference mask."""
        monkeypatch.setattr(ml, "_TOPK_INITIAL", 2)
        rng = np.random.default_rng(3)
        cell_mass = rng.random(300)
        total = float(cell_mass.sum())
        assert np.array_equal(
            ml._credible_mask_topk(cell_mass, total, 0.95),
            ml._credible_mask_argsort(cell_mass, total, 0.95))

    def test_all_equal_masses(self):
        cell_mass = np.full(130, 0.25)
        total = float(cell_mass.sum())
        for mass in (0.1, 0.77, 1.0):
            assert np.array_equal(
                ml._credible_mask_topk(cell_mass, total, mass),
                ml._credible_mask_argsort(cell_mass, total, mass))


class TestCachedAuditCounters:
    def test_hit_and_miss_counters(self, scenario):
        before = cached_audit.cache_info()
        first = cached_audit(scenario, max_servers=2, seed=771)
        after_miss = cached_audit.cache_info()
        assert after_miss.misses == before.misses + 1
        assert after_miss.hits == before.hits
        second = cached_audit(scenario, max_servers=2, seed=771)
        after_hit = cached_audit.cache_info()
        assert second is first
        assert after_hit.hits == before.hits + 1
        assert after_hit.misses == before.misses + 1
        assert 0 < after_hit.currsize <= after_hit.maxsize

    def test_cache_clear_resets_counters(self, scenario):
        # Snapshot and restore the module cache: other tests share the
        # session-scoped audit entry and must not pay for a recompute.
        saved_entries = audit_module._AUDIT_CACHE.items()
        saved_info = cached_audit.cache_info()
        try:
            cached_audit.cache_clear()
            info = cached_audit.cache_info()
            assert info == (0, 0, audit_module._AUDIT_CACHE_SLOTS, 0, 0)
        finally:
            for key, value in saved_entries:
                audit_module._AUDIT_CACHE.put(key, value)
            audit_module._AUDIT_CACHE._hits = saved_info.hits
            audit_module._AUDIT_CACHE._misses = saved_info.misses
            audit_module._AUDIT_CACHE._evictions = saved_info.evictions
