"""Tests for the opt-in runtime sanitizer (REPRO_SANITIZE=1).

Two contracts: the sanitizer must be *transparent* (a sanitized audit is
bit-identical to an unsanitized one — the checks consume no RNG and
change no results), and each assertion must actually *fire* when handed
deliberately corrupted state.
"""

import math

import numpy as np
import pytest

from repro import sanitize
from repro.core.assessment import ClaimAssessment, ContinentVerdict, Verdict
from repro.core.observations import RttObservation
from repro.experiments import run_audit
from repro.experiments.checkpoint import AuditCheckpoint, ServerPayload
from repro.geo import Grid
from repro.geo.bank import DistanceBank
from repro.geo.region import Region
from repro.netsim import build_cities, build_topology
from repro.netsim.pathengine import PathEngine
from repro.sanitize import SanitizerError


@pytest.fixture
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


@pytest.fixture
def grid():
    return Grid(resolution_deg=4.0)  # 4050 cells: 18 used bits + padding


# -- transparency -------------------------------------------------------------

class TestBitIdentity:
    def test_sanitized_audit_is_bit_identical(self, scenario, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = run_audit(scenario, max_servers=20, seed=0)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        checked = run_audit(scenario, max_servers=20, seed=0)

        assert len(plain.records) == len(checked.records) == 20
        for ours, theirs in zip(plain.records, checked.records):
            assert ours.server.hostname == theirs.server.hostname
            assert ours.region.packed_bytes() == theirs.region.packed_bytes()
            assert ours.assessment == theirs.assessment
            assert ours.observations == theirs.observations
            assert ours.landmark_names == theirs.landmark_names
            assert ours.degraded == theirs.degraded
            assert ours.failure_notes == theirs.failure_notes

    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize.enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize.enabled()


# -- packed-region padding ----------------------------------------------------

def _writable_full_region(grid):
    """A full Region owning writable words (Region.full shares a
    read-only cached buffer)."""
    return Region.from_words(grid, Region.full(grid).words.copy())


class TestRegionPadding:
    def test_dirty_padding_bits_fire(self, sanitized, grid):
        region = _writable_full_region(grid)
        other = Region.full(grid)
        assert region._words is not None
        # The last word's top byte lies wholly beyond n_cells: padding.
        region._words[-1] |= np.uint64(1) << np.uint64(63)
        with pytest.raises(SanitizerError, match="padding"):
            region.intersect(other)

    def test_clean_regions_pass(self, sanitized, grid):
        region = Region.full(grid)
        out = region.intersect(Region.full(grid))
        assert out.n_cells == grid.n_cells

    def test_corruption_ignored_when_disabled(self, monkeypatch, grid):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        region = _writable_full_region(grid)
        region._words[-1] |= np.uint64(1) << np.uint64(63)
        region.intersect(Region.full(grid))  # no boundary checks: no raise


# -- distance-bank finiteness -------------------------------------------------

class TestDistanceBank:
    def test_nan_field_fires(self, sanitized, grid):
        bank = DistanceBank(grid)
        bank.field(10.0, 20.0)          # fill the row
        bank._fields[0, 5] = np.nan     # corrupt the cached field
        with pytest.raises(SanitizerError, match="non-finite"):
            bank.field(10.0, 20.0)

    def test_negative_distance_fires(self, sanitized, grid):
        bank = DistanceBank(grid)
        bank.field_block([10.0, 11.0], [20.0, 21.0])
        bank._fields[1, 3] = -5.0
        with pytest.raises(SanitizerError, match="negative"):
            bank.field_block([10.0, 11.0], [20.0, 21.0])

    def test_clean_fields_pass(self, sanitized, grid):
        bank = DistanceBank(grid)
        block = bank.field_block([10.0, 11.0], [20.0, 21.0])
        assert np.isfinite(block).all()

    def test_mask_kernels_check_the_rows_they_read(self, sanitized, grid):
        bank = DistanceBank(grid)
        rows = bank.rows([10.0, 11.0], [20.0, 21.0])[None, :]
        radii = np.full(rows.shape, 1000.0, dtype=np.float32)
        bank.disk_intersections_fleet(rows, radii)
        bank.ring_votes_fleet(rows, radii / 2, radii)
        bank._fields[1, 7] = np.nan
        with pytest.raises(SanitizerError, match="disk_intersections_fleet"):
            bank.disk_intersections_fleet(rows, radii)
        bank._fields[1, 7] = -5.0
        with pytest.raises(SanitizerError, match="ring_votes_fleet"):
            bank.ring_votes_fleet(rows, radii / 2, radii)


# -- path-engine spot check ---------------------------------------------------

class TestPathEngineSpotCheck:
    def test_divergence_from_oracle_fires(self, sanitized, monkeypatch):
        topology = build_topology(build_cities(), seed=0)
        monkeypatch.setattr(
            PathEngine, "_nx_reference_row",
            lambda self, source: np.zeros(self.n_routers, dtype=np.float64))
        engine = PathEngine(topology)
        nodes = sorted(topology.graph.nodes)
        with pytest.raises(SanitizerError, match="networkx reference"):
            engine.warm(nodes[:4])

    def test_honest_engine_passes(self, sanitized):
        topology = build_topology(build_cities(), seed=0)
        engine = PathEngine(topology)
        nodes = sorted(topology.graph.nodes)
        engine.warm(nodes[:4])  # oracle cross-check runs, agrees
        assert engine.n_rows >= 4


# -- checkpoint round-trip ----------------------------------------------------

def _payload(one_way_ms=12.5):
    assessment = ClaimAssessment(
        claimed_country="DE",
        verdict=Verdict.CREDIBLE,
        continent_verdict=ContinentVerdict.CREDIBLE,
        countries_covered=["DE"],
        region_area_km2=1000.0,
    )
    observation = RttObservation("lm-0", 52.5, 13.4, one_way_ms)
    return ServerPayload(
        host_id=7, region_bytes=b"\xff\x00", deduced_continent="EU",
        used_landmarks=("lm-0",), requested_landmarks=("lm-0", "lm-1"),
        degraded=False, notes=(), observations=(observation,), index=0,
        assessment=assessment)


def _checkpoint(tmp_path):
    return AuditCheckpoint(
        str(tmp_path / "audit.jsonl"), audit_seed=0, profile=None,
        n_servers=1, n_cells=16, fleet_digest="abc")


class TestCheckpointRoundTrip:
    def test_nan_observation_fires_on_write(self, sanitized, tmp_path):
        checkpoint = _checkpoint(tmp_path)
        checkpoint.start()
        with pytest.raises(SanitizerError, match="round-trip"):
            checkpoint.append(_payload(one_way_ms=math.nan))

    def test_clean_payload_round_trips(self, sanitized, tmp_path):
        checkpoint = _checkpoint(tmp_path)
        checkpoint.start()
        checkpoint.append(_payload())
        assert len(_checkpoint(tmp_path).resume()) == 1
