"""Tests for the opt-in runtime sanitizer (REPRO_SANITIZE=1).

Two contracts: the sanitizer must be *transparent* (a sanitized audit is
bit-identical to an unsanitized one — the checks consume no RNG and
change no results), and each assertion must actually *fire* when handed
deliberately corrupted state.
"""

import hashlib
import math

import numpy as np
import pytest

from repro import sanitize
from repro.atomicfile import sample_rows
from repro.core.assessment import ClaimAssessment, ContinentVerdict, Verdict
from repro.core.calibrationset import FIT_VERIFY_LANDMARKS
from repro.core.observations import RttObservation
from repro.experiments import run_audit
from repro.experiments.checkpoint import AuditCheckpoint, ServerPayload
from repro.experiments.scenario import SMALL_CROWD_QUOTAS, build_scenario
from repro.geo import Grid
from repro.geo.bank import DistanceBank
from repro.geo.region import Region
from repro.netsim import build_cities, build_topology
from repro.netsim import network as network_module
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


# -- substrate snapshot: bulk-seeded mesh and persisted bestlines -------------

def _tiny_world():
    return build_scenario(
        seed=3, proxy_scale=0.1,
        anchor_quotas={"EU": 12, "NA": 6, "AS": 4},
        probe_quotas={"EU": 10, "NA": 6},
        crowd_quotas=SMALL_CROWD_QUOTAS)


class TestBulkSeededMesh:
    def test_wrong_seed_state_fires(self, sanitized, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        derive = network_module.pcg64_states
        monkeypatch.setattr(
            network_module, "pcg64_states",
            lambda low, high: [(state ^ 1, inc)
                               for state, inc in derive(low, high)])
        world = _tiny_world()
        with pytest.raises(SanitizerError, match="bulk-seeded"):
            world.calibrations.cbg(world.atlas.anchors[0].name)

    def test_honest_sampler_passes(self, sanitized, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        world = _tiny_world()
        assert world.calibrations.cbg(world.atlas.anchors[0].name)

    def test_loaded_archive_is_verified_on_more_pairs(self, monkeypatch,
                                                      tmp_path):
        from repro.netsim import atlas as atlas_module
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        world = _tiny_world()
        world.calibrations.cbg(world.atlas.anchors[0].name)
        world.atlas.save_mesh_archive()
        counts = []
        sample = atlas_module.sample_rows

        def spy(column, count):
            counts.append(count)
            return sample(column, count)

        monkeypatch.setattr(atlas_module, "sample_rows", spy)
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_SANITIZE", flag)
            reloaded = _tiny_world()
            reloaded.calibrations.cbg(reloaded.atlas.anchors[0].name)
            assert reloaded.atlas.mesh_loaded > 0
        assert counts == [16, 256]


class TestPersistedBestlines:
    def test_check_fits_are_not_counted_as_fitted(self, monkeypatch,
                                                   tmp_path):
        """Refitting adopted bestlines moves no counter: the CLI's
        ``bestlines: <n> loaded, <m> fitted`` reads the same armed."""
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        world = _tiny_world()
        names = [lm.name for lm in world.atlas.all_landmarks()[:12]]
        for name in names:
            world.calibrations.cbg(name, apply_slowline=True)
        world.atlas.save_mesh_archive()
        world.calibrations.save_bestlines()
        counts = []
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_SANITIZE", flag)
            reloaded = _tiny_world()
            for name in names:
                reloaded.calibrations.cbg(name, apply_slowline=True)
            counts.append((reloaded.calibrations.bestlines_loaded,
                           reloaded.calibrations.bestlines_fitted))
        (loaded, fitted), armed = counts
        assert armed == (loaded, fitted)
        assert loaded == len(names) and 0 < fitted <= FIT_VERIFY_LANDMARKS

    def test_fit_one_ulp_off_fires_on_first_use(self, monkeypatch,
                                                tmp_path):
        """A damaged fit outside the load's verify sample, under a valid
        checksum: plain runs adopt it, the sanitizer refits and fires."""
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        world = _tiny_world()
        landmarks = world.atlas.all_landmarks()[:12]
        for landmark in landmarks:
            world.calibrations.cbg(landmark.name, apply_slowline=True)
        world.atlas.save_mesh_archive()
        path = world.calibrations.save_bestlines()
        with np.load(path, allow_pickle=False) as stored:
            columns = {name: stored[name] for name in stored.files}
        hosts = columns["hosts"]
        [at, *_] = sorted(set(range(len(hosts)))
                          - set(sample_rows(hosts, FIT_VERIFY_LANDMARKS)))
        columns["slopes"][at] = np.nextafter(columns["slopes"][at], np.inf)
        columns["checksum"] = np.frombuffer(hashlib.sha256(b"".join(
            columns[name].tobytes() for name in (
                "hosts", "slowline", "slopes", "intercepts", "n_points"))
        ).digest(), np.uint8)
        with open(path, "wb") as stream:
            np.savez(stream, **columns)
        [damaged] = [lm.name for lm in landmarks
                     if lm.host.host_id == hosts[at]]

        plain = _tiny_world()
        model = plain.calibrations.cbg(damaged, apply_slowline=True)
        assert plain.calibrations.bestlines_loaded == len(hosts)
        assert model.bestline.slope == columns["slopes"][at]

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        checked = _tiny_world()
        with pytest.raises(SanitizerError, match="persisted bestline"):
            checked.calibrations.cbg(damaged, apply_slowline=True)
