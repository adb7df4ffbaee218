"""The persisted mesh-ping archive: exact, order-free, verified on load.

The archive holds one minimum one-way delay per unordered landmark pair.
These tests pin the three properties that make sharing it across
processes safe: a value depends on the pair alone (never on which
landmark was calibrated first), a snapshot hit is byte-identical to a
cold run, and every damaged or stale file is recomputed and overwritten
instead of trusted.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import run_audit
from repro.experiments.campaign import DeploymentPlan, run_campaign
from repro.experiments.scenario import (
    SMALL_ANCHOR_QUOTAS,
    SMALL_CROWD_QUOTAS,
    SMALL_PROBE_QUOTAS,
    build_scenario,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def tiny_world(seed=3):
    """A fresh (never memoised) world small enough to rebuild per test."""
    return build_scenario(
        seed=seed, proxy_scale=0.1,
        anchor_quotas={"EU": 12, "NA": 6, "AS": 4},
        probe_quotas={"EU": 10, "NA": 6},
        crowd_quotas=SMALL_CROWD_QUOTAS)


def small_world(seed):
    """The world ``repro --seed <seed>`` builds (seed != 0)."""
    return build_scenario(seed=seed, proxy_scale=0.35,
                          anchor_quotas=SMALL_ANCHOR_QUOTAS,
                          probe_quotas=SMALL_PROBE_QUOTAS,
                          crowd_quotas=SMALL_CROWD_QUOTAS)


def calibrate(world, landmarks):
    """Each landmark's fitted CBG++ bestline, as (slope, intercept)."""
    fits = [world.calibrations.cbg(lm.name, apply_slowline=True).bestline
            for lm in landmarks]
    return [(line.slope, line.intercept) for line in fits]


def archive(world):
    return world.atlas._mesh_cache.arrays()


def snapshot_files(directory):
    return sorted(Path(directory).glob("atlas-mesh-*.npz"))


@pytest.fixture()
def snapshots(tmp_path, monkeypatch):
    directory = tmp_path / "snapshots"
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(directory))
    return directory


class TestDirectionIndependence:
    def test_calibration_order_does_not_change_the_archive(self, snapshots):
        forward, backward = tiny_world(), tiny_world()
        anchors_f, anchors_b = forward.atlas.anchors, backward.atlas.anchors
        calibrate(forward, anchors_f)
        calibrate(backward, anchors_b[::-1])
        for i, a in enumerate(anchors_f):
            for j in range(i + 1, len(anchors_f)):
                assert forward.atlas.min_one_way_ms(a, anchors_f[j]) == \
                    backward.atlas.min_one_way_ms(anchors_b[i], anchors_b[j])

    def test_batch_equals_scalar_sampler_both_ways(self, snapshots):
        world = tiny_world()
        atlas, network = world.atlas, world.network
        landmarks = atlas.all_landmarks()
        pairs = [(landmarks[i], landmarks[j]) for i in range(0, 30, 3)
                 for j in range(1, 30, 4) if i != j]
        values = atlas.ensure_mesh(pairs)
        for (a, b), value in zip(pairs, values):
            low, high = sorted((a.host, b.host), key=lambda h: h.host_id)
            scalar = network.min_rtt_ms(
                low, high, n=atlas.CALIBRATION_SAMPLES,
                rng=np.random.default_rng((low.host_id, high.host_id)))
            assert value == scalar / 2.0
        assert np.array_equal(atlas.ensure_mesh([(b, a) for a, b in pairs]),
                              values)

    def test_self_pair_rejected(self, snapshots):
        world = tiny_world()
        anchor = world.atlas.anchors[0]
        with pytest.raises(ValueError, match="itself"):
            world.atlas.ensure_mesh([(anchor, anchor)])


def record_digest(result):
    hasher = hashlib.sha256()
    for record in result.records:
        hasher.update(json.dumps([
            record.server.host.host_id, record.assessment.verdict.value,
            record.initial_verdict.value, record.landmark_names,
            [(o.landmark_name, o.one_way_ms) for o in record.observations],
            record.degraded, record.failure_notes]).encode())
        hasher.update(record.region.packed_bytes())
    return hasher.hexdigest()


class TestSnapshotHits:
    def test_audit_hit_is_byte_identical_to_cold(self, snapshots):
        cold_world = small_world(seed=4)
        cold = run_audit(cold_world, max_servers=60, seed=0)
        assert cold_world.atlas.mesh_loaded == 0
        assert cold_world.atlas.mesh_computed > 0
        [path] = snapshot_files(snapshots)
        written = path.stat().st_mtime_ns

        warm_world = small_world(seed=4)
        warm = run_audit(warm_world, max_servers=60, seed=0)
        assert warm_world.atlas.mesh_loaded == cold_world.atlas.mesh_computed
        assert warm_world.atlas.mesh_computed == 0
        assert record_digest(warm) == record_digest(cold)
        # Nothing grew, so nothing was rewritten.
        assert path.stat().st_mtime_ns == written

    def test_two_shard_campaign_as_processes_matches_cold(
            self, tmp_path, monkeypatch, snapshots):
        plan_path = tmp_path / "plan.json"
        plan = DeploymentPlan(name="snapshot-slice", max_servers=24)
        plan_path.write_text(plan.to_json(), encoding="utf-8")
        journals = tmp_path / "journals"
        journals.mkdir()
        report_path = tmp_path / "report.json"
        env = dict(os.environ, PYTHONPATH=SRC,
                   REPRO_SNAPSHOT_DIR=str(snapshots))

        def cli(*args):
            done = subprocess.run(
                [sys.executable, "-m", "repro", "--seed", "6", "campaign",
                 "--plan", str(plan_path), "--shards", "2",
                 "--journal-dir", str(journals), *args],
                env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            [line] = [line for line in done.stderr.splitlines()
                      if line.startswith("mesh archive:")]
            loaded, computed = (int(word) for word in line.split()
                                if word.isdigit())
            return loaded, computed

        loaded0, computed0 = cli("--shard-index", "0")
        assert loaded0 == 0 and computed0 > 0
        loaded1, _ = cli("--shard-index", "1")
        assert loaded1 >= computed0
        cli("--merge", "--report", str(report_path))

        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path / "cold"))
        reference = run_campaign(small_world(seed=6), plan, shards=2, seed=6,
                                 journal_dir=str(tmp_path / "reference"))
        assert reference.report.to_json() + "\n" == \
            report_path.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A tiny world's archive for its first twelve landmarks, saved."""
    directory = tmp_path_factory.mktemp("pristine")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SNAPSHOT_DIR", str(directory))
        world = tiny_world()
        fits = calibrate(world, world.atlas.all_landmarks()[:12])
        path = Path(world.atlas.save_mesh_archive())
    return path, path.read_bytes(), archive(world), fits


def rewrite(path, **arrays):
    with np.load(path, allow_pickle=False) as stored:
        fields = {name: stored[name] for name in stored.files}
    fields.update(arrays)
    with open(path, "wb") as stream:
        np.savez(stream, **fields)


def checksum(keys, delays):
    return np.frombuffer(
        hashlib.sha256(keys.tobytes() + delays.tobytes()).digest(), np.uint8)


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def flip_bit(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))


def wrong_shape(path):
    with np.load(path, allow_pickle=False) as stored:
        delays = stored["delays"][:-1]
    rewrite(path, delays=delays)


def wrong_digest(path):
    rewrite(path, key=np.zeros(32, dtype=np.uint8))


def failing_sample(path):
    """Internally consistent, correctly keyed, but every value is off by
    one ulp: only recomputing sampled pairs can catch it."""
    with np.load(path, allow_pickle=False) as stored:
        keys = stored["pairs"]
        delays = np.nextafter(stored["delays"], np.inf)
    rewrite(path, delays=delays, checksum=checksum(keys, delays))


def not_a_zip(path):
    path.write_bytes(b"definitely not an archive")


def bare_array(path):
    with open(path, "wb") as stream:
        np.save(stream, np.arange(4))


class TestDamagedSnapshots:
    @pytest.mark.parametrize("damage", [truncate, flip_bit, wrong_shape,
                                        wrong_digest, failing_sample,
                                        not_a_zip, bare_array])
    def test_recomputed_and_overwritten(self, tmp_path, monkeypatch,
                                        pristine, damage):
        source, pristine_bytes, pristine_archive, fits = pristine
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        path = tmp_path / source.name
        path.write_bytes(pristine_bytes)
        damage(path)

        world = tiny_world()
        assert calibrate(world, world.atlas.all_landmarks()[:12]) == fits
        assert world.atlas.mesh_loaded == 0
        assert world.atlas.mesh_computed == len(pristine_archive[0])
        for got, want in zip(archive(world), pristine_archive):
            assert np.array_equal(got, want)
        assert world.atlas.save_mesh_archive() == str(path)
        with np.load(path, allow_pickle=False) as stored:
            assert np.array_equal(stored["pairs"], pristine_archive[0])
            assert np.array_equal(stored["delays"], pristine_archive[1])
        assert [p.name for p in snapshot_files(tmp_path)] == [source.name]
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]

    def test_pristine_copy_is_a_hit(self, tmp_path, monkeypatch, pristine):
        source, pristine_bytes, pristine_archive, fits = pristine
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        (tmp_path / source.name).write_bytes(pristine_bytes)
        world = tiny_world()
        assert calibrate(world, world.atlas.all_landmarks()[:12]) == fits
        assert world.atlas.mesh_loaded == len(pristine_archive[0])
        assert world.atlas.mesh_computed == 0
        assert world.atlas.save_mesh_archive() is None   # did not grow

    def test_unwritable_directory_never_fails_the_audit(self, tmp_path,
                                                        monkeypatch):
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(blocker / "snapshots"))
        world = tiny_world()
        result = run_audit(world, max_servers=4, seed=0)
        assert len(result.records) == 4
        assert world.atlas.mesh_computed > 0
        assert world.atlas.save_mesh_archive() is None


class TestSnapshotDirectory:
    def test_default_follows_xdg_cache_home(self, tmp_path, monkeypatch):
        from repro import config
        monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert config.snapshot_dir() == str(tmp_path / "repro")
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        assert config.snapshot_dir() == str(
            tmp_path / "home" / ".cache" / "repro")
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path / "mine"))
        assert config.snapshot_dir() == str(tmp_path / "mine")
