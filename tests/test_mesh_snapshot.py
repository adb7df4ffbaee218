"""The persisted substrate snapshot: exact, order-free, verified on load.

The mesh-ping archive holds one minimum one-way delay per unordered
landmark pair, and the bestline file one fit per landmark and family.
These tests pin the properties that make sharing them across processes
safe: the bulk-seeded sampler draws exactly what a per-pair generator
would, a value depends on the pair alone (never on which landmark was
calibrated first), a snapshot hit is byte-identical to a cold run, and
every damaged or stale file is recomputed and overwritten instead of
trusted.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atomicfile import sample_rows
from repro.core.calibrationset import FIT_VERIFY_LANDMARKS
from repro.experiments import run_audit
from repro.experiments.campaign import DeploymentPlan, run_campaign
from repro.experiments.scenario import (
    SMALL_ANCHOR_QUOTAS,
    SMALL_CROWD_QUOTAS,
    SMALL_PROBE_QUOTAS,
    build_scenario,
)
from repro.netsim.network import pcg64_states
from repro.service import VerdictService

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


def snapshot_files(directory, prefix="atlas-mesh"):
    return sorted(Path(directory).glob(f"{prefix}-*.npz"))


def fit_files(directory):
    return snapshot_files(directory, "bestlines")


@pytest.fixture()
def snapshots(tmp_path, monkeypatch):
    directory = tmp_path / "snapshots"
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(directory))
    return directory


HOST_IDS = st.integers(min_value=0, max_value=2**31 - 1)


class TestBulkSeeder:
    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(HOST_IDS, HOST_IDS), max_size=40),
           shared_low=HOST_IDS, highs=st.lists(HOST_IDS, max_size=12))
    def test_states_equal_per_pair_generators(self, pairs, shared_low,
                                              highs):
        """Random keys, id 0, a batch sharing one low id, repeated keys."""
        pairs = (pairs + [(0, 0), (0, 1), (1, 0)]
                 + [(shared_low, high) for high in highs] + pairs[:3])
        states = pcg64_states([low for low, _ in pairs],
                              [high for _, high in pairs])
        for (low, high), (state, inc) in zip(pairs, states):
            want = np.random.PCG64((low, high)).state["state"]
            assert (state, inc) == (want["state"], want["inc"])

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_sampler_equals_per_pair_generators(self, snapshots, n):
        """Every sample count, so a spike's replayed draw can be the
        minimum (at n = 8 it almost never is)."""
        world = tiny_world()
        network = world.network
        hosts = sorted((lm.host for lm in world.atlas.all_landmarks()),
                       key=lambda host: host.host_id)
        lower, higher = zip(*[(a, b) for i, a in enumerate(hosts)
                              for b in hosts[i + 1:]])
        batch = network.min_rtt_pairs_ms(lower, higher, n)
        scalar = [network.min_rtt_ms(a, b, n, np.random.default_rng(
            (a.host_id, b.host_id))) for a, b in zip(lower, higher)]
        assert batch.tolist() == scalar

    def test_empty_batch_and_out_of_range_ids(self):
        assert pcg64_states([], []) == []
        with pytest.raises(ValueError, match="2\\*\\*32"):
            pcg64_states([-1], [3])
        with pytest.raises(ValueError, match="2\\*\\*32"):
            pcg64_states([3], [2**32])


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
        assert cold_world.calibrations.bestlines_loaded == 0
        assert cold_world.calibrations.bestlines_fitted > 0
        [path] = snapshot_files(snapshots)
        [fits] = fit_files(snapshots)
        written = (path.stat().st_mtime_ns, fits.stat().st_mtime_ns)

        warm_world = small_world(seed=4)
        warm = run_audit(warm_world, max_servers=60, seed=0)
        assert warm_world.atlas.mesh_loaded == cold_world.atlas.mesh_computed
        assert warm_world.atlas.mesh_computed == 0
        assert warm_world.calibrations.bestlines_loaded == \
            cold_world.calibrations.bestlines_fitted
        assert warm_world.calibrations.bestlines_fitted <= \
            FIT_VERIFY_LANDMARKS
        assert record_digest(warm) == record_digest(cold)
        # Nothing grew, so nothing was rewritten.
        assert (path.stat().st_mtime_ns, fits.stat().st_mtime_ns) == written

    def test_parallel_cold_audit_persists_the_snapshot(self, tmp_path,
                                                       monkeypatch,
                                                       snapshots):
        """Forked workers compute nothing the parent's save would miss."""
        parallel = run_audit(small_world(seed=4), max_servers=40, seed=0,
                             workers=2)
        assert snapshot_files(snapshots) and fit_files(snapshots)

        warm_world = small_world(seed=4)
        warm = run_audit(warm_world, max_servers=40, seed=0)
        assert warm_world.atlas.mesh_computed == 0
        assert warm_world.calibrations.bestlines_loaded > 0
        assert warm_world.calibrations.bestlines_fitted <= \
            FIT_VERIFY_LANDMARKS

        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path / "cold"))
        cold = run_audit(small_world(seed=4), max_servers=40, seed=0)
        assert record_digest(parallel) == record_digest(cold)
        assert record_digest(warm) == record_digest(cold)

    def test_parallel_service_persists_the_snapshot(self, snapshots):
        """``repro serve --warm --workers 2``: the parent fits every
        landmark in its set-up, so its save misses nothing."""
        def warm_service(workers):
            world = small_world(seed=4)
            service = VerdictService(world, seed=0, workers=workers,
                                     batch_max=8)
            responses = service.verdict_batch(
                [(server, None) for server in world.all_servers()[:24]])
            world.atlas.save_mesh_archive()
            world.calibrations.save_bestlines()
            return world, [response.canonical_json()
                           for response in responses]

        _, parallel = warm_service(workers=2)
        assert snapshot_files(snapshots) and fit_files(snapshots)
        world, serial = warm_service(workers=1)
        assert world.atlas.mesh_computed == 0
        assert world.calibrations.bestlines_loaded > 0
        assert world.calibrations.bestlines_fitted <= FIT_VERIFY_LANDMARKS
        assert serial == parallel

    def test_two_shard_campaign_as_processes_matches_cold(
            self, tmp_path, snapshots, cold_slice_report):
        """Serial shards, as operators run them: shard 1 adopts the part
        of the snapshot shard 0 saved, computes and fits the landmarks
        only its panels request, and saves the union."""
        run = two_shard_campaign(tmp_path, snapshots)
        assert run.report == cold_slice_report
        (loaded0, computed0), (adopted0, fitted0) = run.counts[0]
        assert loaded0 == 0 and computed0 > 0
        assert adopted0 == 0 and fitted0 == len(run.fits[0]) > 0
        (loaded1, computed1), (adopted1, fitted1) = run.counts[1]
        assert loaded1 == len(run.pairs[0]) >= computed0
        assert adopted1 == fitted0
        # The re-saved files hold both shards' work, shard 0's unchanged.
        assert run.fits[0].items() <= run.fits[1].items()
        new = len(run.fits[1]) - len(run.fits[0])
        assert new > 0
        assert new < fitted1 <= FIT_VERIFY_LANDMARKS + new
        assert computed1 > 0
        assert run.pairs[0].items() <= run.pairs[1].items()
        assert len(run.pairs[1]) == loaded1 + computed1

    def test_parallel_shard_leaves_only_the_verify_sample(
            self, tmp_path, snapshots, cold_slice_report):
        """Shard 0's parent fits every landmark before it forks, so
        shard 1 finds every pair and bestline it needs."""
        run = two_shard_campaign(tmp_path, snapshots, "--workers", "2")
        assert run.report == cold_slice_report
        (loaded0, computed0), (adopted0, fitted0) = run.counts[0]
        assert loaded0 == 0 and computed0 > 0
        assert adopted0 == 0 and fitted0 == len(run.fits[0]) > 0
        (loaded1, computed1), (adopted1, fitted1) = run.counts[1]
        assert (loaded1, computed1) == (computed0, 0)
        assert adopted1 == fitted0 and fitted1 <= FIT_VERIFY_LANDMARKS
        assert run.fits[1] == run.fits[0] and run.pairs[1] == run.pairs[0]


#: The campaign slice the cross-process round trips run, at ``--seed 6``.
SLICE = DeploymentPlan(name="snapshot-slice", max_servers=24)


@pytest.fixture(scope="module")
def cold_slice_report(tmp_path_factory):
    """The slice's report from an in-process campaign, cold."""
    directory = tmp_path_factory.mktemp("cold-slice")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SNAPSHOT_DIR", str(directory / "snapshots"))
        reference = run_campaign(small_world(seed=6), SLICE, shards=2,
                                 seed=6, journal_dir=str(directory / "run"))
    return reference.report.to_json() + "\n"


class TwoShardRun(NamedTuple):
    #: Per shard, the CLI's ``(mesh archive, bestlines)`` count pairs.
    counts: List[Tuple[Tuple[int, int], Tuple[int, int]]]
    #: After each shard, the saved archive's pairs and the saved fits.
    pairs: List[Dict[int, float]]
    fits: List[Dict[Tuple[int, bool], Tuple[float, float, int]]]
    report: str


def two_shard_campaign(tmp_path, snapshots, *shard0_args):
    """Shard 0 (with ``shard0_args``), shard 1 and the merge of
    :data:`SLICE`, each its own ``repro campaign`` process over one
    snapshot directory."""
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(SLICE.to_json(), encoding="utf-8")
    journals = tmp_path / "journals"
    journals.mkdir()
    report_path = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_SNAPSHOT_DIR=str(snapshots))

    def counts(stderr, prefix):
        [line] = [line for line in stderr.splitlines()
                  if line.startswith(prefix)]
        loaded, computed = (int(word) for word in line.split()
                            if word.isdigit())
        return loaded, computed

    def cli(*args):
        done = subprocess.run(
            [sys.executable, "-m", "repro", "--seed", "6", "campaign",
             "--plan", str(plan_path), "--shards", "2",
             "--journal-dir", str(journals), *args],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return (counts(done.stderr, "mesh archive:"),
                counts(done.stderr, "bestlines:"))

    def saved():
        [mesh] = snapshot_files(snapshots)
        [fits] = fit_files(snapshots)
        with np.load(mesh, allow_pickle=False) as stored:
            pairs = dict(zip(stored["pairs"].tolist(),
                             stored["delays"].tolist()))
        with np.load(fits, allow_pickle=False) as stored:
            rows = zip(*(stored[name].tolist() for name in (
                "hosts", "slowline", "slopes", "intercepts", "n_points")))
        return pairs, {(host, slowline): tuple(fit)
                       for host, slowline, *fit in rows}

    run = TwoShardRun(counts=[], pairs=[], fits=[], report="")
    for args in (("--shard-index", "0", *shard0_args),
                 ("--shard-index", "1")):
        run.counts.append(cli(*args))
        pairs, fits = saved()
        run.pairs.append(pairs)
        run.fits.append(fits)
    cli("--merge", "--report", str(report_path))
    return run._replace(report=report_path.read_text(encoding="utf-8"))


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


def checksum(*columns):
    return np.frombuffer(hashlib.sha256(
        b"".join(column.tobytes() for column in columns)).digest(), np.uint8)


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


@pytest.fixture(scope="module")
def pristine_fits(tmp_path_factory):
    """A tiny world's archive and CBG++ fits for twelve landmarks, saved."""
    directory = tmp_path_factory.mktemp("pristine-fits")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SNAPSHOT_DIR", str(directory))
        world = tiny_world()
        fits = calibrate(world, world.atlas.all_landmarks()[:12])
        mesh = Path(world.atlas.save_mesh_archive())
        path = Path(world.calibrations.save_bestlines())
    return mesh, mesh.read_bytes(), path, path.read_bytes(), fits


def fit_one_ulp_off(path):
    """Validly keyed and checksummed, but one fit the verify sample
    reads is one ulp off: only refitting it can catch it."""
    with np.load(path, allow_pickle=False) as stored:
        columns = {name: stored[name] for name in stored.files
                   if name not in ("key", "checksum")}
    at = sample_rows(columns["hosts"], FIT_VERIFY_LANDMARKS)[0]
    columns["slopes"][at] = np.nextafter(columns["slopes"][at], np.inf)
    rewrite(path, **columns, checksum=checksum(
        *(columns[name] for name in ("hosts", "slowline", "slopes",
                                     "intercepts", "n_points"))))


def fits_under_another_anchor_order(path):
    """The fits of a world whose anchors are listed in another order,
    under this world's file name."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SNAPSHOT_DIR", str(path.parent / "reversed"))
        world = tiny_world()
        landmarks = world.atlas.all_landmarks()[:12]
        world.atlas.anchors.reverse()
        calibrate(world, landmarks)
        saved = Path(world.calibrations.save_bestlines())
    assert saved.name != path.name
    path.write_bytes(saved.read_bytes())


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

    @pytest.mark.parametrize("damage", [fit_one_ulp_off,
                                        fits_under_another_anchor_order])
    def test_damaged_fits_are_refit_and_overwritten(self, tmp_path,
                                                     monkeypatch,
                                                     pristine_fits, damage):
        mesh, mesh_bytes, source, fits_bytes, fits = pristine_fits
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        (tmp_path / mesh.name).write_bytes(mesh_bytes)
        path = tmp_path / source.name
        path.write_bytes(fits_bytes)
        damage(path)

        world = tiny_world()
        assert calibrate(world, world.atlas.all_landmarks()[:12]) == fits
        assert world.atlas.mesh_computed == 0
        assert world.calibrations.bestlines_loaded == 0
        assert world.calibrations.save_bestlines() == str(path)
        with np.load(path, allow_pickle=False) as stored, \
                np.load(source, allow_pickle=False) as want:
            assert stored.files == want.files
            for name in want.files:
                assert np.array_equal(stored[name], want[name])
        assert [p.name for p in fit_files(tmp_path)] == [source.name]

    def test_pristine_fits_are_a_hit(self, tmp_path, monkeypatch,
                                     pristine_fits):
        mesh, mesh_bytes, source, fits_bytes, fits = pristine_fits
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        (tmp_path / mesh.name).write_bytes(mesh_bytes)
        (tmp_path / source.name).write_bytes(fits_bytes)
        world = tiny_world()
        assert calibrate(world, world.atlas.all_landmarks()[:12]) == fits
        assert world.calibrations.bestlines_loaded == len(fits)
        assert 0 < world.calibrations.bestlines_fitted <= \
            FIT_VERIFY_LANDMARKS
        assert world.calibrations.save_bestlines() is None  # nothing new

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
