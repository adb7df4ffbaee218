"""Kernel identity: the audit's measurement kernel vs the per-server oracle.

The kernel (``repro.experiments.audit.measure_chunk``) batches each
chunk's multilateration into one vectorised bank sweep, but every record
a ``run_audit`` emits must be *byte-identical* to the one-server-at-a-
time pipeline kept as ``tests.oracles.perserver_audit`` — under fault
injection, any worker count, and checkpoint/resume.  Also covers the
``predict_fleet`` front ends directly with a ragged-fleet property test
(one-server fleets, uneven panel sizes, duplicate landmarks) and the
degraded/blackout fallbacks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cbgpp import CBGPlusPlus
from repro.core.fleetpanel import build_fleet_panel
from repro.core.observations import RttObservation
from repro.core.octant import QuasiOctant
from repro.experiments import run_audit
from tests.oracles import perserver_audit

N_SERVERS = 60


def record_signature(result):
    """Everything that must be bit-identical across equivalent runs."""
    return [(record.server.host.host_id,
             record.region.packed_bytes(),
             record.assessment.verdict,
             record.assessment.continent_verdict,
             record.assessment.resolved_country,
             tuple((obs.landmark_name, obs.lat, obs.lon, obs.one_way_ms)
                   for obs in record.observations),
             tuple(record.landmark_names),
             record.degraded,
             tuple(record.failure_notes))
            for record in result.records]


@pytest.fixture(scope="module")
def perserver_lossy(scenario):
    """The per-server reference for the fault-injected 60-server audit."""
    return perserver_audit(scenario, max_servers=N_SERVERS, seed=0,
                           fault_profile="lossy-wan")


class TestFleetVsPerServer:
    @pytest.mark.parametrize("profile", [None, "lossy-wan"])
    def test_serial_records_byte_identical(self, scenario, perserver_lossy,
                                           profile):
        """On the shared default world, clean and under faults."""
        reference = (perserver_lossy if profile else perserver_audit(
            scenario, max_servers=N_SERVERS, seed=0))
        fleet = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                          fault_profile=profile)
        assert len(reference.records) == N_SERVERS
        assert record_signature(fleet) == record_signature(reference)
        assert fleet.eta == reference.eta
        assert fleet.verdict_counts() == reference.verdict_counts()
        assert fleet.reclassified == reference.reclassified

    def test_parallel_fleet_matches_too(self, scenario, perserver_lossy):
        fleet = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                          fault_profile="lossy-wan", workers=3)
        assert record_signature(fleet) == record_signature(perserver_lossy)

    def test_checkpointed_and_resumed_fleet_matches(self, scenario, tmp_path,
                                                    perserver_lossy):
        """Kill a checkpointed audit mid-journal (torn last line), resume
        it, and require byte-identity with the per-server run."""
        path = str(tmp_path / "audit.ckpt")
        run_audit(scenario, max_servers=N_SERVERS, seed=0,
                  fault_profile="lossy-wan", checkpoint_path=path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1 + N_SERVERS
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:9]) + "\n")
            handle.write(lines[9][:25])  # torn mid-write
        resumed = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                            fault_profile="lossy-wan", checkpoint_path=path,
                            resume=True)
        assert record_signature(resumed) == record_signature(perserver_lossy)
        with open(path, "r", encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 1 + N_SERVERS

    def test_degraded_servers_take_identical_fallbacks(self, scenario):
        """flaky-vpn drops tunnels and landmarks: kernel and oracle must
        agree record for record, including the degraded fallbacks."""
        fleet = run_audit(scenario, max_servers=24, seed=0,
                          fault_profile="flaky-vpn")
        reference = perserver_audit(scenario, max_servers=24, seed=0,
                                    fault_profile="flaky-vpn")
        assert record_signature(fleet) == record_signature(reference)

    def test_blackout_all_servers_degraded_identically(self, scenario):
        """Every probe lost (all landmarks effectively quarantined): the
        kernel must route every server through the degraded path and
        still match the per-server oracle byte for byte."""
        fleet = run_audit(scenario, max_servers=6, seed=0,
                          fault_profile="blackout")
        reference = perserver_audit(scenario, max_servers=6, seed=0,
                                    fault_profile="blackout")
        assert fleet.degraded_count == len(fleet.records) == 6
        assert record_signature(fleet) == record_signature(reference)

    def test_fleet_records_stay_packed_native(self, scenario):
        """The memory win is real only if the audit path stays word-level:
        assessment, disambiguation, and reporting must not force the lazy
        boolean view of any record region."""
        result = run_audit(scenario, max_servers=12, seed=0)
        assert not any(r.region.has_bool_view for r in result.records)


def _predictions_match(fleet_prediction, scalar_prediction):
    assert (fleet_prediction.region.packed_bytes()
            == scalar_prediction.region.packed_bytes())
    assert (fleet_prediction.used_landmarks
            == scalar_prediction.used_landmarks)
    assert (fleet_prediction.discarded_landmarks
            == scalar_prediction.discarded_landmarks)
    assert fleet_prediction.algorithm == scalar_prediction.algorithm


class TestRaggedFleetProperty:
    """predict_fleet == [predict(panel) for panel in fleets], bitwise,
    for every ragged fleet shape hypothesis can produce."""

    @pytest.fixture(scope="class")
    def landmark_pool(self, scenario):
        return scenario.atlas.all_landmarks()

    def _fleet_from(self, landmark_pool, shape_seed, n_servers):
        rng = np.random.default_rng(shape_seed)
        fleets = []
        for _ in range(n_servers):
            size = int(rng.integers(3, 14))
            # Three distinct picks first: merge_min collapses duplicate
            # landmarks, and a panel that merges below 3 observations is
            # rejected by require_observations in scalar and fleet alike.
            base = rng.choice(len(landmark_pool), size=3, replace=False)
            extra = rng.choice(len(landmark_pool), size=size - 3,
                               replace=True)
            picks = np.concatenate([base, extra])
            panel = []
            for pick in picks:   # replace=True tail → duplicate landmarks
                landmark = landmark_pool[int(pick)]
                panel.append(RttObservation(
                    landmark_name=landmark.name,
                    lat=landmark.lat,
                    lon=landmark.lon,
                    one_way_ms=float(rng.uniform(0.5, 140.0))))
            fleets.append(panel)
        return fleets

    @given(shape_seed=st.integers(0, 10_000), n_servers=st.integers(1, 7))
    @settings(max_examples=25, deadline=None)
    def test_cbgpp_fleet_matches_scalar(self, scenario, landmark_pool,
                                        shape_seed, n_servers):
        algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
        fleets = self._fleet_from(landmark_pool, shape_seed, n_servers)
        for fleet_prediction, panel in zip(algorithm.predict_fleet(fleets),
                                           fleets):
            _predictions_match(fleet_prediction, algorithm.predict(panel))

    @given(shape_seed=st.integers(0, 10_000), n_servers=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_octant_fleet_matches_scalar(self, scenario, landmark_pool,
                                         shape_seed, n_servers):
        algorithm = QuasiOctant(scenario.calibrations, scenario.worldmap)
        fleets = self._fleet_from(landmark_pool, shape_seed, n_servers)
        for fleet_prediction, panel in zip(algorithm.predict_fleet(fleets),
                                           fleets):
            _predictions_match(fleet_prediction, algorithm.predict(panel))

    def test_single_server_fleet(self, scenario, landmark_pool):
        algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
        fleets = self._fleet_from(landmark_pool, shape_seed=5, n_servers=1)
        _predictions_match(algorithm.predict_fleet(fleets)[0],
                           algorithm.predict(fleets[0]))

    def test_empty_fleet_returns_empty(self, scenario):
        algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
        assert algorithm.predict_fleet([]) == []


class TestFleetPanelContract:
    def test_empty_fleet_rejected(self, scenario):
        with pytest.raises(ValueError, match="empty fleet"):
            build_fleet_panel(scenario.grid.bank, [])

    def test_observationless_server_rejected(self, scenario, monkeypatch):
        landmark = scenario.atlas.all_landmarks()[0]
        panel = [RttObservation(landmark_name=landmark.name,
                                lat=landmark.lat, lon=landmark.lon,
                                one_way_ms=10.0)]
        with pytest.raises(ValueError, match="per-server path"):
            build_fleet_panel(scenario.grid.bank, [panel, []])

    def test_padding_slots_are_inert(self, scenario):
        """A (1 landmark, k_max 3) ragged pair: the short server's padded
        slots must not constrain its intersection."""
        bank = scenario.grid.bank
        landmarks = scenario.atlas.all_landmarks()[:3]
        panels = [
            [RttObservation(landmark_name=lm.name, lat=lm.lat, lon=lm.lon,
                            one_way_ms=30.0) for lm in landmarks],
            [RttObservation(landmark_name=landmarks[0].name,
                            lat=landmarks[0].lat, lon=landmarks[0].lon,
                            one_way_ms=30.0)],
        ]
        panel = build_fleet_panel(bank, panels)
        radii = panel.pad_radii([
            np.full(3, 1500.0, dtype=np.float32),
            np.full(1, 1500.0, dtype=np.float32)])
        fleet = bank.disk_intersections_fleet(panel.rows, radii[None])[0]
        solo = bank.disk_intersections_fleet(
            bank.rows([landmarks[0].lat], [landmarks[0].lon])[None],
            np.full((1, 1), 1500.0, dtype=np.float32))[0, 0]
        assert np.array_equal(fleet[1], solo)
        # 1 disk covers more cells
        assert np.bitwise_count(fleet[1]).sum() > \
            np.bitwise_count(fleet[0]).sum()
