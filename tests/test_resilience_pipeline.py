"""Property tests for the resilient measurement pipeline.

The three contract properties from the fault-injection design:

1. a fixed (seed, profile) reproduces its faults bit-for-bit;
2. serial, parallel, and resumed-from-checkpoint audits are record-for-
   record identical;
3. the null profile is byte-identical to the fault-free pipeline.
"""

import os

import numpy as np
import pytest

from repro.core import (
    PAPER_ETA,
    LandmarkHealthTracker,
    NoLandmarksAvailable,
    TwoPhaseDriver,
    TwoPhaseSelector,
    Verdict,
)
from repro.core import resilience
from repro.core.cbgpp import CBGPlusPlus
from repro.core.resilience import backoff_ms
from repro.experiments import AuditCheckpoint, CheckpointMismatch, run_audit
from repro.netsim import MeasurementFailed

N_SERVERS = 20


def record_signature(result):
    """Everything that must be bit-identical across equivalent runs."""
    return [(record.server.host.host_id,
             record.region.mask.tobytes(),
             record.assessment.verdict,
             record.assessment.continent_verdict,
             record.assessment.resolved_country,
             tuple((obs.landmark_name, obs.lat, obs.lon, obs.one_way_ms)
                   for obs in record.observations),
             tuple(record.landmark_names),
             record.degraded,
             tuple(record.failure_notes))
            for record in result.records]


class TestNullProfileIdentity:
    def test_none_profile_byte_identical_to_fault_free(self, scenario):
        plain = run_audit(scenario, max_servers=N_SERVERS, seed=0)
        null = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                         fault_profile="none")
        assert record_signature(null) == record_signature(plain)
        assert null.eta == plain.eta
        assert null.fault_profile is None


class TestFaultReproducibility:
    def test_lossy_wan_bit_reproducible(self, scenario):
        first = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                          fault_profile="lossy-wan")
        second = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                           fault_profile="lossy-wan")
        assert record_signature(first) == record_signature(second)
        assert first.fault_profile == "lossy-wan"

    def test_faults_actually_perturb(self, scenario):
        plain = run_audit(scenario, max_servers=N_SERVERS, seed=0)
        lossy = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                          fault_profile="lossy-wan")
        assert record_signature(lossy) != record_signature(plain)

    def test_different_seed_different_faults(self, scenario):
        a = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                      fault_profile="lossy-wan")
        b = run_audit(scenario, max_servers=N_SERVERS, seed=1,
                      fault_profile="lossy-wan")
        assert record_signature(a) != record_signature(b)


class TestParallelAndResumeIdentity:
    def test_parallel_identical_under_faults(self, scenario):
        serial = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                           fault_profile="lossy-wan")
        parallel = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                             fault_profile="lossy-wan", workers=3)
        assert record_signature(parallel) == record_signature(serial)

    def test_killed_audit_resumes_bit_identically(self, scenario, tmp_path):
        """Simulate a mid-audit kill: truncate the journal to a few
        completed servers plus a torn partial line, then resume with a
        different worker count."""
        path = str(tmp_path / "audit.ckpt")
        uninterrupted = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                                  fault_profile="lossy-wan",
                                  checkpoint_path=path, workers=2)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1 + N_SERVERS
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:7]) + "\n")
            handle.write(lines[7][:33])  # torn mid-write
        resumed = run_audit(scenario, max_servers=N_SERVERS, seed=0,
                            fault_profile="lossy-wan",
                            checkpoint_path=path, resume=True, workers=4)
        assert record_signature(resumed) == record_signature(uninterrupted)
        # The resumed run healed the journal back to complete.
        with open(path, "r", encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 1 + N_SERVERS

    def test_resume_serial_matches_too(self, scenario, tmp_path):
        path = str(tmp_path / "audit.ckpt")
        serial = run_audit(scenario, max_servers=12, seed=0,
                           fault_profile="lossy-wan")
        run_audit(scenario, max_servers=12, seed=0,
                  fault_profile="lossy-wan", checkpoint_path=path)
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:5]) + "\n")
        resumed = run_audit(scenario, max_servers=12, seed=0,
                            fault_profile="lossy-wan",
                            checkpoint_path=path, resume=True)
        assert record_signature(resumed) == record_signature(serial)

    def test_mismatched_checkpoint_rejected(self, scenario, tmp_path):
        path = str(tmp_path / "audit.ckpt")
        run_audit(scenario, max_servers=8, seed=0,
                  fault_profile="lossy-wan", checkpoint_path=path)
        with pytest.raises(CheckpointMismatch):
            run_audit(scenario, max_servers=8, seed=1,
                      fault_profile="lossy-wan",
                      checkpoint_path=path, resume=True)
        with pytest.raises(CheckpointMismatch):
            run_audit(scenario, max_servers=8, seed=0,
                      checkpoint_path=path, resume=True)


class TestLossyWanAcceptance:
    def test_lossy_audit_completes_and_stays_sound(self, scenario):
        """The acceptance bar: a lossy-wan audit finishes with a record
        for every server and keeps the paper's soundness property."""
        result = run_audit(scenario, max_servers=60, seed=0,
                           fault_profile="lossy-wan")
        assert len(result.records) == 60
        for record in result.records:
            assert record.assessment is not None
            assert record.region is not None
        accuracy = result.ground_truth_accuracy()
        assert accuracy["false_precision"] >= 0.9

    def test_blackout_degrades_every_record(self, scenario):
        result = run_audit(scenario, max_servers=8, seed=0,
                           fault_profile="blackout")
        assert len(result.records) == 8
        for record in result.records:
            assert record.degraded
            assert record.assessment.verdict is Verdict.UNLOCATABLE
            assert record.failure_notes
        assert result.eta.degraded
        assert result.eta.eta == PAPER_ETA


class TestResilienceComponents:
    def test_retry_policy_defaults(self):
        """The values every ProxyMeasurer retries and quarantines with."""
        assert (resilience.MAX_ATTEMPTS, resilience.BACKOFF_BASE_MS,
                resilience.BACKOFF_FACTOR, resilience.BACKOFF_JITTER,
                resilience.CAMPAIGN_BUDGET_MS) == (3, 200.0, 2.0, 0.25,
                                                   60_000.0)
        assert (resilience.LOSS_THRESHOLD, resilience.MIN_PROBES) == (0.5, 6)

    def test_retry_policy_backoff_grows(self):
        rng = np.random.default_rng(0)
        delays = [backoff_ms(k, rng) for k in (1, 2, 3)]
        # 200, 400 and 800 ms, each within the ±25% jitter, so the
        # bands never overlap.
        assert 150.0 <= delays[0] <= 250.0
        assert 300.0 <= delays[1] <= 500.0
        assert 600.0 <= delays[2] <= 1000.0
        with pytest.raises(ValueError):
            backoff_ms(0, rng)

    def test_retry_policy_jitter_bounded(self):
        rng = np.random.default_rng(0)
        delays = [backoff_ms(1, rng) for _ in range(200)]
        assert 150.0 <= min(delays) < max(delays) <= 250.0

    def test_health_tracker_quarantines(self):
        tracker = LandmarkHealthTracker()
        tracker.record("lm", probes=3, losses=3)
        assert not tracker.quarantined("lm")  # below MIN_PROBES
        tracker.record("lm", probes=3, losses=3)
        assert tracker.quarantined("lm")
        assert tracker.summary()["lm"]["quarantined"]

    def test_health_tracker_spares_healthy(self):
        tracker = LandmarkHealthTracker()
        tracker.record("lm", probes=10, losses=2)
        assert not tracker.quarantined("lm")
        tracker.record("half", probes=6, losses=3)  # not *more* than half
        assert not tracker.quarantined("half")

    def test_phase2_raises_no_landmarks(self, scenario):
        selector = TwoPhaseSelector(scenario.atlas, seed=0)
        with pytest.raises(NoLandmarksAvailable) as excinfo:
            selector.phase2_landmarks("AN")  # no Antarctic landmarks
        assert excinfo.value.continent == "AN"
        assert "AN" in str(excinfo.value)

    def test_driver_degrades_instead_of_raising(self, scenario):
        """A target whose every measurement is lost gets a degraded empty
        prediction, not an exception."""
        selector = TwoPhaseSelector(scenario.atlas, seed=0)
        algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
        driver = TwoPhaseDriver(selector, algorithm)
        result = driver.locate(lambda landmarks: [],
                               np.random.default_rng(0))
        assert result.degraded
        assert result.prediction.failed
        assert result.deduced_continent == "unknown"
        assert any("unlocatable" in note for note in result.notes)

    def test_tunnel_failure_is_typed(self, scenario):
        """A proxy whose tunnel never answers raises MeasurementFailed
        (which run_audit converts to a degraded record)."""
        from repro.core import ProxyMeasurer
        from repro.netsim import FAULT_PROFILES, FaultInjector

        server = scenario.all_servers()[0]
        injector = FaultInjector(FAULT_PROFILES["blackout"], seed=0)
        measurer = ProxyMeasurer(scenario.network, scenario.client, server,
                                 seed=server.host.host_id)
        with scenario.network.faults_installed(injector):
            with scenario.network.measurement_epoch_for(server.host):
                with pytest.raises(MeasurementFailed, match="unreachable"):
                    measurer.client_leg_ms(np.random.default_rng(0))
