"""Performance benchmarks of the batched shortest-path engine.

The acceptance bar for the path-engine optimisation is a >= 4x cold
speedup over the per-source pure-Python networkx oracle
(``tests.oracles.NetworkxPathEngine``, swapped into a ``Network``
through its ``engine`` attribute) **on the workload the engine
replaces**: resolving the fleet-wide base-RTT floor
matrix (every landmark, server, and client source against every host)
from a cold cache.  ``test_perf_cold_fleet_floors_speedup`` times both
engines on that workload *in the same run* — no stored baselines, so a
noisy shared CPU slows both sides equally — and asserts the ratio.

End to end, the shortest-path oracle is one of several costs (RNG noise
draws, the distance bank, and assessment are engine-independent), so the
full cold ``default_scenario()`` + audit pipeline cannot speed up by the
oracle's full factor.  ``test_perf_cold_pipeline_engines`` holds the
honest contract there: the CSR engine is never slower than the networkx
oracle (modest tolerance for timer noise), produces the same record
bytes, and the whole cold pipeline stays within a generous absolute
budget so a pathological regression still fails loudly.  Each side gets
its own fresh, unmemoised scenario build.  It is the one place the
cold pipeline runs on both engines.
"""

import hashlib

import numpy as np

from benchmarks.timing import min_call_s
from repro.experiments import run_audit
from repro.experiments.scenario import (SMALL_ANCHOR_QUOTAS,
                                        SMALL_CROWD_QUOTAS,
                                        SMALL_PROBE_QUOTAS, build_scenario)
from repro.netsim.network import Network
from tests.oracles import NetworkxPathEngine
from tests.perf_baseline import COLD_FLEET_FLOORS_S, TIME_TRIPWIRE

#: The optimisation acceptance bar on the oracle workload (cold
#: fleet-wide base-RTT floors, CSR vs networkx, same run).
REQUIRED_ORACLE_SPEEDUP = 4.0

#: Generous absolute ceiling on one cold scenario build plus a 60-server
#: audit slice; only a pathological regression (or a broken engine
#: falling back to quadratic work) can breach it.
COLD_PIPELINE_BUDGET_S = 60.0


def _network(topology, mode):
    """A fresh network on the CSR engine, or on the networkx oracle."""
    network = Network(topology, seed=0)
    if mode == "networkx":
        network.engine = NetworkxPathEngine(topology)
    return network


def _fleet(scenario):
    """(sources, targets) of the fleet-wide base-RTT floor workload."""
    sources = ([scenario.client]
               + [lm.host for lm in scenario.atlas.all_landmarks()]
               + [server.host for server in scenario.all_servers()])
    return sources, list(scenario.factory.hosts)


def _cold_floors(topology, sources, targets, mode):
    """The full fleet floor matrix from a cold cache in one engine mode."""
    network = _network(topology, mode)
    network.warm_paths(sources + targets)
    return np.vstack([network.base_rtt_matrix(source, targets)
                      for source in sources])


def test_perf_cold_fleet_floors_speedup(scenario):
    sources, targets = _fleet(scenario)
    topology = scenario.network.topology

    oracle_best, oracle_floors = min_call_s(
        lambda: _cold_floors(topology, sources, targets, "networkx"),
        rounds=2)
    engine_best, engine_floors = min_call_s(
        lambda: _cold_floors(topology, sources, targets, "csr"), rounds=3)

    # Same floats, not merely close: the engines must be interchangeable.
    assert np.array_equal(engine_floors, oracle_floors)

    speedup = oracle_best / engine_best
    assert engine_best < TIME_TRIPWIRE * COLD_FLEET_FLOORS_S
    assert speedup >= REQUIRED_ORACLE_SPEEDUP, (
        f"cold fleet floors: csr {engine_best:.3f}s vs networkx "
        f"{oracle_best:.3f}s is only {speedup:.2f}x; the engine must be "
        f">= {REQUIRED_ORACLE_SPEEDUP:.0f}x faster than the oracle")


def _cold_pipeline(mode, snapshot_dir, monkeypatch):
    """One cold scenario build plus a 60-server audit slice.

    Cold means cold all the way down: a fresh ``default_scenario()``-
    sized build (no memoised scenario), and an empty substrate snapshot
    directory, so no mesh-ping archive from an earlier run can be
    loaded.  Building computes no routed delay, so swapping the engine
    in right after the build routes every delay through it.
    """
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(snapshot_dir))

    def build_and_audit():
        scenario = build_scenario(
            seed=0, proxy_scale=0.35, anchor_quotas=SMALL_ANCHOR_QUOTAS,
            probe_quotas=SMALL_PROBE_QUOTAS, crowd_quotas=SMALL_CROWD_QUOTAS)
        if mode == "networkx":
            scenario.network.engine = NetworkxPathEngine(scenario.topology)
        return run_audit(scenario, max_servers=60, seed=0)

    return min_call_s(build_and_audit, rounds=1)


def _record_digest(result):
    """sha256 over every record's region bytes, host, verdict and panel."""
    digest = hashlib.sha256()
    for record in result.records:
        digest.update(record.region.packed_bytes())
        digest.update(repr((record.server.host.host_id,
                            record.assessment.verdict.value,
                            [(obs.landmark_name, obs.one_way_ms)
                             for obs in record.observations])).encode())
    return digest.hexdigest()


def test_perf_cold_pipeline_engines(tmp_path, monkeypatch):
    engine_s, engine_result = _cold_pipeline(
        "csr", tmp_path / "csr", monkeypatch)
    oracle_s, oracle_result = _cold_pipeline(
        "networkx", tmp_path / "networkx", monkeypatch)

    assert len(engine_result.records) == len(oracle_result.records) == 60
    assert _record_digest(engine_result) == _record_digest(oracle_result), (
        "CSR and networkx oracle records differ")
    assert engine_result.eta.eta == oracle_result.eta.eta
    assert (engine_result.verdict_counts()
            == oracle_result.verdict_counts())
    assert engine_s <= COLD_PIPELINE_BUDGET_S, (
        f"cold pipeline took {engine_s:.1f}s; budget is "
        f"{COLD_PIPELINE_BUDGET_S:.0f}s")
    # The engine must never make the pipeline slower than the oracle;
    # 15% headroom absorbs timer noise on shared CI runners.
    assert engine_s <= oracle_s * 1.15, (
        f"cold pipeline: csr {engine_s:.1f}s vs networkx {oracle_s:.1f}s "
        f"— the CSR engine should never lose to the oracle")
