"""Performance benchmarks of the batched shortest-path engine.

The acceptance bar for the path-engine optimisation is a >= 4x cold
speedup over the per-source pure-Python networkx oracle **on the
workload the engine replaces**: resolving the fleet-wide base-RTT floor
matrix (every landmark, server, and client source against every host)
from a cold cache.  ``test_perf_cold_fleet_floors_speedup`` times both
engines on that workload *in the same run* — no stored baselines, so a
noisy shared CPU slows both sides equally — and asserts the ratio.

End to end, the shortest-path oracle is one of several costs (RNG noise
draws, the distance bank, and assessment are engine-independent), so the
full cold ``default_scenario()`` + audit pipeline cannot speed up by the
oracle's full factor.  ``test_perf_cold_pipeline_engines`` holds the
honest contract there: the CSR engine is never slower than the networkx
fallback (modest tolerance for timer noise), produces bit-identical
results, and the whole cold pipeline stays within a generous absolute
budget so a pathological regression still fails loudly.
"""

import time

import numpy as np
import pytest

from repro.experiments import default_scenario, run_audit
from repro.netsim.network import Network
from repro.netsim.pathengine import HAVE_SCIPY

#: The optimisation acceptance bar on the oracle workload (cold
#: fleet-wide base-RTT floors, CSR vs networkx, same run).
REQUIRED_ORACLE_SPEEDUP = 4.0

#: Generous absolute ceiling on one cold scenario build plus a 60-server
#: audit slice; only a pathological regression (or a broken engine
#: falling back to quadratic work) can breach it.
COLD_PIPELINE_BUDGET_S = 60.0

pytestmark = pytest.mark.skipif(
    not HAVE_SCIPY, reason="CSR engine needs scipy; nothing to compare")


def _fleet(scenario):
    """(sources, targets) of the fleet-wide base-RTT floor workload."""
    sources = ([scenario.client]
               + [lm.host for lm in scenario.atlas.all_landmarks()]
               + [server.host for server in scenario.all_servers()])
    return sources, list(scenario.factory.hosts)


def _cold_floors(topology, sources, targets, mode):
    """The full fleet floor matrix from a cold cache in one engine mode."""
    network = Network(topology, seed=0, path_engine=mode)
    network.warm_paths(sources + targets)
    return np.vstack([network.base_rtt_matrix(source, targets)
                      for source in sources])


def test_perf_cold_fleet_floors_speedup(benchmark, scenario):
    sources, targets = _fleet(scenario)
    topology = scenario.network.topology

    oracle_best = np.inf
    for _ in range(2):
        start = time.perf_counter()
        oracle_floors = _cold_floors(topology, sources, targets, "networkx")
        oracle_best = min(oracle_best, time.perf_counter() - start)

    engine_floors = benchmark.pedantic(
        _cold_floors, args=(topology, sources, targets, "csr"),
        rounds=3, iterations=1)

    # Same floats, not merely close: the engines must be interchangeable.
    assert np.array_equal(engine_floors, oracle_floors)

    engine_best = benchmark.stats.stats.min
    speedup = oracle_best / engine_best
    benchmark.extra_info["networkx_oracle_s"] = oracle_best
    benchmark.extra_info["speedup_vs_networkx"] = speedup
    benchmark.extra_info["required_speedup"] = REQUIRED_ORACLE_SPEEDUP
    assert speedup >= REQUIRED_ORACLE_SPEEDUP, (
        f"cold fleet floors: csr {engine_best:.3f}s vs networkx "
        f"{oracle_best:.3f}s is only {speedup:.2f}x; the engine must be "
        f">= {REQUIRED_ORACLE_SPEEDUP:.0f}x faster than the oracle")


def _cold_pipeline(mode, snapshot_dir, monkeypatch):
    """One cold scenario build plus a 60-server audit slice.

    Cold means cold all the way down: the run gets an empty substrate
    snapshot directory, so no mesh-ping archive from an earlier run can
    be loaded.
    """
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(snapshot_dir))
    start = time.perf_counter()
    scenario = default_scenario(seed=0, path_engine=mode)
    result = run_audit(scenario, max_servers=60, seed=0)
    return time.perf_counter() - start, result


def test_perf_cold_pipeline_engines(tmp_path, monkeypatch):
    engine_s, engine_result = _cold_pipeline(
        "csr", tmp_path / "csr", monkeypatch)
    oracle_s, oracle_result = _cold_pipeline(
        "networkx", tmp_path / "networkx", monkeypatch)

    assert engine_result.eta.eta == oracle_result.eta.eta
    assert (engine_result.verdict_counts()
            == oracle_result.verdict_counts())
    assert engine_s <= COLD_PIPELINE_BUDGET_S, (
        f"cold pipeline took {engine_s:.1f}s; budget is "
        f"{COLD_PIPELINE_BUDGET_S:.0f}s")
    # The engine must never make the pipeline slower than the fallback;
    # 15% headroom absorbs timer noise on shared CI runners.
    assert engine_s <= oracle_s * 1.15, (
        f"cold pipeline: csr {engine_s:.1f}s vs networkx {oracle_s:.1f}s "
        f"— the CSR engine should never lose to the fallback")
