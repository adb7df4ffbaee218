"""The perf workloads' bounds that read no clock.

Each workload here is also timed in ``benchmarks/``; this file holds its
tracemalloc budget, the baseline's peak tripwire (``tests.perf_baseline``)
and every other bound that no clock decides.  Tracing slows allocation
several-fold, so nothing here is timed.
"""

import ast
from pathlib import Path

import pytest

from repro.core.cbgpp import CBGPlusPlus
from repro.experiments import run_audit
from repro.service import VerdictService
from tests import perf_baseline
from tests.perf_baseline import (BATCH_SIZE, CAMPAIGN_STREAM_10K_PEAK,
                                 FLEET_SCALING_1K_PEAK, HOMES, PEAK_TRIPWIRE,
                                 REGION_ENGINE_AUDIT_PEAK, SCALING_FLEET,
                                 SCALING_PREFIX, SERVICE_FRONTEND_BURST_PEAK,
                                 SERVICE_MICRO_BATCH_PEAK, STREAM_LARGE,
                                 STREAM_SMALL, WORKLOAD_TARGETS, cold_batch,
                                 consistent_fleets, frontend_burst,
                                 frontend_workload, stream_peak,
                                 stream_seed_records, traced_peak)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: tracemalloc peak budget for one 1000-server ``predict_fleet`` sweep.
SWEEP_MEM_BUDGET_BYTES = 96 * 1024 * 1024

#: tracemalloc peak budget for one warm 60-server audit.  Measured
#: ~3.3 MiB with the packed engine; 32 MiB leaves room for allocator and
#: platform variance while still catching a bool-mask regression (which
#: alone adds ~4 MiB of region payload plus unpacking buffers).
AUDIT_MEM_BUDGET_BYTES = 32 * 2**20

#: Minimum resident-memory reduction for per-record regions vs the
#: boolean reference (one byte per grid cell).  The packed layout
#: delivers ~8x; the gate is 2x so exotic grid sizes keep headroom.
REQUIRED_MEM_REDUCTION = 2.0

#: The aggregator's memory is linear only in its region-free skeletons
#: and tallies (~64 bytes/record measured), so the *marginal* cost per
#: record must stay a small fraction of one retained packed region
#: (~8 KB): a sink that held on to records blows through the gate by
#: more than an order of magnitude.
MARGINAL_BYTES_PER_RECORD = 512

#: Absolute tracemalloc ceiling for the 10k stream (~660 KB measured).
#: Materialising the 10k regions alone would cost ~80 MB.
STREAM_MEM_BUDGET_BYTES = 8 * 1024 * 1024

#: tracemalloc peak budget for one cold 24-server micro-batch.
BATCH_MEM_BUDGET_BYTES = 16 * 1024 * 1024

#: tracemalloc peak budget for the whole frontend burst.
FRONTEND_MEM_BUDGET_BYTES = 8 * 1024 * 1024

#: Verdict-cache hit-rate floor over the warm workload itself.
HIT_RATE_MIN = 0.95


@pytest.fixture(scope="module")
def warm_scenario(scenario):
    """The shared scenario with all audit caches populated."""
    run_audit(scenario, max_servers=60, seed=0)
    return scenario


def test_every_baseline_constant_has_a_home():
    """Each recorded minimum and peak names a test that reads it."""
    constants = {name for name in vars(perf_baseline)
                 if name.endswith(("_S", "_PEAK"))}
    assert len(constants) == 16 + 6
    assert constants == set(HOMES)
    for name, home in HOMES.items():
        path, test = home.split("::")
        tree = ast.parse((REPO_ROOT / path).read_text(encoding="utf-8"))
        tests = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
        assert test in tests, f"{name}: {home} is not a test"
        read = {node.id for node in ast.walk(tests[test])
                if isinstance(node, ast.Name)}
        assert name in read, f"{home} does not assert {name}'s tripwire"


def test_fleet_sweep_1k(warm_scenario):
    """One 1000-server ``predict_fleet`` sweep, warm bank rows."""
    algorithm = CBGPlusPlus(warm_scenario.calibrations,
                            warm_scenario.worldmap)
    fleets = consistent_fleets(warm_scenario, SCALING_FLEET, seed=13)
    algorithm.predict_fleet(fleets[:SCALING_PREFIX])  # warm the bank rows
    peak, predictions = traced_peak(lambda: algorithm.predict_fleet(fleets))
    assert len(predictions) == SCALING_FLEET
    assert peak <= SWEEP_MEM_BUDGET_BYTES, (
        f"1000-server sweep traced {peak} bytes peak; budget is "
        f"{SWEEP_MEM_BUDGET_BYTES}")
    assert peak < PEAK_TRIPWIRE * FLEET_SCALING_1K_PEAK


def test_warm_audit(warm_scenario):
    """The warm 60-server audit keeps its regions packed and small."""
    result = run_audit(warm_scenario, max_servers=60, seed=0)
    assert len(result.records) == 60
    resident = sum(r.region.resident_nbytes() for r in result.records)
    bool_reference = sum(r.region.grid.n_cells for r in result.records)
    reduction = bool_reference / resident
    assert not any(r.region.has_bool_view for r in result.records), (
        "an audit-path consumer forced the lazy boolean view; the "
        "resident-memory reduction is fictional if records carry masks")
    assert reduction >= REQUIRED_MEM_REDUCTION, (
        f"per-record regions hold {resident} bytes vs {bool_reference} "
        f"boolean-reference bytes: {reduction:.2f}x < "
        f"{REQUIRED_MEM_REDUCTION:.1f}x required")

    # Traced second: the run above refills the distance bank's cache of
    # gathered blocks, which the 1000-server sweep evicts.
    peak, _ = traced_peak(
        lambda: run_audit(warm_scenario, max_servers=60, seed=0))
    assert peak <= AUDIT_MEM_BUDGET_BYTES, (
        f"warm audit peaked at {peak} traced bytes; "
        f"budget is {AUDIT_MEM_BUDGET_BYTES}")
    assert peak < PEAK_TRIPWIRE * REGION_ENGINE_AUDIT_PEAK


def test_campaign_stream_10k(scenario):
    """The aggregator retains tallies and skeletons, never regions."""
    records = stream_seed_records(scenario)
    small_peak = stream_peak(scenario, records, STREAM_SMALL)
    large_peak = stream_peak(scenario, records, STREAM_LARGE)
    marginal = (large_peak - small_peak) / (STREAM_LARGE - STREAM_SMALL)
    assert large_peak <= STREAM_MEM_BUDGET_BYTES, (
        f"10k-record stream traced {large_peak} bytes peak; budget is "
        f"{STREAM_MEM_BUDGET_BYTES}")
    assert marginal <= MARGINAL_BYTES_PER_RECORD, (
        f"streaming costs {marginal:.0f} bytes/record between "
        f"{STREAM_SMALL} and {STREAM_LARGE} records; the budget is "
        f"{MARGINAL_BYTES_PER_RECORD} — a retained packed region is "
        f"~8 KB, so something is holding on to records")
    assert large_peak < PEAK_TRIPWIRE * CAMPAIGN_STREAM_10K_PEAK


@pytest.fixture(scope="module")
def service(scenario):
    warmed = VerdictService(scenario, seed=0)
    run_audit(scenario, max_servers=WORKLOAD_TARGETS, seed=0)
    return warmed


def test_service_micro_batch(service, scenario):
    """One cold 24-server ``verdict_batch``."""
    servers = scenario.all_servers()[:BATCH_SIZE]
    peak, responses = traced_peak(lambda: cold_batch(service, servers))
    assert len(responses) == BATCH_SIZE
    assert peak <= BATCH_MEM_BUDGET_BYTES, (
        f"cold {BATCH_SIZE}-server batch traced {peak} bytes peak; "
        f"budget is {BATCH_MEM_BUDGET_BYTES}")
    assert peak < PEAK_TRIPWIRE * SERVICE_MICRO_BATCH_PEAK


def test_service_frontend_burst(service, scenario):
    """240 concurrent requests over 60 warm targets: none shed, nearly
    all answered from the verdict cache."""
    workload = frontend_workload(service, scenario)
    before = service.cache_info()["verdicts"]
    peak, (stats, _) = traced_peak(lambda: frontend_burst(service, workload))
    after = service.cache_info()["verdicts"]
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    hit_rate = hits / max(1, hits + misses)
    assert stats.shed == 0, f"{stats.shed} requests shed under a warm burst"
    assert hit_rate >= HIT_RATE_MIN, (
        f"workload hit-rate {hit_rate:.3f} under the warmed fleet is below "
        f"the {HIT_RATE_MIN:.2f} floor")
    assert peak <= FRONTEND_MEM_BUDGET_BYTES, (
        f"frontend burst traced {peak} bytes peak; budget is "
        f"{FRONTEND_MEM_BUDGET_BYTES}")
    assert peak < PEAK_TRIPWIRE * SERVICE_FRONTEND_BURST_PEAK
