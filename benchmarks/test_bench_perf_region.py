"""Benchmarks of the packed-bitset Region engine on the fleet audit.

The packed engine stores every prediction as uint64 words (one bit per
grid cell) instead of a byte-per-cell boolean mask.  Two budgets are
enforced here, and exported into ``BENCH_perf.json`` so
``tools/compare_bench.py`` can police them across commits:

* **throughput** — the warm 60-server audit must stay within the same
  hard budget as ``test_bench_perf_audit`` (the packed engine must not
  trade time for memory);
* **resident region memory** — the audit's per-record regions must stay
  at least ``REQUIRED_MEM_REDUCTION``x smaller than the boolean
  reference (measured: 8.0x — 8 104 packed bytes vs 64 800 mask bytes
  per record on the 1° grid), and the tracemalloc peak of a whole warm
  audit must stay under ``MEM_PEAK_BUDGET_BYTES``.

The tracemalloc pass runs *outside* the timed rounds: tracing slows
allocation several-fold and would poison the timing stats.
"""

import tracemalloc

import pytest

from repro.experiments import run_audit

#: Warm 60-server audit wall time measured on the growth seed, seconds
#: (same protocol and budget as ``test_bench_perf_audit``).
SEED_WARM_AUDIT_S = 1.50
REQUIRED_SPEEDUP = 3.0

#: Minimum resident-memory reduction for per-record regions vs the
#: boolean reference (one byte per grid cell).  The packed layout
#: delivers ~8x; the gate is 2x so exotic grid sizes keep headroom.
REQUIRED_MEM_REDUCTION = 2.0

#: tracemalloc peak budget for one warm 60-server audit.  Measured
#: ~8 MiB with the packed engine; 32 MiB leaves room for allocator and
#: platform variance while still catching a bool-mask regression (which
#: alone adds ~4 MiB of region payload plus unpacking scratch).
MEM_PEAK_BUDGET_BYTES = 32 * 2**20


@pytest.fixture(scope="module")
def warm_scenario(scenario):
    """The shared scenario with all audit caches populated."""
    run_audit(scenario, max_servers=60, seed=0)
    return scenario


def test_perf_region_engine_audit(benchmark, warm_scenario):
    result = benchmark(lambda: run_audit(warm_scenario, max_servers=60,
                                         seed=0))
    assert len(result.records) == 60

    # -- throughput budget ---------------------------------------------------
    budget = SEED_WARM_AUDIT_S / REQUIRED_SPEEDUP
    assert benchmark.stats.stats.min <= budget, (
        f"packed-engine warm audit took {benchmark.stats.stats.min:.3f}s; "
        f"budget is {budget:.3f}s")

    # -- resident region memory ---------------------------------------------
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

    # -- tracemalloc peak (untimed: tracing slows allocation) ---------------
    tracemalloc.start()
    try:
        run_audit(warm_scenario, max_servers=60, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= MEM_PEAK_BUDGET_BYTES, (
        f"warm audit peaked at {peak} traced bytes; "
        f"budget is {MEM_PEAK_BUDGET_BYTES}")

    benchmark.extra_info["mem_resident_region_bytes"] = int(resident)
    benchmark.extra_info["mem_bool_reference_bytes"] = int(bool_reference)
    benchmark.extra_info["mem_reduction_x"] = round(reduction, 2)
    benchmark.extra_info["mem_required_reduction_x"] = REQUIRED_MEM_REDUCTION
    benchmark.extra_info["mem_peak_bytes"] = int(peak)
    benchmark.extra_info["mem_budget_bytes"] = MEM_PEAK_BUDGET_BYTES
