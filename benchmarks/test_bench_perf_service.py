"""Performance benchmarks of the always-on verdict service.

The service's reason to exist is amortization: one warm audit substrate
answering millions of claim queries.  Three gates pin that contract:

* a **warm cache hit** must be at least ``WARM_SPEEDUP_MIN`` times
  cheaper than the stateless single-shot baseline — one full
  ``run_audit`` invocation per query with no process-level caches, the
  way a fresh ``repro audit`` CLI call (or the pre-service examples)
  answered a claim, η refit included;
* the **uncached micro-batched** path (one ``verdict_batch`` coalescing
  N queries into shared ``predict_fleet`` sweeps) must beat the same
  stateless scalar-query baseline by ``BATCH_SPEEDUP_MIN`` per query;
* the **asyncio frontend** must sustain ``QPS_MIN`` over a mostly-warm
  workload inside hard p50/p99 latency budgets.

All speedup gates are same-run ratios (both sides measured on the same
machine in the same process), so they hold on slow CI runners; the
absolute budgets are sized for noisy shared hardware.  The batch's and
the burst's memory, shedding and hit-rate gates read no clock and live
in ``tests/test_perf_memory.py``.
"""

import pytest

import repro.experiments.audit as audit_module
from benchmarks.timing import min_call_s
from repro.experiments import run_audit
from repro.service import VerdictService
from tests.perf_baseline import (BATCH_SIZE, SERVICE_FRONTEND_BURST_S,
                                 SERVICE_MICRO_BATCH_S, SERVICE_WARM_HIT_S,
                                 TIME_TRIPWIRE, WORKLOAD_REQUESTS,
                                 WORKLOAD_TARGETS, cold_batch,
                                 frontend_burst, frontend_workload)

#: A warm verdict-cache hit must undercut the stateless single-shot
#: audit-per-query cost by at least this factor (~630x measured).
WARM_SPEEDUP_MIN = 50.0

#: Absolute ceiling for one warm cache hit, seconds (~11 us measured).
WARM_HIT_BUDGET_S = 0.001

#: Uncached micro-batched per-query cost must undercut the stateless
#: scalar-query baseline by at least this factor (~7.5x measured).
BATCH_SPEEDUP_MIN = 5.0

#: Sustained frontend throughput floor, requests/second (~13k measured;
#: the floor leaves >10x headroom for slow shared runners).
QPS_MIN = 1000.0

#: Per-request latency budgets through the bounded queue, milliseconds.
#: p50 includes queue wait — the whole burst arrives at once by design.
P50_BUDGET_MS = 50.0
P99_BUDGET_MS = 250.0


@pytest.fixture(scope="module")
def service(scenario):
    warmed = VerdictService(scenario, seed=0)
    run_audit(scenario, max_servers=WORKLOAD_TARGETS, seed=0)
    return warmed


def _stateless_single_shot_s(scenario, server) -> float:
    """One claim answered the pre-service way: a fresh one-shot audit.

    Clearing the η cache between rounds is what makes the baseline
    *stateless* — a cold ``repro audit`` invocation refits η before it
    can measure, which is exactly the per-query cost the long-running
    service exists to amortize.
    """
    def single_shot():
        audit_module._ETA_CACHE.cache_clear()
        run_audit(scenario, servers=[server], seed=0)
    try:
        return min_call_s(single_shot, rounds=3)[0]
    finally:
        audit_module._ETA_CACHE.cache_clear()


def test_perf_service_warm_cache_hit(service, scenario):
    """A cache-hit verdict vs the stateless single-shot baseline."""
    target = scenario.all_servers()[0]
    single_shot_s = _stateless_single_shot_s(scenario, target)
    service.verdict(target)  # prime the verdict cache

    hit_s, response = min_call_s(lambda: service.verdict(target),
                                 rounds=20, iterations=200)
    assert response.cached
    assert hit_s < TIME_TRIPWIRE * SERVICE_WARM_HIT_S
    assert hit_s <= WARM_HIT_BUDGET_S, (
        f"warm cache hit took {hit_s * 1e6:.0f} us; budget is "
        f"{WARM_HIT_BUDGET_S * 1e6:.0f} us")
    assert single_shot_s / hit_s >= WARM_SPEEDUP_MIN, (
        f"warm hit {hit_s * 1e6:.0f} us is only "
        f"{single_shot_s / hit_s:.1f}x cheaper than the "
        f"{single_shot_s * 1e3:.2f} ms single-shot baseline "
        f"(need {WARM_SPEEDUP_MIN:.0f}x)")


def test_perf_service_micro_batched_cold(service, scenario):
    """One coalesced verdict_batch vs stateless scalar queries."""
    servers = scenario.all_servers()[:BATCH_SIZE]
    single_shot_s = _stateless_single_shot_s(scenario, servers[0])

    batch_s, responses = min_call_s(lambda: cold_batch(service, servers),
                                    rounds=10)
    assert len(responses) == BATCH_SIZE

    per_query_s = batch_s / BATCH_SIZE
    assert batch_s < TIME_TRIPWIRE * SERVICE_MICRO_BATCH_S
    assert single_shot_s / per_query_s >= BATCH_SPEEDUP_MIN, (
        f"micro-batched {per_query_s * 1e3:.2f} ms/query is only "
        f"{single_shot_s / per_query_s:.1f}x cheaper than the "
        f"{single_shot_s * 1e3:.2f} ms scalar-query baseline "
        f"(need {BATCH_SPEEDUP_MIN:.0f}x)")


def test_perf_service_frontend_qps(service, scenario):
    """QPS + p50/p99 through the bounded asyncio queue, mostly warm."""
    workload = frontend_workload(service, scenario)
    wall_s, (_, latencies_ms) = min_call_s(
        lambda: frontend_burst(service, workload), rounds=3)

    qps = WORKLOAD_REQUESTS / wall_s
    p50 = latencies_ms[len(latencies_ms) // 2]
    p99 = latencies_ms[int(len(latencies_ms) * 0.99)]
    assert wall_s < TIME_TRIPWIRE * SERVICE_FRONTEND_BURST_S
    assert qps >= QPS_MIN, (
        f"frontend sustained {qps:,.0f} QPS; the floor is {QPS_MIN:,.0f}")
    assert p50 <= P50_BUDGET_MS, (
        f"p50 latency {p50:.2f} ms exceeds the {P50_BUDGET_MS:.0f} ms budget")
    assert p99 <= P99_BUDGET_MS, (
        f"p99 latency {p99:.2f} ms exceeds the {P99_BUDGET_MS:.0f} ms budget")
