"""The perf gates' shared parts: a recorded baseline and the workloads.

The baseline is one benchmark export, recorded at commit 6c268d9
on 2026-08-08 on a 1-vCPU Intel Xeon @ 2.10 GHz (CPython 3.11.7): the
minimum seconds per call of 16 timed benches and the peak bytes of 6
measured workloads.  Two tripwires read it:

* a timed bench fails at ``TIME_TRIPWIRE`` times its minimum;
* a measured peak fails at ``PEAK_TRIPWIRE`` times its peak.

Both sit next to the gate's own bounds, in the test that ``HOMES`` names
for each constant: the clock reads in ``benchmarks/``, the peaks that read
no clock in ``tests/test_perf_memory.py``.  ``test_perf_memory`` also
checks that every home exists and reads its constant, so a gate cannot
be dropped silently.

The workloads below are the ones both homes run: the memory gates trace
them and the clock gates time them.
"""

import asyncio
import time
import tracemalloc
from dataclasses import replace

import numpy as np

from repro.core.observations import RttObservation
from repro.experiments import run_audit
from repro.experiments.campaign import CampaignAggregator
from repro.geo.region import Region
from repro.geodesy.greatcircle import haversine_km
from repro.service import ServiceFrontend

#: A fresh minimum this many times the baseline's fails its bench.
TIME_TRIPWIRE = 3.0

#: A fresh peak this many times the baseline's fails its gate (memory
#: varies far less across machines than wall time does).
PEAK_TRIPWIRE = 2.0

# -- minima, seconds per call ---------------------------------------------------

CBG_CALIBRATION_FIT_S = 0.00010381299944128841
DISTANCE_FIELD_UNCACHED_S = 0.0027412010003899923
DISK_MASK_CACHED_S = 6.353000571834855e-06
SUBSET_SEARCH_WITH_CONFLICTS_S = 0.000502801000038744
CBGPP_FULL_PREDICTION_S = 0.00026060799973492976
REGION_COUNTRY_COVERAGE_S = 6.223700074770022e-05
FLEET_AUDIT_WARM_S = 0.0513874250009394
FLEET_SCALING_1K_S = 0.25603345499985153
OBSERVATION_PANEL_S = 0.00012375699952826835
COLD_FLEET_FLOORS_S = 0.581107536001582
REGION_ENGINE_AUDIT_S = 0.062740732999373
CAMPAIGN_PAPER_SCALE_S = 24.31376429000011
CAMPAIGN_STREAM_10K_S = 2.003986267000073
SERVICE_WARM_HIT_S = 9.915085001921398e-06
SERVICE_MICRO_BATCH_S = 0.02021615899866447
SERVICE_FRONTEND_BURST_S = 0.005949996999333962

# -- peaks, bytes (tracemalloc, except the campaign's peak RSS) ----------------

FLEET_SCALING_1K_PEAK = 51_336_245
REGION_ENGINE_AUDIT_PEAK = 7_637_732
CAMPAIGN_PAPER_SCALE_RSS_PEAK = 1_025_609_728
CAMPAIGN_STREAM_10K_PEAK = 659_462
SERVICE_MICRO_BATCH_PEAK = 3_145_548
SERVICE_FRONTEND_BURST_PEAK = 382_732

_CORE = "benchmarks/test_bench_perf_core.py::"
_AUDIT = "benchmarks/test_bench_perf_audit.py::"
_CAMPAIGN = "benchmarks/test_bench_perf_campaign.py::"
_SERVICE = "benchmarks/test_bench_perf_service.py::"
_MEMORY = "tests/test_perf_memory.py::"

#: The test that asserts each constant's tripwire.
HOMES = {
    "CBG_CALIBRATION_FIT_S": _CORE + "test_perf_cbg_calibration_fit",
    "DISTANCE_FIELD_UNCACHED_S": _CORE + "test_perf_distance_field_uncached",
    "DISK_MASK_CACHED_S": _CORE + "test_perf_disk_mask_cached",
    "SUBSET_SEARCH_WITH_CONFLICTS_S":
        _CORE + "test_perf_subset_search_with_conflicts",
    "CBGPP_FULL_PREDICTION_S": _CORE + "test_perf_cbgpp_full_prediction",
    "REGION_COUNTRY_COVERAGE_S": _CORE + "test_perf_region_country_coverage",
    "FLEET_AUDIT_WARM_S": _AUDIT + "test_perf_fleet_audit_warm",
    "FLEET_SCALING_1K_S": _AUDIT + "test_perf_fleet_scaling_1k",
    "OBSERVATION_PANEL_S": _AUDIT + "test_perf_observation_panel",
    "COLD_FLEET_FLOORS_S": "benchmarks/test_bench_perf_pathengine.py::"
                           "test_perf_cold_fleet_floors_speedup",
    "REGION_ENGINE_AUDIT_S": _AUDIT + "test_perf_fleet_audit_warm",
    "CAMPAIGN_PAPER_SCALE_S": _CAMPAIGN + "test_perf_campaign_paper_scale",
    "CAMPAIGN_STREAM_10K_S": _CAMPAIGN + "test_perf_campaign_stream_10k",
    "SERVICE_WARM_HIT_S": _SERVICE + "test_perf_service_warm_cache_hit",
    "SERVICE_MICRO_BATCH_S": _SERVICE + "test_perf_service_micro_batched_cold",
    "SERVICE_FRONTEND_BURST_S": _SERVICE + "test_perf_service_frontend_qps",
    "FLEET_SCALING_1K_PEAK": _MEMORY + "test_fleet_sweep_1k",
    "REGION_ENGINE_AUDIT_PEAK": _MEMORY + "test_warm_audit",
    "CAMPAIGN_PAPER_SCALE_RSS_PEAK": _CAMPAIGN + "test_perf_campaign_paper_scale",
    "CAMPAIGN_STREAM_10K_PEAK": _MEMORY + "test_campaign_stream_10k",
    "SERVICE_MICRO_BATCH_PEAK": _MEMORY + "test_service_micro_batch",
    "SERVICE_FRONTEND_BURST_PEAK": _MEMORY + "test_service_frontend_burst",
}


def traced_peak(fn):
    """(tracemalloc peak bytes of one ``fn()`` call, its result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


# -- the 1,000-server predict_fleet sweep ---------------------------------------

#: Synthetic fleet sizes for the sweep: the marginal cost of the servers
#: beyond the prefix is what must stay flat.
SCALING_FLEET = 1000
SCALING_PREFIX = 125


def consistent_fleets(scenario, n_servers, seed):
    """Synthetic observation panels with mutually consistent geometry.

    Each panel is built around a hidden true location, with one-way
    delays derived from the actual landmark distances plus positive
    noise — so the joint intersection is non-empty and the sweep
    exercises the vectorised fast path, exactly like a healthy audit.
    (Contradictory panels fall back to the per-server subset search by
    design; the warm audit covers that path.)
    """
    rng = np.random.default_rng(seed)
    pool = scenario.atlas.all_landmarks()
    fleets = []
    for _ in range(n_servers):
        size = int(rng.integers(8, 31))
        lat = float(rng.uniform(-55.0, 65.0))
        lon = float(rng.uniform(-180.0, 180.0))
        picks = rng.choice(len(pool), size=size, replace=True)
        panel = []
        for pick in picks:
            landmark = pool[int(pick)]
            distance = haversine_km(lat, lon, landmark.lat, landmark.lon)
            panel.append(RttObservation(
                landmark_name=landmark.name,
                lat=landmark.lat,
                lon=landmark.lon,
                one_way_ms=distance / 100.0 + float(rng.uniform(0.5, 8.0))))
        fleets.append(panel)
    return fleets


# -- the 10k-record campaign stream ---------------------------------------------

STREAM_SMALL = 2_000
STREAM_LARGE = 10_000


def stream_seed_records(scenario):
    """A dozen real records to clone synthetic streams from."""
    return run_audit(scenario, max_servers=12, seed=0,
                     disambiguate=False).records


def stream_peak(scenario, seed_records, n_records):
    """tracemalloc peak of streaming ``n_records`` through an aggregator.

    Every accepted record carries a *fresh* packed-region allocation (a
    byte-for-byte clone of a seed record's), so a sink that retained
    records would show the full O(n) region cost.
    """
    grid = scenario.worldmap.grid
    packed = [record.region.packed_bytes() for record in seed_records]
    aggregator = CampaignAggregator(scenario)
    tracemalloc.start()
    for at in range(n_records):
        seed = seed_records[at % len(seed_records)]
        record = replace(
            seed, region=Region.from_packbits(grid, packed[at % len(packed)]))
        aggregator.accept(record)
    aggregator.close()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert aggregator.n_accepted == n_records
    return peak


# -- the verdict service ----------------------------------------------------------

#: Servers per cold micro-batch (one verdict_batch call).
BATCH_SIZE = 24

#: Frontend workload: requests drawn uniformly from this many warmed
#: targets, all enqueued concurrently.
WORKLOAD_TARGETS = 60
WORKLOAD_REQUESTS = 240


def cold_batch(service, servers):
    """One verdict_batch over ``servers`` with both caches emptied."""
    service.cache_clear()
    return service.verdict_batch(servers)


def frontend_workload(service, scenario):
    """The burst's requests, after warming every workload target."""
    targets = scenario.all_servers()[:WORKLOAD_TARGETS]
    service.verdict_batch(targets)
    rng = np.random.default_rng(11)
    return [targets[int(pick)] for pick in
            rng.integers(0, WORKLOAD_TARGETS, size=WORKLOAD_REQUESTS)]


def frontend_burst(service, workload):
    """Enqueue the whole workload at once through a bounded frontend.

    Returns the frontend's stats and each request's latency through the
    queue in milliseconds, sorted.
    """
    async def burst():
        frontend = ServiceFrontend(service, queue_max=256)
        latencies_ms = []

        async def one(server):
            started = time.monotonic()
            response = await frontend.enqueue((server, None))
            latencies_ms.append((time.monotonic() - started) * 1e3)
            return response

        await asyncio.gather(*(one(server) for server in workload))
        frontend.close()
        return frontend.stats, sorted(latencies_ms)

    return asyncio.run(burst())
