"""Performance benchmarks of the sharded streaming campaign orchestrator.

Two gates anchor the campaign's scale story (DESIGN.md §5e):

* ``test_perf_campaign_paper_scale`` runs the full paper-scale fleet
  (2,269+ servers) through a 2-shard streaming campaign and holds both
  the wall clock and the process peak RSS to hard budgets.  The
  materialised (pre-campaign) paper-scale audit peaked at ~3.3 GB RSS
  on the reference VM; the streaming run measured ~614 MiB, and the
  budget sits between the two so a quietly re-materialised record list
  fails loudly.

* ``test_perf_campaign_streaming_memory_10k`` streams 10k synthetic
  records (each carrying its own freshly allocated packed region)
  through a ``CampaignAggregator`` and holds the *marginal* tracemalloc
  cost between 2k and 10k records to a small fraction of one packed
  region — the aggregator must retain tallies and region-free
  skeletons, never the regions themselves.
"""

import resource
import tracemalloc
from dataclasses import replace

import pytest

from repro.experiments import run_audit
from repro.experiments.campaign import CampaignAggregator, run_campaign
from repro.experiments.scenario import paper_scale_scenario
from repro.geo.region import Region

#: Reference numbers from the development VM (1-core Xeon 2.1 GHz):
#: 2-shard streaming campaign over 2,429 servers in ~31 s at ~614 MiB
#: peak RSS; the materialised audit of the same fleet peaked at ~3.3 GB.
PAPER_SCALE_BUDGET_S = 120.0
PAPER_SCALE_RSS_BUDGET_BYTES = 1536 * 1024 * 1024

#: The paper's fleet size — the scenario must reach it.
PAPER_FLEET_MIN = 2269

#: Soundness floor for the merged paper-scale report.
PAPER_FALSE_PRECISION_MIN = 0.9

#: Synthetic streaming sizes.  The aggregator's memory is linear only
#: in its region-free skeletons and tallies (~64 bytes/record measured),
#: so the *marginal* cost per record must stay a small fraction of one
#: retained packed region (~8 KB): a sink that held on to records blows
#: through the gate by more than an order of magnitude.
STREAM_SMALL = 2_000
STREAM_LARGE = 10_000
MARGINAL_BYTES_PER_RECORD = 512

#: Absolute tracemalloc ceiling for the 10k stream (~660 KB measured).
#: Materialising the 10k regions alone would cost ~80 MB.
STREAM_MEM_BUDGET_BYTES = 8 * 1024 * 1024


def test_perf_campaign_paper_scale(benchmark, tmp_path, monkeypatch):
    # A cold campaign: an empty snapshot directory, so no mesh-ping
    # archive persisted by an earlier run is loaded.
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
    scenario = paper_scale_scenario(seed=0)
    # rounds=1: the campaign is ~30 s on the reference VM; the hard
    # budgets gate the single measured run.
    run = benchmark.pedantic(
        lambda: run_campaign(scenario, shards=2, seed=0),
        rounds=1, iterations=1)
    report = run.report
    assert report.n_servers >= PAPER_FLEET_MIN
    assert (report.ground_truth["false_precision"]
            >= PAPER_FALSE_PRECISION_MIN), report.ground_truth

    elapsed = benchmark.stats.stats.min
    rss_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    benchmark.extra_info["n_servers"] = report.n_servers
    benchmark.extra_info["false_precision"] = (
        report.ground_truth["false_precision"])
    benchmark.extra_info["mem_peak_bytes"] = int(rss_peak)
    benchmark.extra_info["mem_budget_bytes"] = PAPER_SCALE_RSS_BUDGET_BYTES
    assert elapsed <= PAPER_SCALE_BUDGET_S, (
        f"paper-scale 2-shard campaign took {elapsed:.1f}s; budget is "
        f"{PAPER_SCALE_BUDGET_S:.0f}s")
    assert rss_peak <= PAPER_SCALE_RSS_BUDGET_BYTES, (
        f"paper-scale campaign peaked at {rss_peak / 2**20:.0f} MiB RSS; "
        f"the streaming budget is "
        f"{PAPER_SCALE_RSS_BUDGET_BYTES / 2**20:.0f} MiB — has the "
        f"record list been re-materialised?")


@pytest.fixture(scope="module")
def seed_records(scenario):
    """A dozen real records to clone synthetic streams from."""
    result = run_audit(scenario, max_servers=12, seed=0, disambiguate=False)
    return result.records


def _stream_peak(scenario, seed_records, n_records):
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


def test_perf_campaign_streaming_memory_10k(benchmark, scenario,
                                            seed_records):
    small_peak = _stream_peak(scenario, seed_records, STREAM_SMALL)
    large_peak = _stream_peak(scenario, seed_records, STREAM_LARGE)

    benchmark.pedantic(
        lambda: _stream_peak(scenario, seed_records, STREAM_LARGE),
        rounds=3, iterations=1)

    marginal = (large_peak - small_peak) / (STREAM_LARGE - STREAM_SMALL)
    benchmark.extra_info["n_records"] = STREAM_LARGE
    benchmark.extra_info["small_peak_bytes"] = int(small_peak)
    benchmark.extra_info["marginal_bytes_per_record"] = marginal
    benchmark.extra_info["mem_peak_bytes"] = int(large_peak)
    benchmark.extra_info["mem_budget_bytes"] = STREAM_MEM_BUDGET_BYTES
    assert large_peak <= STREAM_MEM_BUDGET_BYTES, (
        f"10k-record stream traced {large_peak} bytes peak; budget is "
        f"{STREAM_MEM_BUDGET_BYTES}")
    assert marginal <= MARGINAL_BYTES_PER_RECORD, (
        f"streaming costs {marginal:.0f} bytes/record between "
        f"{STREAM_SMALL} and {STREAM_LARGE} records; the budget is "
        f"{MARGINAL_BYTES_PER_RECORD} — a retained packed region is "
        f"~8 KB, so something is holding on to records")
