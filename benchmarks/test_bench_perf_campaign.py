"""Performance benchmarks of the sharded streaming campaign orchestrator.

Two benches anchor the campaign's scale story (DESIGN.md §5e):

* ``test_perf_campaign_paper_scale`` runs the full paper-scale fleet
  (2,269+ servers) through a 2-shard streaming campaign, cold, and holds
  both the wall clock and the process peak RSS to hard budgets.  The
  materialised (pre-campaign) paper-scale audit peaked at ~3.3 GB RSS
  on the reference VM; the streaming run measured ~614 MiB, and the
  budget sits between the two so a quietly re-materialised record list
  fails loudly.  The merged report must stay sound and give the
  paper-scale row that EXPERIMENTS.md renders.  It is the one place the
  paper-scale campaign runs.

* ``test_perf_campaign_stream_10k`` times streaming 10k synthetic
  records through a ``CampaignAggregator``; the stream's memory gates
  read no clock and live in ``tests/test_perf_memory.py``.
"""

import resource

from benchmarks.timing import min_call_s
from repro.experiments.campaign import run_campaign
from repro.experiments.scenario import paper_scale_scenario
from tests.claims import PAPER_SCALE, paper_scale_row
from tests.perf_baseline import (CAMPAIGN_PAPER_SCALE_RSS_PEAK,
                                 CAMPAIGN_PAPER_SCALE_S,
                                 CAMPAIGN_STREAM_10K_S, PEAK_TRIPWIRE,
                                 STREAM_LARGE, TIME_TRIPWIRE, stream_peak,
                                 stream_seed_records)

#: Reference numbers from the development VM (1-core Xeon 2.1 GHz):
#: 2-shard streaming campaign over 2,429 servers in ~31 s at ~614 MiB
#: peak RSS; the materialised audit of the same fleet peaked at ~3.3 GB.
PAPER_SCALE_BUDGET_S = 120.0
PAPER_SCALE_RSS_BUDGET_BYTES = 1536 * 1024 * 1024

#: The paper's fleet size — the scenario must reach it.
PAPER_FLEET_MIN = 2269

#: Soundness floor for the merged paper-scale report.
PAPER_FALSE_PRECISION_MIN = 0.9


def test_perf_campaign_paper_scale(tmp_path, monkeypatch):
    # A cold campaign: an empty snapshot directory, so no mesh-ping
    # archive persisted by an earlier run is loaded.
    monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
    scenario = paper_scale_scenario(seed=0)
    # One round: the hard budgets gate the single measured run.
    elapsed, run = min_call_s(
        lambda: run_campaign(scenario, shards=2, seed=0), rounds=1)
    report = run.report
    rss_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"servers: {report.n_servers}  shards: 2  "
          f"campaign: {elapsed:.1f} s  rss: {rss_peak / 2**20:.0f} MiB  "
          f"false_precision: {report.ground_truth['false_precision']:.3f}")
    assert report.n_servers >= PAPER_FLEET_MIN
    assert (report.ground_truth["false_precision"]
            >= PAPER_FALSE_PRECISION_MIN), report.ground_truth
    assert paper_scale_row(report) == PAPER_SCALE, (
        paper_scale_row(report), PAPER_SCALE)
    assert elapsed < TIME_TRIPWIRE * CAMPAIGN_PAPER_SCALE_S
    assert elapsed <= PAPER_SCALE_BUDGET_S, (
        f"paper-scale 2-shard campaign took {elapsed:.1f}s; budget is "
        f"{PAPER_SCALE_BUDGET_S:.0f}s")
    assert rss_peak < PEAK_TRIPWIRE * CAMPAIGN_PAPER_SCALE_RSS_PEAK
    assert rss_peak <= PAPER_SCALE_RSS_BUDGET_BYTES, (
        f"paper-scale campaign peaked at {rss_peak / 2**20:.0f} MiB RSS; "
        f"the streaming budget is "
        f"{PAPER_SCALE_RSS_BUDGET_BYTES / 2**20:.0f} MiB — has the "
        f"record list been re-materialised?")


def test_perf_campaign_stream_10k(scenario):
    records = stream_seed_records(scenario)
    floor, _ = min_call_s(
        lambda: stream_peak(scenario, records, STREAM_LARGE), rounds=3)
    assert floor < TIME_TRIPWIRE * CAMPAIGN_STREAM_10K_S
