"""The sharded streaming campaign orchestrator.

The contract under test: ``run_campaign(...).report.to_json()`` is
byte-identical to ``single_shot_report(...)`` — at any shard count,
serial or parallel, resumed after a mid-shard kill or not, with or
without fault injection — and the merged campaign journal is
byte-identical to a finalized single-shot journal of the same fleet.
"""

import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments import (DeploymentPlan, FleetTemplate, run_campaign,
                               run_campaign_shard, merge_campaign,
                               single_shot_report, run_audit)
from repro.experiments.campaign import (MERGED_JOURNAL, ShardTally,
                                        shard_bounds)
from repro.experiments.checkpoint import (AuditCheckpoint, CheckpointMismatch,
                                          shard_journal_path)
from repro.experiments.scenario import SMALL_CROWD_QUOTAS, build_scenario
from repro.service import VerdictService

PLAN = DeploymentPlan(name="slice-60", max_servers=60)
SMALL_PLAN = DeploymentPlan(name="slice-36", max_servers=36)
N_SHARDS = 3


@pytest.fixture(scope="module")
def reference_report(scenario):
    """The byte-identity reference: one unsharded, materialized audit."""
    return single_shot_report(scenario, PLAN, seed=0)


@pytest.fixture(scope="module")
def campaign_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("campaign"))


@pytest.fixture(scope="module")
def sharded_run(scenario, campaign_dir):
    """A persisted 3-shard campaign whose journals the tests dissect."""
    return run_campaign(scenario, PLAN, shards=N_SHARDS,
                        journal_dir=campaign_dir)


# -- shard geometry -----------------------------------------------------------

class TestShardBounds:
    def test_contiguous_and_complete(self):
        bounds = shard_bounds(13, 4)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 13
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_balanced_within_one(self):
        sizes = [hi - lo for lo, hi in shard_bounds(13, 4)]
        assert sizes == [4, 3, 3, 3]

    def test_single_shard_is_whole_fleet(self):
        assert shard_bounds(7, 1) == [(0, 7)]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            shard_bounds(5, 0)


# -- deployment plans ---------------------------------------------------------

class TestDeploymentPlan:
    def test_expansion_is_deterministic(self, scenario):
        first = [server.host.host_id for server in PLAN.expand(scenario)]
        second = [server.host.host_id for server in PLAN.expand(scenario)]
        assert first == second
        assert len(first) == 60

    def test_max_servers_truncates_prefix(self, scenario):
        full = DeploymentPlan(max_servers=80).expand(scenario)
        assert PLAN.expand(scenario) == full[:60]

    def test_zero_cap_selects_no_servers(self, scenario):
        assert DeploymentPlan(max_servers=0).expand(scenario) == []
        assert len(DeploymentPlan(max_servers=1).expand(scenario)) == 1

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="max_servers"):
            DeploymentPlan(max_servers=-5)

    def test_provider_template_filters(self, scenario):
        provider = scenario.all_servers()[0].provider
        plan = DeploymentPlan(
            name="one-provider",
            templates=(FleetTemplate(provider=provider),))
        servers = plan.expand(scenario)
        assert servers
        assert all(server.provider == provider for server in servers)

    def test_per_country_cap_enforced(self, scenario):
        plan = DeploymentPlan(
            name="capped", templates=(FleetTemplate(max_per_country=2),))
        counts = {}
        for server in plan.expand(scenario):
            key = (server.provider, server.claimed_country)
            counts[key] = counts.get(key, 0) + 1
        assert counts
        assert max(counts.values()) <= 2

    def test_json_round_trip(self):
        plan = DeploymentPlan(
            name="eu-sample",
            templates=(FleetTemplate(provider="anonine",
                                     countries=("SE", "DE"),
                                     max_per_country=3),
                       FleetTemplate()),
            max_servers=120)
        assert DeploymentPlan.from_json(plan.to_json()) == plan


# -- byte-identity with the single-shot audit ---------------------------------

class TestByteIdentity:
    def test_three_shard_run_matches_reference(self, sharded_run,
                                               reference_report):
        assert sharded_run.report.to_json() == reference_report.to_json()

    @pytest.mark.parametrize("shards", [1, 7])
    def test_any_shard_count_matches(self, scenario, reference_report,
                                     shards):
        run = run_campaign(scenario, PLAN, shards=shards)
        assert run.report.to_json() == reference_report.to_json()

    def test_parallel_shards_match(self, scenario, reference_report):
        run = run_campaign(scenario, PLAN, shards=2, workers=2)
        assert run.report.to_json() == reference_report.to_json()

    def test_merged_journal_matches_single_shot_journal(self, scenario,
                                                        sharded_run,
                                                        tmp_path):
        single = str(tmp_path / "single.jsonl")
        run_audit(scenario, servers=PLAN.expand(scenario), seed=0,
                  disambiguate=False, checkpoint_path=single,
                  sink=ShardTally(), finalize_checkpoint=True)
        with open(single, "rb") as handle:
            expected = handle.read()
        with open(sharded_run.merged_journal, "rb") as handle:
            merged = handle.read()
        assert merged == expected

    def test_shard_summaries_cover_fleet(self, sharded_run):
        assert [s.shard_index for s in sharded_run.shards] == [0, 1, 2]
        assert sum(s.n_servers for s in sharded_run.shards) == 60
        assert not any(s.skipped for s in sharded_run.shards)

    def test_report_json_round_trips(self, sharded_run):
        from repro.experiments import CampaignReport
        text = sharded_run.report.to_json()
        assert CampaignReport.from_json(text).to_json() == text

    def test_streaming_matches_disambiguated_audit(self, scenario,
                                                   sharded_run):
        """The decomposed (per-record DC pass + group-intersection
        metadata pass) disambiguation equals the legacy batch passes."""
        legacy = run_audit(scenario, servers=PLAN.expand(scenario), seed=0,
                           disambiguate=True)
        assert sharded_run.report.verdicts_final == legacy.verdict_counts()
        assert sharded_run.report.reclassified == legacy.reclassified


# -- resume and finalize durability -------------------------------------------

def _unfinalize(path, kill):
    """Rewrite a finalized journal as what a kill mid-shard left on disk:
    ``kill`` maps the header line without the finality marker and the
    record lines to the journal's remains."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    header = json.loads(lines[0])
    header.pop("complete")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(kill(json.dumps(header) + "\n", lines[1:]))


#: What a kill (or a stray writer) can leave of a shard journal: five
#: intact records and a tail that is not a record, or a cut header.
KILLED_JOURNALS = {
    "half-written-record":
        lambda header, rows: header + "".join(rows[:5]) + rows[5][:30],
    "record-without-newline":
        lambda header, rows: header + "".join(rows[:6])[:-1],
    "empty-object-line":
        lambda header, rows: header + "".join(rows[:5]) + "{}\n",
    "json-array-line":
        lambda header, rows: header + "".join(rows[:5]) + "[1]\n",
    "empty-journal": lambda header, rows: "",
    "half-written-header": lambda header, rows: header[:20],
}


class TestResume:
    def test_finalized_shard_skipped_idempotently(self, scenario,
                                                  campaign_dir, sharded_run):
        again = run_campaign_shard(scenario, PLAN, shards=N_SHARDS,
                                   shard_index=0, journal_dir=campaign_dir,
                                   resume=True)
        assert again.skipped
        assert again.verdicts == sharded_run.shards[0].verdicts
        assert again.degraded == sharded_run.shards[0].degraded

    @pytest.mark.parametrize("kill", list(KILLED_JOURNALS))
    def test_resume_mid_shard_byte_identical(self, scenario,
                                             reference_report, tmp_path,
                                             kill):
        directory = str(tmp_path)
        first = run_campaign(scenario, PLAN, shards=2,
                             journal_dir=directory)
        assert first.report.to_json() == reference_report.to_json()
        _unfinalize(shard_journal_path(directory, 0, 2), KILLED_JOURNALS[kill])
        resumed = run_campaign(scenario, PLAN, shards=2,
                               journal_dir=directory, resume=True)
        assert resumed.report.to_json() == reference_report.to_json()
        assert [s.skipped for s in resumed.shards] == [False, True]
        with open(first.merged_journal, "rb") as handle:
            merged = handle.read()
        single = str(tmp_path / "single.jsonl")
        run_audit(scenario, servers=PLAN.expand(scenario), seed=0,
                  disambiguate=False, checkpoint_path=single,
                  sink=ShardTally(), finalize_checkpoint=True)
        with open(single, "rb") as handle:
            assert merged == handle.read()

    def test_torn_finalized_journal_rejected(self, scenario, campaign_dir,
                                             sharded_run, tmp_path):
        """A finalized journal with a chopped record line is torn or
        tampered — resume must refuse it loudly, not re-run quietly."""
        source = shard_journal_path(campaign_dir, 1, N_SHARDS)
        target = shard_journal_path(str(tmp_path), 1, N_SHARDS)
        with open(source, "rb") as handle:
            data = handle.read()
        with open(target, "wb") as handle:
            handle.write(data[:-40])
        with pytest.raises(CheckpointMismatch, match="torn or tampered"):
            run_campaign_shard(scenario, PLAN, shards=N_SHARDS,
                               shard_index=1, journal_dir=str(tmp_path),
                               resume=True)


class TestAtomicFinalize:
    def _shard0_checkpoint(self, scenario, campaign_dir, path):
        servers = PLAN.expand(scenario)
        lo, hi = shard_bounds(len(servers), N_SHARDS)[0]
        return AuditCheckpoint.for_fleet(
            path, servers[lo:hi], seed=0, profile=None,
            n_cells=scenario.worldmap.grid.n_cells)

    def test_incomplete_journal_refuses_finalize(self, scenario,
                                                 campaign_dir, sharded_run,
                                                 tmp_path):
        """finalize() on a journal missing records must raise and leave
        the journal untouched (no half-written replacement)."""
        source = shard_journal_path(campaign_dir, 0, N_SHARDS)
        target = str(tmp_path / "partial.jsonl")
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        header = json.loads(lines[0])
        header.pop("complete")
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for line in lines[1:6]:
                handle.write(line + "\n")
        with open(target, "rb") as handle:
            before = handle.read()
        checkpoint = self._shard0_checkpoint(scenario, campaign_dir, target)
        with pytest.raises(CheckpointMismatch, match="cannot finalize"):
            checkpoint.finalize()
        with open(target, "rb") as handle:
            assert handle.read() == before
        assert os.listdir(tmp_path) == ["partial.jsonl"]

    def test_finalize_idempotent(self, scenario, campaign_dir, sharded_run):
        path = shard_journal_path(campaign_dir, 0, N_SHARDS)
        with open(path, "rb") as handle:
            before = handle.read()
        checkpoint = self._shard0_checkpoint(scenario, campaign_dir, path)
        checkpoint.finalize()
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_is_final_reflects_marker(self, scenario, campaign_dir,
                                      sharded_run, tmp_path):
        path = shard_journal_path(campaign_dir, 0, N_SHARDS)
        checkpoint = self._shard0_checkpoint(scenario, campaign_dir, path)
        assert checkpoint.is_final
        fresh = self._shard0_checkpoint(scenario, campaign_dir,
                                        str(tmp_path / "missing.jsonl"))
        assert not fresh.is_final


MERGE_PLAN = DeploymentPlan(name="slice-12", max_servers=12)

#: Damage to one record line of a finalized shard journal, or to its end.
MUTATIONS = ("drop", "copy-over", "swap", "empty-object", "json-array",
             "reordered-keys", "strip-newline", "truncate")


def _mutate(journal, kind, i, j, cut):
    """``journal`` (bytes) with ``kind`` applied to record lines ``i``
    and ``j``, or cut at byte ``cut`` (modulo its length)."""
    if kind == "strip-newline":
        return journal[:-1]
    if kind == "truncate":
        return journal[:cut % len(journal)]
    header, *rows = journal.splitlines(keepends=True)
    i, j = i % len(rows), j % len(rows)
    if kind == "drop":
        del rows[i]
    elif kind == "copy-over":
        rows[i] = rows[j]
    elif kind == "swap":
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "empty-object":
        rows[i] = b"{}\n"
    elif kind == "json-array":
        rows[i] = b"[1]\n"
    else:
        fields = list(json.loads(rows[i]).items())
        rows[i] = (json.dumps(dict(reversed(fields))) + "\n").encode()
    return header + b"".join(rows)


class TestCorruptShardMerge:
    """A finalized shard journal either merges into the uninterrupted
    campaign's report and bytes or raises CheckpointMismatch — never a
    different result, another exception, or a leftover temporary file."""

    @pytest.fixture(scope="class")
    def journals(self, scenario, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("merge"))
        run = run_campaign(scenario, MERGE_PLAN, shards=2,
                           journal_dir=directory)
        shards = []
        for index in range(2):
            with open(shard_journal_path(directory, index, 2), "rb") as handle:
                shards.append(handle.read())
        with open(run.merged_journal, "rb") as handle:
            return shards, run.report.to_json(), handle.read()

    @given(shard=st.integers(0, 1), kind=st.sampled_from(MUTATIONS),
           i=st.integers(0, 5), j=st.integers(0, 5), cut=st.integers(0))
    @example(shard=0, kind="copy-over", i=1, j=2, cut=0)
    @example(shard=1, kind="swap", i=0, j=3, cut=0)
    @example(shard=0, kind="empty-object", i=2, j=0, cut=0)
    @example(shard=1, kind="json-array", i=4, j=0, cut=0)
    @example(shard=0, kind="reordered-keys", i=3, j=0, cut=0)
    @example(shard=1, kind="truncate", i=0, j=0, cut=10**9)
    @settings(max_examples=60, deadline=None)
    def test_mutated_shard_never_merges_differently(self, scenario, journals,
                                                    shard, kind, i, j, cut):
        shards, report, merged = journals
        with tempfile.TemporaryDirectory() as directory:
            for index, journal in enumerate(shards):
                if index == shard:
                    journal = _mutate(journal, kind, i, j, cut)
                with open(shard_journal_path(directory, index, 2),
                          "wb") as handle:
                    handle.write(journal)
            target = os.path.join(directory, MERGED_JOURNAL)
            try:
                got = merge_campaign(scenario, MERGE_PLAN, shards=2,
                                     journal_dir=directory)
            except CheckpointMismatch:
                assert not os.path.exists(target)
            else:
                assert got.to_json() == report
                with open(target, "rb") as handle:
                    assert handle.read() == merged
            assert not [name for name in os.listdir(directory)
                        if name.endswith(".tmp")]


# -- fault injection across shards --------------------------------------------

class TestFaultedCampaign:
    def test_lossy_wan_shard_invariant(self, scenario):
        reference = single_shot_report(scenario, SMALL_PLAN, seed=0,
                                       fault_profile="lossy-wan")
        sharded = run_campaign(scenario, SMALL_PLAN, shards=3,
                               fault_profile="lossy-wan")
        assert sharded.report.to_json() == reference.to_json()
        assert sharded.report.fault_profile == "lossy-wan"

    def test_merge_only_rebuild_matches(self, scenario, campaign_dir,
                                        sharded_run):
        """A fresh-process merge (journals only, no in-memory state)
        reproduces the report — the multi-invocation CLI workflow."""
        rebuilt = merge_campaign(scenario, PLAN, shards=N_SHARDS,
                                 journal_dir=campaign_dir)
        assert rebuilt.to_json() == sharded_run.report.to_json()


class TestExplicitNullProfile:
    """``fault_profile="none"`` means fault-free everywhere, even over a
    scenario whose own profile is lossy-wan: each entry point resolves
    the argument once, and a resolved fault-free profile is never
    mistaken for "use the scenario's own"."""

    SLICE = DeploymentPlan(name="slice-8", max_servers=8)

    @staticmethod
    def _world(fault_profile):
        return build_scenario(
            seed=3, proxy_scale=0.1,
            anchor_quotas={"EU": 12, "NA": 6, "AS": 4},
            probe_quotas={"EU": 10, "NA": 6},
            crowd_quotas=SMALL_CROWD_QUOTAS, fault_profile=fault_profile)

    @pytest.fixture(scope="class")
    def lossy(self):
        return self._world("lossy-wan")

    @pytest.fixture(scope="class")
    def clean(self):
        return self._world(None)

    def test_campaign_matches_single_shot(self, lossy, clean):
        reference = single_shot_report(lossy, self.SLICE, fault_profile="none")
        run = run_campaign(lossy, self.SLICE, shards=2, fault_profile="none")
        assert run.report.fault_profile is None
        assert run.report.to_json() == reference.to_json()
        assert reference.to_json() == single_shot_report(
            clean, self.SLICE).to_json()

    def test_audit_is_fault_free(self, lossy, clean):
        def signature(world, **kwargs):
            result = run_audit(world, servers=self.SLICE.expand(world),
                               disambiguate=False, **kwargs)
            return result.fault_profile, [
                (record.region.packed_bytes(), record.degraded)
                for record in result.records]
        assert signature(lossy, fault_profile="none") == signature(clean)

    def test_service_keeps_epoch_and_verdicts(self, lossy):
        service = VerdictService(lossy, fault_profile="none")
        responses = service.verdict_batch(self.SLICE.expand(lossy))
        verdicts = "".join(response.canonical_json()
                           for response in responses)
        assert service.epoch.digest.startswith("e098a9d97d527ea9")
        assert hashlib.sha256(verdicts.encode()).hexdigest().startswith(
            "863503075c506263")
