"""Sharded streaming campaign orchestrator: paper scale and beyond.

The paper audited 2,269 proxies; a modern audit wants 100k.  The fleet
engine (PR 6) made per-server *compute* flat, so the remaining scale
bottleneck is orchestration memory: a materialized audit holds every
record's packed region (~8 KB each ⇒ ~800 MB at 100k servers) until the
end of the run.  A campaign removes that term:

* a declarative :class:`DeploymentPlan` expands deterministically into
  the fleet slice under audit, which is cut into contiguous shards;
* each shard runs the existing :func:`~repro.experiments.audit.run_audit`
  with its own JSONL journal, **streaming** records through an
  :class:`~repro.experiments.audit.AuditSink` — a record's region is
  garbage the moment it is journalled and tallied, so peak memory is
  O(chunk), not O(fleet);
* a merge step folds the finalized shard journals into one campaign
  journal and streams it through :class:`CampaignAggregator`, producing
  a :class:`CampaignReport` **byte-identical** to a single-shot
  ``run_audit`` of the same fleet, at any shard count, serial or
  parallel, resumed or not.

Byte-identity is possible because every aggregate in the report is
commutative (integer tallies, co-occurrence counts, running group
intersections) and the two disambiguation passes decompose — the same
:class:`~repro.core.disambiguation.Disambiguator` a materialised audit
refines with: the data-centre pass is per-record (applied at accept
time), and the metadata pass needs only each group's running
country-set intersection plus the skeletons of still-uncertain records —
never their regions.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.disambiguation import AuditRecord, Disambiguator
from ..core.proxy_adapter import EtaEstimate
from ..geo.countries import CONTINENTS
from ..netsim.proxies import ProxyServer
from ..stats.confusion import CooccurrenceMatrix
from .audit import (RecordTally, campaign_eta, fault_environment,
                    record_from_payload, run_audit)
from .checkpoint import AuditCheckpoint, shard_journal_path
from .scenario import Scenario

#: Filename of the merged campaign journal inside the journal directory.
MERGED_JOURNAL = "campaign.jsonl"


# -- deployment plans ---------------------------------------------------------

def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


#: Per plan-file object: each key's expected value, and its test.
_Fields = Dict[str, Tuple[str, Callable[[Any], bool]]]
_TEMPLATE_FIELDS: _Fields = {
    "provider": ("a string", lambda value: isinstance(value, str)),
    "countries": ("a list of country codes", lambda value: isinstance(
        value, list) and all(isinstance(code, str) for code in value)),
    "max_per_country": ("a count >= 0", _is_count),
}
_PLAN_FIELDS: _Fields = {
    "name": ("a string", lambda value: isinstance(value, str)),
    "templates": ("a list", lambda value: isinstance(value, list)),
    "max_servers": ("a count >= 0", _is_count),
}


def _checked(data: Any, fields: _Fields, what: str) -> Dict[str, Any]:
    """``data`` if it is a JSON object of known keys and valid values.

    ``null`` stands for an absent key.  Raises ``ValueError`` naming the
    first fault, so a typo'd key or a mistyped count never silently
    widens or empties the fleet.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"{what} must be a JSON object, got {type(data).__name__}")
    for key, value in data.items():
        if key not in fields:
            raise ValueError(f"{what} has unknown key {key!r}; "
                             f"expected one of {sorted(fields)}")
        expected, valid = fields[key]
        if value is not None and not valid(value):
            raise ValueError(
                f"{what} key {key!r} must be {expected}, got {value!r}")
    return data


@dataclass(frozen=True)
class FleetTemplate:
    """One provider × countries × per-country-cap row of a deployment plan.

    ``None`` fields are wildcards: the default template admits the whole
    fleet.  ``max_per_country`` caps how many servers this template
    accepts per (provider, claimed country) pair — the idiom commercial
    fleet managers use ("3 servers per country per provider").
    """

    provider: Optional[str] = None
    countries: Optional[Tuple[str, ...]] = None
    max_per_country: Optional[int] = None

    def admits(self, server: ProxyServer) -> bool:
        if self.provider is not None and server.provider != self.provider:
            return False
        if (self.countries is not None
                and server.claimed_country not in self.countries):
            return False
        return True

    def to_dict(self) -> dict:
        return {
            "provider": self.provider,
            "countries": list(self.countries) if self.countries else None,
            "max_per_country": self.max_per_country,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "FleetTemplate":
        data = _checked(data, _TEMPLATE_FIELDS, "a plan template")
        countries = data.get("countries")
        return cls(
            provider=data.get("provider"),
            countries=tuple(countries) if countries else None,
            max_per_country=data.get("max_per_country"),
        )


@dataclass(frozen=True)
class DeploymentPlan:
    """A declarative fleet spec that expands deterministically.

    Expansion walks the scenario fleet in its canonical (provider) order
    and admits each server through the first template that matches and
    still has per-country budget; ``max_servers`` (>= 0) truncates the
    overall selection.  The same plan over the same scenario always
    yields the same server list — which is what lets independently
    launched shard processes agree on the shard boundaries without
    coordination.
    """

    name: str = "full-fleet"
    templates: Tuple[FleetTemplate, ...] = (FleetTemplate(),)
    max_servers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_servers is not None and self.max_servers < 0:
            raise ValueError(
                f"max_servers must be >= 0, got {self.max_servers}")

    def expand(self, scenario: Scenario) -> List[ProxyServer]:
        chosen: List[ProxyServer] = []
        taken: Dict[Tuple[int, str, str], int] = {}
        for server in scenario.all_servers():
            if self.max_servers is not None and len(chosen) >= self.max_servers:
                break
            for at, template in enumerate(self.templates):
                if not template.admits(server):
                    continue
                key = (at, server.provider, server.claimed_country)
                count = taken.get(key, 0)
                if (template.max_per_country is not None
                        and count >= template.max_per_country):
                    continue
                taken[key] = count + 1
                chosen.append(server)
                break
        return chosen

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "templates": [template.to_dict() for template in self.templates],
            "max_servers": self.max_servers,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Any) -> "DeploymentPlan":
        """The plan a JSON object describes; ``ValueError`` if malformed."""
        data = _checked(data, _PLAN_FIELDS, "a deployment plan")
        templates = tuple(FleetTemplate.from_dict(entry)
                          for entry in data.get("templates") or [])
        name = data.get("name")
        return cls(
            name="unnamed" if name is None else name,
            templates=templates or (FleetTemplate(),),
            max_servers=data.get("max_servers"),
        )

    @classmethod
    def from_json(cls, text: str) -> "DeploymentPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "DeploymentPlan":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())


def shard_bounds(n_servers: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous, balanced [lo, hi) index ranges, one per shard.

    The first ``n_servers % shards`` shards take one extra server.
    Contiguity matters: concatenating the shard slices reproduces the
    fleet order, so a merge is a pure index-offset remap.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    base, extra = divmod(n_servers, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


# -- streaming aggregation ----------------------------------------------------

class CampaignAggregator:
    """An :class:`AuditSink` that computes the campaign report in one pass.

    Per accepted record: integer tallies and co-occurrence counts are
    updated, and the record goes through a
    :class:`~repro.core.disambiguation.Disambiguator`, which either
    leaves it final — it is *settled* into the tallies at once — or
    holds its skeleton (server, assessment, flags; region and
    observations dropped) while it is still uncertain.  ``close()`` runs
    the deferred metadata pass and settles the skeletons: exactly
    :func:`~repro.core.disambiguation.refine_assessments`, without ever
    holding more than the uncertain skeletons in memory.
    """

    def __init__(self, scenario: Scenario) -> None:
        self._scenario = scenario
        self._settled = RecordTally()
        self._providers: Dict[str, Dict[str, int]] = {}
        self._claimed: Dict[str, int] = {}
        self._country_matrix = CooccurrenceMatrix(scenario.registry.codes())
        self._continent_matrix = CooccurrenceMatrix(list(CONTINENTS))
        self._refine = Disambiguator(scenario.datacenters)
        self.n_accepted = 0
        self._closed = False

    def accept(self, record: AuditRecord) -> None:
        if self._closed:
            raise RuntimeError("aggregator already closed")
        self.n_accepted += 1
        claimed = record.server.claimed_country
        self._claimed[claimed] = self._claimed.get(claimed, 0) + 1
        covered = record.assessment.countries_covered
        if covered:
            # The Appendix A confusion counts, exactly as fig22 builds
            # them — one add_set per record, nothing retained.
            self._country_matrix.add_set(covered)
            self._continent_matrix.add_set(
                self._scenario.registry.continent_of(code)
                for code in covered)
        if self._refine.accept(record):
            self._settle(record)

    def _settle(self, record: AuditRecord) -> None:
        self._settled.add(record)
        provider = self._providers.setdefault(record.server.provider, {})
        verdict = record.assessment.verdict
        assert verdict is not None
        provider[verdict.value] = provider.get(verdict.value, 0) + 1

    def close(self) -> None:
        """Run the deferred metadata pass and settle the skeletons."""
        if self._closed:
            return
        for record in self._refine.close():
            self._settle(record)
        self._closed = True

    def report(self, *, eta: EtaEstimate,
               fault_profile: Optional[str] = None,
               plan_name: str = "full-fleet") -> "CampaignReport":
        self.close()
        continent_pairs = sorted(
            self._continent_matrix.nonzero_pairs(),
            key=lambda entry: (-entry[2], entry[0], entry[1]))
        return CampaignReport(
            plan_name=plan_name,
            n_servers=self.n_accepted,
            fault_profile=fault_profile,
            eta={
                "eta": eta.eta,
                "r_squared": eta.r_squared,
                "n_proxies": eta.n_proxies,
                "n_samples": eta.n_samples,
                "degraded": eta.degraded,
            },
            verdicts_initial=dict(self._settled.verdicts_initial),
            verdicts_final=dict(self._settled.verdicts),
            categories=dict(self._settled.categories),
            reclassified=self._refine.counts(),
            degraded=self._settled.degraded,
            providers={name: dict(counts)
                       for name, counts in self._providers.items()},
            claimed_countries=dict(self._claimed),
            ground_truth=self._settled.ground_truth_accuracy(),
            continent_confusion=[list(entry) for entry in continent_pairs],
        )


class ShardTally:
    """Minimal sink for one shard: pre-disambiguation verdicts only."""

    def __init__(self) -> None:
        self.n_records = 0
        self.degraded = 0
        self.verdicts: Dict[str, int] = {}

    def accept(self, record: AuditRecord) -> None:
        self.add_assessment_verdict(record.assessment.verdict.value,
                                    record.degraded)

    def add_assessment_verdict(self, verdict: str, degraded: bool) -> None:
        self.n_records += 1
        if degraded:
            self.degraded += 1
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1


@dataclass(frozen=True)
class ShardSummary:
    """What one shard run produced (pre-disambiguation, commutative)."""

    shard_index: int
    shards: int
    n_servers: int
    journal_path: str
    verdicts: Dict[str, int]
    degraded: int
    #: True when the shard's journal was already finalized and the run
    #: was skipped (idempotent re-launch of a finished shard).
    skipped: bool = False


@dataclass(frozen=True)
class CampaignReport:
    """The merged campaign result.

    Deliberately contains nothing shard-dependent: every field is a
    commutative aggregate over the fleet, so the same fleet yields the
    same report — and the same ``to_json()`` bytes — at any shard count.
    """

    plan_name: str
    n_servers: int
    fault_profile: Optional[str]
    eta: Dict[str, object]
    verdicts_initial: Dict[str, int]
    verdicts_final: Dict[str, int]
    categories: Dict[str, int]
    reclassified: Dict[str, int]
    degraded: int
    providers: Dict[str, Dict[str, int]]
    claimed_countries: Dict[str, int]
    ground_truth: Dict[str, float]
    continent_confusion: List[list] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "plan_name": self.plan_name,
            "n_servers": self.n_servers,
            "fault_profile": self.fault_profile,
            "eta": self.eta,
            "verdicts_initial": self.verdicts_initial,
            "verdicts_final": self.verdicts_final,
            "categories": self.categories,
            "reclassified": self.reclassified,
            "degraded": self.degraded,
            "providers": self.providers,
            "claimed_countries": self.claimed_countries,
            "ground_truth": self.ground_truth,
            "continent_confusion": self.continent_confusion,
        }

    def to_json(self) -> str:
        """Canonical serialisation — the byte-identity comparison unit."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        data = json.loads(text)
        return cls(**data)


@dataclass(frozen=True)
class CampaignRun:
    """A full orchestrated campaign: the report plus per-shard summaries."""

    report: CampaignReport
    shards: List[ShardSummary]
    merged_journal: Optional[str] = None


# -- orchestration ------------------------------------------------------------

def run_campaign_shard(scenario: Scenario,
                       plan: Optional[DeploymentPlan] = None, *,
                       shards: int, shard_index: int, journal_dir: str,
                       seed: int = 0, workers: int = 1,
                       fault_profile: Optional[object] = None,
                       resume: bool = False) -> ShardSummary:
    """Audit one shard of the plan's fleet, streaming to its journal.

    Records flow through a :class:`ShardTally` sink and the shard's
    JSONL journal; nothing is materialized.  The journal is finalized
    (atomic, index-sorted) on completion — the form the merge step
    requires.  With ``resume``, a shard whose journal is already
    finalized is skipped entirely (the summary is re-tallied from the
    journal), and a partial journal continues where it was killed.
    """
    plan = plan or DeploymentPlan()
    servers = plan.expand(scenario)
    bounds = shard_bounds(len(servers), shards)
    lo, hi = bounds[shard_index]
    shard_servers = servers[lo:hi]
    path = shard_journal_path(journal_dir, shard_index, shards)
    profile, _ = fault_environment(scenario, seed, fault_profile)
    tally = ShardTally()
    checkpoint = AuditCheckpoint.for_fleet(
        path, shard_servers, seed=seed, profile=profile,
        n_cells=scenario.worldmap.grid.n_cells)
    if resume and checkpoint.is_final:
        for payload in checkpoint.iter_payloads():
            assert payload.assessment is not None
            tally.add_assessment_verdict(payload.assessment.verdict.value,
                                         payload.degraded)
        skipped = True
    else:
        run_audit(scenario, servers=shard_servers, seed=seed,
                  workers=workers, fault_profile=fault_profile,
                  disambiguate=False, checkpoint_path=path, resume=resume,
                  sink=tally, finalize_checkpoint=True)
        skipped = False
    return ShardSummary(
        shard_index=shard_index,
        shards=shards,
        n_servers=len(shard_servers),
        journal_path=path,
        verdicts=dict(tally.verdicts),
        degraded=tally.degraded,
        skipped=skipped,
    )


def merge_campaign(scenario: Scenario,
                   plan: Optional[DeploymentPlan] = None, *,
                   shards: int, journal_dir: str, seed: int = 0,
                   fault_profile: Optional[object] = None) -> CampaignReport:
    """Fold finalized shard journals into the campaign report.

    The merged journal (``campaign.jsonl`` in ``journal_dir``) is
    byte-identical to a finalized single-shot journal of the whole
    fleet; the report comes from streaming it through
    :class:`CampaignAggregator` one record at a time, so merge memory is
    O(uncertain records), independent of fleet size.
    """
    plan = plan or DeploymentPlan()
    servers = plan.expand(scenario)
    profile, injector = fault_environment(scenario, seed, fault_profile)
    grid = scenario.worldmap.grid
    merged = AuditCheckpoint.for_fleet(
        os.path.join(journal_dir, MERGED_JOURNAL), servers, seed=seed,
        profile=profile, n_cells=grid.n_cells)
    merged.merge_from([
        AuditCheckpoint.for_fleet(
            shard_journal_path(journal_dir, index, shards), servers[lo:hi],
            seed=seed, profile=profile, n_cells=grid.n_cells)
        for index, (lo, hi) in enumerate(shard_bounds(len(servers), shards))])
    aggregator = CampaignAggregator(scenario)
    for payload in merged.iter_payloads():
        aggregator.accept(record_from_payload(servers[payload.index], grid,
                                              payload))
    return aggregator.report(
        eta=campaign_eta(scenario, seed, profile, injector),
        fault_profile=profile.name if profile is not None else None,
        plan_name=plan.name)


def run_campaign(scenario: Scenario,
                 plan: Optional[DeploymentPlan] = None, *,
                 shards: int = 1, workers: int = 1,
                 seed: int = 0, fault_profile: Optional[object] = None,
                 journal_dir: Optional[str] = None,
                 resume: bool = False) -> CampaignRun:
    """Run every shard, then merge: the one-call campaign entry point.

    Without a ``journal_dir`` the journals live in a temporary directory
    that is removed after the merge (the report survives, the journals
    do not); resuming across calls needs an explicit ``journal_dir``.
    """
    plan = plan or DeploymentPlan()
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    cleanup: Optional[tempfile.TemporaryDirectory] = None
    if journal_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-campaign-")
        journal_dir = cleanup.name
    try:
        summaries = [
            run_campaign_shard(scenario, plan, shards=shards,
                               shard_index=index, journal_dir=journal_dir,
                               seed=seed, workers=workers,
                               fault_profile=fault_profile, resume=resume)
            for index in range(shards)]
        report = merge_campaign(scenario, plan, shards=shards,
                                journal_dir=journal_dir, seed=seed,
                                fault_profile=fault_profile)
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    merged = (None if cleanup is not None
              else os.path.join(journal_dir, MERGED_JOURNAL))
    return CampaignRun(report=report, shards=summaries, merged_journal=merged)


def single_shot_report(scenario: Scenario,
                       plan: Optional[DeploymentPlan] = None, *,
                       seed: int = 0, workers: int = 1,
                       fault_profile: Optional[object] = None
                       ) -> CampaignReport:
    """The byte-identity reference: one unsharded, materialized audit.

    Runs the legacy (list-returning) ``run_audit`` path and feeds the
    records through the same aggregator the merge uses.  Campaign
    correctness is defined as ``run_campaign(...).report.to_json() ==
    single_shot_report(...).to_json()`` for every shard count.
    """
    plan = plan or DeploymentPlan()
    servers = plan.expand(scenario)
    result = run_audit(scenario, servers=servers, seed=seed, workers=workers,
                       fault_profile=fault_profile, disambiguate=False)
    aggregator = CampaignAggregator(scenario)
    for record in result.records:
        aggregator.accept(record)
    return aggregator.report(eta=result.eta,
                             fault_profile=result.fault_profile,
                             plan_name=plan.name)
