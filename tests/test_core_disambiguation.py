"""Tests for data-centre and metadata disambiguation on crafted records.

The metadata pass runs streaming (``Disambiguator``); every metadata case
is checked against the batch pass kept as
``tests.oracles.disambiguate_by_metadata``.
"""

import copy
from dataclasses import replace

import pytest

from repro.core import (
    AuditRecord,
    ClaimAssessment,
    ContinentVerdict,
    Disambiguator,
    Verdict,
    disambiguate_by_datacenters,
    group_by_metadata,
    metadata_group_key,
    refine_assessments,
)
from repro.experiments import run_audit
from repro.geo import DataCenter, DataCenterRegistry, Region
from repro.geodesy import SphericalDisk
from tests.oracles import disambiguate_by_metadata

#: A registry without data centres: only the metadata pass can act.
NO_DATACENTERS = DataCenterRegistry([])


def streamed_metadata_pass(records):
    """Reclassifications the streaming pass makes (no data centres)."""
    passes = Disambiguator(NO_DATACENTERS)
    for record in records:
        passes.accept(record)
    passes.close()
    assert passes.by_datacenter == 0
    return passes.by_metadata


def make_record(scenario, server, center, radius_km, claimed=None):
    region = scenario.worldmap.clip_to_plausible(
        Region.from_disk(scenario.grid, SphericalDisk(*center, radius_km)))
    covered = scenario.worldmap.countries_covered(region)
    claimed = claimed if claimed is not None else server.claimed_country
    verdict = (Verdict.CREDIBLE if covered == [claimed]
               else Verdict.UNCERTAIN if claimed in covered
               else Verdict.FALSE)
    assessment = ClaimAssessment(
        claimed_country=claimed,
        verdict=verdict,
        continent_verdict=ContinentVerdict.CREDIBLE,
        countries_covered=covered,
    )
    return AuditRecord(server=server, region=region, assessment=assessment,
                       initial_verdict=verdict)


@pytest.fixture()
def uncertain_record(scenario):
    # Region spanning the Iberian peninsula; claim = PT.
    server = scenario.all_servers()[0]
    return make_record(scenario, server, (40.0, -6.0), 600.0, claimed="PT")


class TestDatacenterPass:
    def test_resolves_when_single_dc_country(self, scenario, uncertain_record):
        assert uncertain_record.assessment.verdict is Verdict.UNCERTAIN
        # A registry with data centres only in Spain.
        registry = DataCenterRegistry([DataCenter("ES-only", "ES", 40.42, -3.70)])
        n = disambiguate_by_datacenters([uncertain_record], registry)
        assert n == 1
        assert uncertain_record.assessment.resolved_country == "ES"
        assert uncertain_record.assessment.resolution_method == "datacenter"
        assert uncertain_record.assessment.verdict is Verdict.FALSE

    def test_resolution_can_confirm_claim(self, scenario, uncertain_record):
        registry = DataCenterRegistry([DataCenter("PT-only", "PT", 38.72, -9.14)])
        disambiguate_by_datacenters([uncertain_record], registry)
        assert uncertain_record.assessment.verdict is Verdict.CREDIBLE

    def test_ambiguous_dcs_leave_uncertain(self, scenario, uncertain_record):
        registry = DataCenterRegistry([
            DataCenter("PT", "PT", 38.72, -9.14),
            DataCenter("ES", "ES", 40.42, -3.70),
        ])
        n = disambiguate_by_datacenters([uncertain_record], registry)
        assert n == 0
        assert uncertain_record.assessment.verdict is Verdict.UNCERTAIN

    def test_non_uncertain_records_untouched(self, scenario):
        server = scenario.all_servers()[0]
        record = make_record(scenario, server, (52.5, 13.4), 100.0,
                             claimed="DE")
        assert record.assessment.verdict is Verdict.CREDIBLE
        registry = DataCenterRegistry([DataCenter("FR", "FR", 48.86, 2.35)])
        assert disambiguate_by_datacenters([record], registry) == 0
        assert record.assessment.verdict is Verdict.CREDIBLE


class TestMetadataPass:
    def test_group_key_and_grouping(self, scenario):
        servers = scenario.all_servers()
        records = [make_record(scenario, s, (50.0, 8.0), 300.0)
                   for s in servers[:6]]
        groups = group_by_metadata(records)
        for key, group in groups.items():
            assert all(metadata_group_key(r.server) == key for r in group)

    def test_common_country_resolves_group(self, scenario):
        # Two co-located servers whose regions overlap only in Austria.
        base = scenario.all_servers()
        same_site = [s for s in base
                     if metadata_group_key(s) == metadata_group_key(base[0])]
        if len(same_site) < 2:
            pytest.skip("fleet slice lacks a 2-host site")
        a, b = same_site[:2]

        def pair():
            return [make_record(scenario, a, (48.2, 14.3), 180.0,
                                claimed="AT"),
                    make_record(scenario, b, (47.5, 15.5), 180.0,
                                claimed="DE")]

        record_a, record_b = pair()
        common = (set(record_a.assessment.countries_covered)
                  & set(record_b.assessment.countries_covered))
        if common != {"AT"}:
            pytest.skip("rasterisation gave a different common set")
        n = disambiguate_by_metadata([record_a, record_b])
        resolved = [r for r in (record_a, record_b)
                    if r.assessment.resolution_method == "metadata"]
        assert n == len(resolved)
        for record in resolved:
            assert record.assessment.resolved_country == "AT"
        streamed = pair()
        assert streamed_metadata_pass(streamed) == n
        assert ([r.assessment for r in streamed]
                == [record_a.assessment, record_b.assessment])

    def test_singleton_groups_skipped(self, scenario, uncertain_record):
        n = disambiguate_by_metadata([uncertain_record])
        assert n == 0
        assert streamed_metadata_pass([uncertain_record]) == 0
        assert uncertain_record.assessment.verdict is Verdict.UNCERTAIN

    def test_streaming_matches_batch_on_an_audit(self, scenario):
        """Over a real fleet slice, in fleet order and reversed, the
        streaming passes reclassify exactly what the batch passes do."""
        records = run_audit(scenario, max_servers=150, seed=0,
                            disambiguate=False).records

        def fresh():
            return [replace(r, assessment=copy.deepcopy(r.assessment))
                    for r in records]

        reference = fresh()
        by_datacenter = disambiguate_by_datacenters(reference,
                                                    scenario.datacenters)
        by_metadata = disambiguate_by_metadata(reference)
        assert by_metadata > 0, "slice too small to exercise the pass"
        for order in (1, -1):
            streamed = fresh()
            counts = refine_assessments(streamed[::order],
                                        scenario.datacenters)
            assert counts == {"datacenter": by_datacenter,
                              "metadata": by_metadata,
                              "total": by_datacenter + by_metadata}
            assert ([r.assessment for r in streamed]
                    == [r.assessment for r in reference])


class TestRefineAssessments:
    def test_counts_reported(self, scenario, uncertain_record):
        registry = DataCenterRegistry([DataCenter("ES", "ES", 40.42, -3.70)])
        counts = refine_assessments([uncertain_record], registry)
        assert counts["datacenter"] == 1
        assert counts["total"] == counts["datacenter"] + counts["metadata"]
