"""Tests for the always-on verdict service.

The determinism contract under test: a cache hit is byte-identical to a
cold recompute at the same epoch; verdicts are byte-identical at any
batch size, arrival order, or worker count and equal to the audit
pipeline's records; an epoch roll re-evaluates exactly the entries whose
requested landmark panel intersects the quarantine delta, carrying
everything else forward untouched.
"""

import asyncio
import hashlib
import json

import pytest

from repro import config
from repro.experiments import run_audit
from repro.lrucache import CacheInfo, LruCache
from repro.service import (
    ServiceFrontend,
    TopologyEpoch,
    VerdictCache,
    VerdictService,
)
from repro.service.verdict import CachedVerdict, _knob_or

N_SERVERS = 6


@pytest.fixture(scope="module")
def service(scenario):
    """A shared warm service; tests must not roll its epoch."""
    return VerdictService(scenario, seed=0)


@pytest.fixture(scope="module")
def fleet(scenario):
    return scenario.all_servers()[:N_SERVERS]


# -- the shared LRU cache -----------------------------------------------------

class TestLruCache:
    def test_put_get_and_counters(self):
        cache = LruCache(maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.cache_info() == CacheInfo(1, 1, 2, 1, 0)

    def test_eviction_is_least_recently_used(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # b is now the LRU entry
        cache.put("c", 3)
        assert cache.peek("b") is None
        assert cache.peek("a") == 1
        assert cache.cache_info().evictions == 1

    def test_peek_does_not_touch_counters_or_order(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        before = cache.cache_info()
        cache.peek("a")         # must not promote "a"
        assert cache.cache_info() == before
        cache.put("c", 3)
        assert cache.peek("a") is None

    def test_items_snapshot_allows_mutation(self):
        cache = LruCache(maxsize=4)
        for at in range(3):
            cache.put(at, at)
        seen = []
        for key, value in cache.items():
            seen.append(key)
            cache.pop(key)      # epoch-roll idiom: pop while iterating
            cache.put((key, "rekeyed"), value)
        assert seen == [0, 1, 2]
        assert len(cache) == 3

    def test_cache_clear_resets_everything(self):
        cache = LruCache(maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.cache_clear()
        assert cache.cache_info() == CacheInfo(0, 0, 2, 0, 0)
        assert cache.peek("a") is None

    def test_verdict_cache_api_parity_with_cached_audit(self):
        from repro.experiments import cached_audit
        cache = VerdictCache(maxsize=4)
        assert type(cache.cache_info()) is type(cached_audit.cache_info())
        assert cache.cache_info()._fields == (
            "hits", "misses", "maxsize", "currsize", "evictions")
        cache.cache_clear()


# -- epoch digests ------------------------------------------------------------

class _AtlasSubset:
    """A view of an atlas with one landmark removed (substrate churn)."""

    def __init__(self, atlas, dropped: str):
        self._atlas = atlas
        self._dropped = dropped

    def all_landmarks(self):
        return [lm for lm in self._atlas.all_landmarks()
                if lm.name != self._dropped]


class _ScenarioView:
    """The attribute subset TopologyEpoch.capture reads, swappable."""

    def __init__(self, scenario, atlas=None):
        self.network = scenario.network
        self.atlas = atlas if atlas is not None else scenario.atlas
        self.grid = scenario.grid
        self.fault_profile = scenario.fault_profile


class TestTopologyEpoch:
    def test_capture_is_deterministic(self, scenario):
        first = TopologyEpoch.capture(scenario, seed=0)
        second = TopologyEpoch.capture(scenario, seed=0)
        assert first == second

    def test_quarantine_changes_digest_not_substrate(self, scenario):
        base = TopologyEpoch.capture(scenario, seed=0)
        flagged = TopologyEpoch.capture(scenario, seed=0,
                                        quarantined=("anchor-EU-0",))
        assert flagged.substrate_digest == base.substrate_digest
        assert flagged.digest != base.digest
        assert base.quarantine_delta(flagged) == frozenset({"anchor-EU-0"})

    def test_quarantine_delta_is_symmetric_difference(self, scenario):
        left = TopologyEpoch.capture(scenario, seed=0,
                                     quarantined=("a", "b"))
        right = TopologyEpoch.capture(scenario, seed=0,
                                      quarantined=("b", "c"))
        assert left.quarantine_delta(right) == frozenset({"a", "c"})

    def test_seed_changes_substrate(self, scenario):
        base = TopologyEpoch.capture(scenario, seed=0)
        other = TopologyEpoch.capture(scenario, seed=1)
        assert other.substrate_digest != base.substrate_digest

    def test_landmark_churn_changes_substrate(self, scenario):
        name = scenario.atlas.all_landmarks()[0].name
        base = TopologyEpoch.capture(_ScenarioView(scenario), seed=0)
        churned = TopologyEpoch.capture(
            _ScenarioView(scenario, _AtlasSubset(scenario.atlas, name)),
            seed=0)
        assert churned.substrate_digest != base.substrate_digest
        # Substrate churn means nothing can carry forward.
        assert base.quarantine_delta(churned) is None


# -- verdict determinism ------------------------------------------------------

def _region_sha(record) -> str:
    return hashlib.sha256(record.region.packed_bytes()).hexdigest()


class TestVerdictDeterminism:
    def test_matches_audit_pipeline_records(self, service, scenario, fleet):
        result = run_audit(scenario, servers=fleet, seed=0,
                           disambiguate=False)
        responses = service.verdict_batch(fleet)
        for record, response in zip(result.records, responses):
            assert response.hostname == record.server.hostname
            assert response.verdict == record.assessment.verdict.value
            assert response.area_km2 == record.assessment.region_area_km2
            assert response.countries == tuple(
                record.assessment.countries_covered)
            assert response.region_sha256 == _region_sha(record)
            assert response.used_landmarks == tuple(record.landmark_names)
            assert response.degraded == record.degraded

    def test_cache_hit_is_byte_identical(self, service, fleet):
        cold = service.verdict(fleet[0])
        warm = service.verdict(fleet[0])
        assert warm.cached
        assert warm.canonical_json() == cold.canonical_json()

    def test_canonical_json_excludes_volatile_fields(self, service, fleet):
        warm = service.verdict(fleet[0])
        payload = json.loads(warm.canonical_json())
        assert "cached" not in payload
        assert "shed" not in payload
        assert json.loads(warm.to_json())["cached"] is True

    def test_arrival_order_batch_size_and_workers_invariant(
            self, service, scenario, fleet):
        # Hostnames are not unique across a provider's fleet, so
        # responses are keyed by host id.
        baseline = {r.host_id: r.canonical_json()
                    for r in service.verdict_batch(fleet)}
        other = VerdictService(scenario, seed=0, batch_max=3, workers=2)
        for query in reversed(fleet):
            response = other.verdict(query)
            assert response.canonical_json() == baseline[response.host_id]

    def test_new_claim_on_measured_host_skips_measurement(
            self, service, scenario, fleet):
        first = service.verdict(fleet[0])
        claim = next(iso2 for iso2 in scenario.registry.codes()
                     if iso2 not in first.countries)
        measured = service.cache_info()["measurements"]
        response = service.verdict(fleet[0], claim)
        assert response.claim == claim
        assert response.verdict == "false"
        # Same measurement, different assessment: no new misses.
        assert (service.cache_info()["measurements"].misses
                == measured.misses)

    def test_region_of_reuses_measurement(self, service, fleet):
        region = service.region_of(fleet[0])
        sha = hashlib.sha256(region.packed_bytes()).hexdigest()
        assert sha == service.verdict(fleet[0]).region_sha256

    def test_unknown_targets_rejected(self, service):
        with pytest.raises(KeyError):
            service.verdict("no-such-host.example")
        with pytest.raises(KeyError):
            service.verdict(10**9)


# -- epoch rolls --------------------------------------------------------------

class _ListSink:
    def __init__(self):
        self.records = []

    def accept(self, record):
        self.records.append(record)


def _panel_split(service):
    """A landmark in some-but-not-all measured panels + its dependents."""
    panels = {host_id: measurement.requested_landmarks
              for (host_id, _), measurement in service._measurements.items()}
    for name in sorted(set().union(*panels.values())):
        dependents = sorted(h for h, panel in panels.items() if name in panel)
        if 0 < len(dependents) < len(panels):
            return name, dependents
    raise AssertionError("no partially-shared landmark in the panels")


class TestEpochRoll:
    def test_roll_flushes_exactly_dependents(self, scenario):
        rolling = VerdictService(scenario, seed=0)
        fleet = scenario.all_servers()[:10]
        by_host_id = {s.host.host_id: s for s in fleet}
        before = {r.host_id: r for r in rolling.verdict_batch(fleet)}
        name, dependents = _panel_split(rolling)
        sink = _ListSink()

        stats = rolling.roll_epoch(quarantined={name}, sink=sink)
        assert not stats.unchanged and not stats.full_invalidation
        assert stats.delta == (name,)
        assert stats.flushed == len(dependents)
        assert stats.carried_forward == len(fleet) - len(dependents)
        assert stats.reevaluated == len(dependents)
        assert stats.reevaluated_hosts == dependents
        assert [r.server.host.host_id for r in sink.records] == dependents

        # Carried-forward entries answer byte-identically (minus the
        # epoch digest, which necessarily moved).
        for response in rolling.verdict_batch(fleet):
            if response.host_id in dependents:
                continue
            assert response.cached
            old = json.loads(before[response.host_id].canonical_json())
            new = json.loads(response.canonical_json())
            old.pop("epoch_digest"), new.pop("epoch_digest")
            assert old == new

        # Hit-then-recompute identity: a cold service born quarantined
        # agrees byte-for-byte with the rolled warm cache.
        cold = VerdictService(scenario, seed=0, quarantined={name})
        assert cold.epoch.digest == rolling.epoch.digest
        for response in rolling.verdict_batch(fleet):
            cold_answer = cold.verdict(by_host_id[response.host_id])
            assert (cold_answer.canonical_json()
                    == response.canonical_json())

    def test_noop_roll_is_unchanged(self, scenario):
        rolling = VerdictService(scenario, seed=0)
        rolling.verdict(scenario.all_servers()[0])
        stats = rolling.roll_epoch(quarantined=rolling.quarantined)
        assert stats.unchanged
        assert stats.old_digest == stats.new_digest

    def test_unquarantining_restores_the_original_epoch(self, scenario):
        rolling = VerdictService(scenario, seed=0)
        original = rolling.epoch.digest
        rolling.verdict_batch(scenario.all_servers()[:4])
        name, _ = _panel_split(rolling)
        rolling.roll_epoch(quarantined={name}, reaudit=False)
        assert rolling.epoch.digest != original
        stats = rolling.roll_epoch(quarantined=(), reaudit=False)
        assert rolling.epoch.digest == original
        assert stats.delta == (name,)


# -- knobs --------------------------------------------------------------------

class TestServiceKnobs:
    def test_defaults_registered(self):
        assert config.knob("REPRO_SERVICE_CACHE_SLOTS").default == 4096
        assert config.knob("REPRO_SERVICE_BATCH_MAX").default == 32
        assert config.knob("REPRO_SERVICE_QUEUE_MAX").default == 256
        assert config.knob("REPRO_SERVICE_WORKERS").default == 1

    def test_env_override_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_BATCH_MAX", "7")
        assert _knob_or("REPRO_SERVICE_BATCH_MAX", None) == 7

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_BATCH_MAX", "7")
        assert _knob_or("REPRO_SERVICE_BATCH_MAX", 3) == 3

    def test_zero_env_means_declared_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_QUEUE_MAX", "0")
        assert _knob_or("REPRO_SERVICE_QUEUE_MAX", None) == 256

    def test_invalid_override_rejected(self):
        with pytest.raises(ValueError):
            _knob_or("REPRO_SERVICE_WORKERS", 0)

    def test_invalid_env_value_raises_knob_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_WORKERS", "many")
        with pytest.raises(config.KnobError):
            config.env_value("REPRO_SERVICE_WORKERS")


# -- the asyncio frontend -----------------------------------------------------

class TestFrontend:
    def test_enqueue_resolves_and_batches(self, service, fleet):
        async def run():
            frontend = ServiceFrontend(service, queue_max=8, batch_max=4)
            try:
                responses = await asyncio.gather(*(
                    frontend.enqueue((server, None)) for server in fleet))
            finally:
                frontend.close()
            return frontend, responses

        frontend, responses = asyncio.run(run())
        baseline = {r.host_id: r.canonical_json()
                    for r in service.verdict_batch(fleet)}
        for response in responses:
            assert response.canonical_json() == baseline[response.host_id]
        assert frontend.stats.responses == len(fleet)
        assert frontend.stats.shed == 0
        assert frontend.stats.batches >= 1

    def test_overload_sheds_degraded_verdicts(self, service, fleet):
        async def run():
            frontend = ServiceFrontend(service, queue_max=1, batch_max=1)
            frontend._ensure_started()
            frontend._drainer.cancel()  # wedge the backend: nothing drains
            first = asyncio.ensure_future(
                frontend.enqueue((fleet[0].hostname, None)))
            await asyncio.sleep(0)      # let it occupy the queue slot
            shed = await frontend.enqueue((fleet[1].hostname, None))
            first.cancel()
            frontend.close()
            return shed

        shed = asyncio.run(run())
        assert shed.shed
        assert shed.verdict == "degraded"
        assert shed.epoch_digest == service.epoch.digest
        assert "shed" in shed.notes[0]

    def test_tcp_round_trip(self, service, fleet):
        hostname = fleet[0].hostname

        async def run():
            frontend = ServiceFrontend(service, queue_max=8)
            ready = asyncio.Event()
            server_task = asyncio.ensure_future(
                frontend.serve(host="127.0.0.1", port=0, ready=ready))
            await ready.wait()
            host, port = frontend.bound[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(json.dumps({"host": hostname}).encode() + b"\n")
            writer.write(b"this is not json\n")
            await writer.drain()
            verdict_line = await reader.readline()
            error_line = await reader.readline()
            writer.close()
            server_task.cancel()
            frontend.close()
            return json.loads(verdict_line), json.loads(error_line)

        verdict, error = asyncio.run(run())
        expected = json.loads(service.verdict(hostname).to_json())
        assert verdict["hostname"] == hostname
        assert verdict["verdict"] == expected["verdict"]
        assert verdict["region_sha256"] == expected["region_sha256"]
        assert verdict["latency_ms"] >= 0
        assert "error" in error
        assert error["error_type"] == "invalid_json"

    def test_bad_requests_get_typed_errors(self, service, fleet):
        lines = [b"[1, 2]\n", b'{"claim": "DE"}\n',
                 b'{"host": "no-such-host"}\n', b'"just a string"\n',
                 json.dumps({"host": fleet[0].hostname,
                             "claim": "ZZ"}).encode() + b"\n",
                 json.dumps({"host": fleet[0].hostname}).encode() + b"\n"]

        async def run():
            frontend = ServiceFrontend(service, queue_max=8)
            ready = asyncio.Event()
            server_task = asyncio.ensure_future(
                frontend.serve(host="127.0.0.1", port=0, ready=ready))
            await ready.wait()
            reader, writer = await asyncio.open_connection(
                *frontend.bound[:2])
            writer.write(b"".join(lines))
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in lines]
            writer.close()
            server_task.cancel()
            frontend.close()
            return frontend.stats, replies

        stats, replies = asyncio.run(run())
        assert [reply.get("error_type") for reply in replies] == [
            "not_an_object", "missing_host", "unknown_host",
            "not_an_object", "unknown_claim", None]
        assert replies[-1]["hostname"] == fleet[0].hostname
        assert stats.errors == 5 and stats.responses == 1

    def test_oversized_line_answered_then_closed(self, service, fleet):
        """A 70 KiB line overruns asyncio's 64 KiB stream limit: it gets
        one typed error and a closed connection, and the drainer keeps
        answering other connections."""
        hostname = fleet[1].hostname

        async def run():
            frontend = ServiceFrontend(service, queue_max=8)
            ready = asyncio.Event()
            server_task = asyncio.ensure_future(
                frontend.serve(host="127.0.0.1", port=0, ready=ready))
            await ready.wait()
            address = frontend.bound[:2]
            reader, writer = await asyncio.open_connection(*address)
            writer.write(b'{"host": "' + b"x" * (70 * 1024) + b'"}\n')
            await writer.drain()
            error = json.loads(await reader.readline())
            after = await reader.read()           # the server closed
            writer.close()
            reader, writer = await asyncio.open_connection(*address)
            writer.write(json.dumps({"host": hostname}).encode() + b"\n")
            await writer.drain()
            verdict = json.loads(await reader.readline())
            writer.close()
            server_task.cancel()
            frontend.close()
            return frontend.stats, error, after, verdict

        stats, error, after, verdict = asyncio.run(run())
        assert error["error_type"] == "request_too_large"
        assert after == b""
        assert verdict["hostname"] == hostname
        assert verdict["verdict"] == service.verdict(hostname).verdict
        assert stats.errors == 1 and stats.responses == 1


# -- cache introspection ------------------------------------------------------

class TestCacheIntrospection:
    def test_cache_info_shape(self, service, fleet):
        service.verdict(fleet[0])
        info = service.cache_info()
        assert set(info) == {"verdicts", "measurements"}
        assert isinstance(info["verdicts"], CacheInfo)
        assert info["verdicts"].maxsize == service.cache_slots

    def test_cache_clear_preserves_epoch(self, scenario, fleet):
        fresh = VerdictService(scenario, seed=0)
        fresh.verdict(fleet[0])
        digest = fresh.epoch.digest
        fresh.cache_clear()
        assert fresh.epoch.digest == digest
        assert fresh.cache_info()["verdicts"].currsize == 0
        recomputed = fresh.verdict(fleet[0])
        assert not recomputed.cached

    def test_verdict_cache_entries_are_cached_verdicts(self, service, fleet):
        service.verdict(fleet[0])
        ((_, entry), *_rest) = service.verdict_cache.items()
        assert isinstance(entry, CachedVerdict)
