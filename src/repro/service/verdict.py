"""The verdict service core: epoch-keyed caching over batched audits.

:class:`VerdictService` answers "is this proxy's claimed location
credible?" out of two bounded caches layered over the fleet audit
machinery:

* a **measurement cache** keyed ``(host_id, epoch_digest)`` holding the
  measurement kernel's :class:`ServerPayload` without its observations:
  the packed multilateration region plus the landmark names the
  measurement *requested* — the dependency set epoch rolls invalidate
  by; and
* a verdict cache keyed ``(host_id, epoch_digest, claim)`` holding the
  finished assessment, so re-asking about a different country for an
  already-measured host costs one region/country intersection, not a
  measurement.

Both are :class:`repro.lrucache.LruCache` instances, the implementation
behind ``cached_audit`` too.

Uncached queries are coalesced into micro-batches and measured by the
audit's own kernel (:func:`repro.experiments.audit.measure_chunk`):
each micro-batch is multilaterated in one ``predict_fleet`` sweep, and
measurement streams stay keyed by ``(seed, host_id)``, so a verdict is
byte-identical to the corresponding audit record's assessment at any
batch size, arrival order, or worker count, and a cache hit is
byte-identical to a cold recompute at the same epoch.

Quarantine is a *measure-time filter*: phase panels are selected first
(pool-size-dependent ``rng.choice`` draws untouched), then quarantined
names are dropped from the probe list.  That is what makes incremental
re-audit sound — a server whose requested panel is disjoint from a
quarantine delta sees identical probe lists, consumes identical RNG
draws, and its cached verdict carries forward to the new epoch
unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple, Union)

from ..core.assessment import assess_claim
from ..core.cbgpp import CBGPlusPlus
from ..core.twophase import TwoPhaseDriver, TwoPhaseSelector
from ..experiments.audit import (AuditSink, MeasureContext, campaign_eta,
                                 fault_environment, record_from_payload,
                                 run_chunks)
from ..experiments.checkpoint import ServerPayload
from ..experiments.scenario import Scenario
from ..geo.region import Region
from ..lrucache import CacheInfo, LruCache
from ..netsim.proxies import ProxyServer
from .epoch import EpochRollStats, TopologyEpoch

#: A query target: a server object, a fleet host id, or a hostname.
Target = Union[ProxyServer, int, str]

#: A verdict query: a bare target (claim defaults to the server's own
#: claimed country) or a ``(target, claim)`` pair.
Query = Union[Target, Tuple[Target, Optional[str]]]


@dataclass(frozen=True)
class CachedVerdict:
    """One finished claim assessment plus the measurement behind it."""

    measurement: ServerPayload
    verdict: str
    continent_verdict: str
    countries: Tuple[str, ...]
    area_km2: float


@dataclass(frozen=True)
class VerdictResponse:
    """Everything one claim query returns.

    :meth:`canonical_json` serialises only the deterministic payload —
    ``cached`` and ``shed`` describe how this particular response was
    produced, not what the verdict is, and are excluded so byte-identity
    can be asserted across cold, cached, and batched paths.
    """

    hostname: str
    host_id: int
    claim: str
    verdict: str
    continent_verdict: str
    countries: Tuple[str, ...]
    area_km2: float
    deduced_continent: str
    used_landmarks: Tuple[str, ...]
    degraded: bool
    notes: Tuple[str, ...]
    epoch_digest: str
    region_sha256: str
    #: Served straight from the verdict cache.
    cached: bool = False
    #: Shed under overload instead of evaluated.
    shed: bool = False

    _VOLATILE = ("cached", "shed")

    def canonical_json(self) -> str:
        """Deterministic serialisation of the verdict payload."""
        payload = asdict(self)
        for name in self._VOLATILE:
            del payload[name]
        return json.dumps(payload, sort_keys=True)

    def to_json(self) -> str:
        """Full wire serialisation (volatile fields included)."""
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def shed_response(cls, hostname: str, claim: str,
                      epoch_digest: str) -> "VerdictResponse":
        """The degraded verdict an overloaded frontend sheds with."""
        return cls(hostname=hostname, host_id=-1, claim=claim,
                   verdict="degraded", continent_verdict="unknown",
                   countries=(), area_km2=0.0, deduced_continent="unknown",
                   used_landmarks=(), degraded=True,
                   notes=("service overloaded: request shed",),
                   epoch_digest=epoch_digest, region_sha256="",
                   cached=False, shed=True)


class VerdictService:
    """A long-running claim-credibility oracle over one warmed scenario.

    Construction does all the expensive work once — fault-profile
    resolution, the whole-fleet η fit, a batched Dijkstra warming every
    router a measurement can touch — and captures the result under a
    :class:`TopologyEpoch` digest.  After that, :meth:`verdict` and
    :meth:`verdict_batch` answer queries from the caches, micro-batching
    whatever is genuinely uncached into single ``predict_fleet`` sweeps.

    The service is deliberately socket-free; wrap it in
    :class:`repro.service.frontend.ServiceFrontend` (or ``repro serve``)
    for network access.
    """

    def __init__(self, scenario: Scenario, seed: int = 0,
                 fault_profile: Optional[object] = None,
                 cache_slots: int = 4096,
                 batch_max: int = 32,
                 workers: int = 1,
                 quarantined: Iterable[str] = ()) -> None:
        """``cache_slots`` bounds each cache layer, ``batch_max`` is the
        largest micro-batch one ``predict_fleet`` sweep measures, and
        ``workers`` the fork-pool size (1 measures in process); verdicts
        are byte-identical at any of these settings."""
        for name, size in (("cache_slots", cache_slots),
                           ("batch_max", batch_max), ("workers", workers)):
            if size < 1:
                raise ValueError(f"{name} must be >= 1, got {size!r}")
        self.scenario = scenario
        self.seed = seed
        profile, self._injector = fault_environment(scenario, seed,
                                                    fault_profile)
        self._profile_name = profile.name if profile is not None else None
        self.algorithm = CBGPlusPlus(scenario.calibrations, scenario.worldmap)
        self._driver = TwoPhaseDriver(
            TwoPhaseSelector(scenario.atlas, seed=seed), self.algorithm)
        self.cache_slots = cache_slots
        self.batch_max = batch_max
        self.workers = workers
        servers = scenario.all_servers()
        self._by_host_id = {s.host.host_id: s for s in servers}
        self._by_hostname = {s.hostname: s for s in servers}
        # One batched Dijkstra warms every row a query can touch, before
        # any worker pool forks — children inherit the rows
        # copy-on-write.  This is the single warm-up the examples used
        # to duplicate per request.
        scenario.network.warm_paths(
            [scenario.client]
            + [lm.host for lm in scenario.atlas.all_landmarks()]
            + [s.host for s in servers])
        if workers > 1:
            # Every bestline too: fitted in a worker, it would die with
            # the pool and miss ``repro serve --warm``'s snapshot save.
            scenario.calibrations.fit_bestlines(self.algorithm.apply_slowline)
        self.eta = campaign_eta(scenario, seed, profile, self._injector)
        self._quarantined: FrozenSet[str] = frozenset(quarantined)
        self.epoch = TopologyEpoch.capture(
            scenario, seed, self._profile_name, self._quarantined)
        self.verdict_cache: "LruCache[Tuple[int, str, str], CachedVerdict]" \
            = LruCache(maxsize=cache_slots)
        self._measurements: "LruCache[Tuple[int, str], ServerPayload]" = \
            LruCache(maxsize=cache_slots)

    # -- query API ------------------------------------------------------------

    def verdict(self, target: Target,
                claim: Optional[str] = None) -> VerdictResponse:
        """One claim verdict (claim defaults to the server's own)."""
        return self.verdict_batch([(target, claim)])[0]

    def verdict_batch(self, queries: Sequence[Query]
                      ) -> List[VerdictResponse]:
        """Verdicts for many queries, coalescing uncached measurement.

        Each query is a target (server / fleet host id / hostname) or a
        ``(target, claim)`` pair; ``claim=None`` means the server's own
        claimed country.  Responses come back in query order and are
        byte-identical (per :meth:`VerdictResponse.canonical_json`) no
        matter how the queries are split across calls or workers.
        """
        normalized = [self._normalize(query) for query in queries]
        digest = self.epoch.digest
        responses: List[Optional[VerdictResponse]] = [None] * len(normalized)
        pending: List[int] = []
        for at, (server, claim) in enumerate(normalized):
            entry = self.verdict_cache.get(
                (server.host.host_id, digest, claim))
            if entry is not None:
                responses[at] = self._response(server, claim, entry,
                                               cached=True)
            else:
                pending.append(at)

        # Second chance: an already-measured host queried with a new
        # claim needs only a region/country intersection.
        unmeasured: Dict[int, ProxyServer] = {}
        missing: List[int] = []
        for at in pending:
            server, claim = normalized[at]
            host_id = server.host.host_id
            measurement = self._measurements.get((host_id, digest))
            if measurement is not None:
                responses[at] = self._resolve(server, claim, measurement)
            else:
                unmeasured.setdefault(host_id, server)
                missing.append(at)

        if missing:
            # Answer from the fresh measurements themselves: the cache
            # may already have evicted the batch's first ones.
            measured = self._measure(unmeasured)
            for at in missing:
                server, claim = normalized[at]
                responses[at] = self._resolve(
                    server, claim, measured[server.host.host_id])
        return [response for response in responses if response is not None]

    def region_of(self, target: Target) -> Region:
        """The multilateration region for a target (measured if needed).

        Read from the measurement cache, not through a verdict: the two
        caches age independently, so a cached verdict does not imply a
        cached measurement.
        """
        server = self.resolve_target(target)
        host_id = server.host.host_id
        measurement = self._measurements.get((host_id, self.epoch.digest))
        if measurement is None:
            measurement = self._measure({host_id: server})[host_id]
        return Region.from_packbits(self.algorithm.grid,
                                    measurement.region_bytes)

    # -- epoch management -----------------------------------------------------

    def roll_epoch(self, quarantined: Optional[Iterable[str]] = None,
                   sink: Optional[AuditSink] = None) -> EpochRollStats:
        """Move to a new epoch, invalidating only dependent entries.

        ``quarantined`` replaces the measure-time exclusion set (None
        keeps the current one — useful after external substrate churn).
        Cached measurements whose requested panel is disjoint from the
        quarantine delta carry forward byte-identically; the rest are
        flushed and re-evaluated immediately in micro-batches, each
        re-audited fleet server streaming an :class:`AuditRecord` through
        ``sink`` (the campaign's sink protocol) rather than
        rematerialising the fleet.  A substrate change
        (landmark churn, topology edits) flushes everything.
        """
        names = frozenset(self._quarantined if quarantined is None
                          else quarantined)
        new = TopologyEpoch.capture(self.scenario, self.seed,
                                    self._profile_name, names)
        old = self.epoch
        stats = EpochRollStats(old_digest=old.digest, new_digest=new.digest)
        if new.digest == old.digest:
            stats.unchanged = True
            return stats
        delta = old.quarantine_delta(new)
        stats.full_invalidation = delta is None
        stats.delta = () if delta is None else tuple(sorted(delta))

        flushed_hosts: Set[int] = set()
        for (host_id, digest), measurement in self._measurements.items():
            self._measurements.pop((host_id, digest))
            if digest != old.digest:
                continue  # a leftover from an even older epoch: dead
            if delta is not None and delta.isdisjoint(
                    measurement.requested_landmarks):
                self._measurements.put((host_id, new.digest), measurement)
                stats.carried_forward += 1
            else:
                flushed_hosts.add(host_id)
                stats.flushed += 1

        flushed_claims: List[Tuple[int, str]] = []
        for (host_id, digest, claim), entry in self.verdict_cache.items():
            self.verdict_cache.pop((host_id, digest, claim))
            if digest != old.digest:
                continue
            if delta is not None and delta.isdisjoint(
                    entry.measurement.requested_landmarks):
                self.verdict_cache.put((host_id, new.digest, claim), entry)
            else:
                flushed_claims.append((host_id, claim))

        self.epoch = new
        self._quarantined = names

        if flushed_hosts:
            # Only fleet servers can be re-audited eagerly; ad-hoc
            # targets (e.g. a web demo visitor) re-measure lazily on
            # their next query.
            targets = {host_id: self._by_host_id[host_id]
                       for host_id in sorted(flushed_hosts)
                       if host_id in self._by_host_id}
            payloads = self._evaluate(targets, assess=sink is not None)
            for host_id in sorted(payloads):
                payload = payloads[host_id]
                self._measurements.put((host_id, new.digest),
                                       _cached(payload))
                stats.reevaluated += 1
                stats.reevaluated_hosts.append(host_id)
                if sink is not None:
                    sink.accept(record_from_payload(
                        self._by_host_id[host_id], self.algorithm.grid,
                        payload))
            for host_id, claim in flushed_claims:
                measurement = self._measurements.peek((host_id, new.digest))
                server = self._by_host_id.get(host_id)
                if measurement is None or server is None:
                    continue
                self.verdict_cache.put(
                    (host_id, new.digest, claim),
                    self._assess(claim, measurement))
        return stats

    # -- introspection --------------------------------------------------------

    def cache_info(self) -> Dict[str, CacheInfo]:
        """Counters for both cache layers, benchmark-consumable."""
        return {"verdicts": self.verdict_cache.cache_info(),
                "measurements": self._measurements.cache_info()}

    def cache_clear(self) -> None:
        """Drop both cache layers (the epoch is unaffected)."""
        self.verdict_cache.cache_clear()
        self._measurements.cache_clear()

    @property
    def quarantined(self) -> FrozenSet[str]:
        return self._quarantined

    # -- evaluation back end --------------------------------------------------

    def _normalize(self, query: Query) -> Tuple[ProxyServer, str]:
        if isinstance(query, tuple):
            target, claim = query
        else:
            target, claim = query, None
        server = self.resolve_target(target)
        return server, claim if claim is not None else server.claimed_country

    def resolve_target(self, target: Target) -> ProxyServer:
        """The fleet server a query target names (KeyError/TypeError if
        none): a server, its fleet host id, or its hostname.  A ``bool``
        is no host id, though Python counts it as an ``int``."""
        if isinstance(target, ProxyServer):
            return target
        if isinstance(target, int) and not isinstance(target, bool):
            server = self._by_host_id.get(target)
            if server is None:
                raise KeyError(f"no fleet server with host id {target!r}")
            return server
        if isinstance(target, str):
            named = self._by_hostname.get(target)
            if named is None:
                raise KeyError(f"no fleet server named {target!r}")
            return named
        raise TypeError(f"cannot resolve query target {target!r}")

    def _resolve(self, server: ProxyServer, claim: str,
                 measurement: ServerPayload) -> VerdictResponse:
        """Assess a cached measurement against a claim, filling caches."""
        key = (server.host.host_id, self.epoch.digest, claim)
        entry = self.verdict_cache.peek(key)
        if entry is None:
            entry = self._assess(claim, measurement)
            self.verdict_cache.put(key, entry)
        return self._response(server, claim, entry, cached=False)

    def _assess(self, claim: str,
                measurement: ServerPayload) -> CachedVerdict:
        region = Region.from_packbits(self.algorithm.grid,
                                      measurement.region_bytes)
        assessment = assess_claim(region, claim, self.scenario.worldmap)
        return CachedVerdict(
            measurement=measurement,
            verdict=assessment.verdict.value,
            continent_verdict=assessment.continent_verdict.value,
            countries=tuple(assessment.countries_covered),
            area_km2=assessment.region_area_km2)

    def _response(self, server: ProxyServer, claim: str,
                  entry: CachedVerdict, cached: bool) -> VerdictResponse:
        measurement = entry.measurement
        return VerdictResponse(
            hostname=server.hostname,
            host_id=server.host.host_id,
            claim=claim,
            verdict=entry.verdict,
            continent_verdict=entry.continent_verdict,
            countries=entry.countries,
            area_km2=entry.area_km2,
            deduced_continent=measurement.deduced_continent,
            used_landmarks=measurement.used_landmarks,
            degraded=measurement.degraded,
            notes=measurement.notes,
            epoch_digest=self.epoch.digest,
            region_sha256=hashlib.sha256(
                measurement.region_bytes).hexdigest(),
            cached=cached)

    def _measure(self, targets: Dict[int, ProxyServer]
                 ) -> Dict[int, ServerPayload]:
        """Measure targets and cache their payloads at this epoch."""
        measured = {host_id: _cached(payload) for host_id, payload
                    in self._evaluate(targets).items()}
        for host_id, measurement in measured.items():
            self._measurements.put((host_id, self.epoch.digest), measurement)
        return measured

    def _evaluate(self, targets: Dict[int, ProxyServer],
                  assess: bool = False) -> Dict[int, ServerPayload]:
        """Measure every target through the audit kernel, micro-batched
        (``batch_max`` servers per ``predict_fleet`` sweep), forked over
        ``workers`` processes when there is more than one batch.

        Ad-hoc targets (servers outside the fleet index) are registered
        first; the registration is permanent — the service now knows
        the host.  ``assess`` adds the own-claim assessment an
        :class:`AuditRecord` needs.
        """
        for host_id, server in targets.items():
            if host_id not in self._by_host_id:
                self._by_host_id[host_id] = server
                self._by_hostname[server.hostname] = server
        servers = list(targets.values())
        context = MeasureContext(
            scenario=self.scenario, driver=self._driver, eta=self.eta.eta,
            seed=self.seed, injector=self._injector,
            quarantined=self._quarantined)
        chunks = [list(range(at, min(at + self.batch_max, len(servers))))
                  for at in range(0, len(servers), self.batch_max)]
        out: Dict[int, ServerPayload] = {}

        def deliver(payload: ServerPayload) -> None:
            out[payload.host_id] = payload

        run_chunks(context, servers, chunks, self.workers, assess, deliver)
        return out


def _cached(payload: ServerPayload) -> ServerPayload:
    """A payload as the measurement cache keeps it: without the
    observations and an audit's index and assessment."""
    return replace(payload, observations=(), index=-1, assessment=None)
