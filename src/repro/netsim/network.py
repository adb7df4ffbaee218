"""The network facade: path latencies and RTT sampling.

Separates the *deterministic* part of a round-trip time (routed path
propagation + last miles, cached per router pair) from the *stochastic*
part (queueing noise, congestion spikes), which is resampled per
measurement.  The decomposition is what lets calibration behave like the
real Internet: the minimum of many samples approaches the routed-path
floor, which is still above the great-circle/200 km/ms physical floor
because routes are circuitous.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence

import networkx as nx
import numpy as np

from .. import config
from .faults import FaultInjector, MeasurementFailed
from .hosts import Host
from .topology import RouterId, Topology


class Unreachable(Exception):
    """Raised when no path exists between two routers."""


class Network:
    """Latency oracle over a :class:`~repro.netsim.topology.Topology`.

    Routed delays resolve through a batched CSR shortest-path engine
    (:class:`~repro.netsim.pathengine.PathEngine`) by default;
    ``path_engine="networkx"`` — or ``REPRO_PATH_ENGINE=networkx`` in the
    environment — restores the original per-source pure-Python Dijkstra
    oracle.  Both obey the canonical smaller-endpoint rule, so measured
    RTTs never depend on cache history in either mode.

    An optional :class:`~repro.netsim.faults.FaultInjector` can be
    installed (``faults_installed``); it only afflicts samples taken
    inside a measurement epoch (``measurement_epoch_for``), so the mesh
    calibration archive and diagnostic paths always see the fault-free
    substrate.  Without an injector — or outside an epoch — every code
    path below is byte-identical to the fault-free simulator and consumes
    no extra random draws.
    """

    _PATH_CACHE_SLOTS = 4096

    def __init__(self, topology: Topology, seed: int = 0,
                 faults: Optional[FaultInjector] = None,
                 path_engine: Optional[str] = None):
        from .pathengine import ENGINE_ENV, HAVE_SCIPY, PathEngine

        self.topology = topology
        self._rng = np.random.default_rng(seed)
        self._sssp_cache: Dict[RouterId, Dict[RouterId, float]] = {}
        self._cached_version = topology.version
        self.faults = faults
        self._fault_time: Optional[float] = None
        # An *explicit* engine choice (constructor argument or env knob)
        # is honoured or rejected, never silently downgraded: asking for
        # csr on a scipy-free host must fail loudly rather than hand
        # back verdicts from a different oracle.  Only the implicit
        # default may fall back to networkx when scipy is absent.
        if path_engine is not None:
            mode = config.PATH_ENGINE.parse(path_engine)
            explicit = True
        else:
            mode = config.env_value(ENGINE_ENV)
            explicit = config.is_set(ENGINE_ENV)
        assert isinstance(mode, str)
        if mode == "csr" and not HAVE_SCIPY:
            if explicit:
                raise RuntimeError(
                    "path engine 'csr' was explicitly requested but scipy "
                    f"is not installed; unset {ENGINE_ENV} or choose "
                    "'networkx'")
            mode = "networkx"
        self.path_engine_mode = mode
        self._engine: Optional[PathEngine] = (
            PathEngine(topology) if mode == "csr" else None)
        self._congestion: Optional[np.ndarray] = None

    # -- fault layer ----------------------------------------------------------

    @contextmanager
    def faults_installed(self, injector: Optional[FaultInjector]):
        """Install (or clear) the fault injector for the duration."""
        previous = self.faults
        self.faults = injector
        try:
            yield self
        finally:
            self.faults = previous

    @contextmanager
    def measurement_epoch_for(self, host: Host):
        """Activate fault injection at ``host``'s campaign time.

        Samples taken inside the context are afflicted as if measured at
        the logical instant the installed injector assigns to ``host`` —
        a pure function of the host id, so epochs are order-independent.
        A no-op (and free) when no injector is installed.
        """
        if self.faults is None:
            yield self
            return
        previous = self._fault_time
        self._fault_time = self.faults.campaign_time(host.host_id)
        try:
            yield self
        finally:
            self._fault_time = previous

    @contextmanager
    def fault_free(self):
        """Suspend any open measurement epoch for the duration.

        Archived-data paths (the mesh-ping database landmark calibration
        reads from) must see the pristine substrate even when they are
        lazily materialised in the middle of an afflicted measurement —
        otherwise the cached value would depend on *which* target's epoch
        happened to compute it first, breaking order-independence.
        """
        previous = self._fault_time
        self._fault_time = None
        try:
            yield self
        finally:
            self._fault_time = previous

    def active_faults(self) -> Optional[FaultInjector]:
        """The injector, iff a measurement epoch is open."""
        if self.faults is not None and self._fault_time is not None:
            return self.faults
        return None

    def _check_version(self) -> None:
        """Drop shortest-path caches if the topology grew new routers."""
        if self.topology.version != self._cached_version:
            self._sssp_cache.clear()
            self._cached_version = self.topology.version

    # -- deterministic part ---------------------------------------------------

    def _distances_from(self, router: RouterId) -> Dict[RouterId, float]:
        cached = self._sssp_cache.get(router)
        if cached is None:
            if router not in self.topology.graph:
                raise Unreachable(f"router {router!r} is not in the graph")
            cached = nx.single_source_dijkstra_path_length(
                self.topology.graph, router, weight="latency_ms")
            if len(self._sssp_cache) >= self._PATH_CACHE_SLOTS:
                # Evict the oldest half (dicts preserve insertion order)
                # rather than wiping the cache: a full clear mid-audit
                # forces a thundering-herd recompute of every tree the
                # working set still needs.
                drop = len(self._sssp_cache) // 2
                for key in list(self._sssp_cache)[:drop]:
                    del self._sssp_cache[key]
            self._sssp_cache[router] = cached
        return cached

    def path_one_way_ms(self, a: RouterId, b: RouterId) -> float:
        """Routed one-way delay between two routers, ms."""
        if a == b:
            return 0.0
        if self._engine is not None:
            return self._engine.path_ms(a, b)
        self._check_version()
        # Always resolve from the canonically-smaller endpoint.  The two
        # directions sum the same path in opposite orders and can differ
        # in the last ulp; choosing by whichever tree happens to be cached
        # would make measured RTTs depend on cache history, breaking the
        # serial == parallel bit-identity of audits.
        source, target = (a, b) if a <= b else (b, a)
        distances = self._sssp_cache.get(source)
        if distances is None:
            distances = self._distances_from(source)
        try:
            return float(distances[target])
        except KeyError:
            raise Unreachable(f"no path between {a!r} and {b!r}") from None

    def path_pairs_ms(self, a_routers: Sequence[RouterId],
                      b_routers: Sequence[RouterId]) -> np.ndarray:
        """Routed one-way delays for aligned router pairs, ms.

        In CSR mode every missing shortest-path tree is computed by one
        batched multi-source Dijkstra; the networkx fallback resolves the
        pairs one by one.  Both return exactly the floats
        :meth:`path_one_way_ms` would.
        """
        if self._engine is not None:
            return self._engine.path_pairs_ms(a_routers, b_routers)
        return np.array([self.path_one_way_ms(a, b)
                         for a, b in zip(a_routers, b_routers)],
                        dtype=np.float64)

    def topology_digest(self) -> str:
        """Content digest of the router graph (nodes, edges, weights).

        Engine-independent: the networkx fallback hashes exactly the
        bytes the CSR engine does, so a service epoch captured under one
        path engine matches the digest captured under the other.
        """
        from .pathengine import graph_digest

        if self._engine is not None:
            return self._engine.topology_digest()
        return graph_digest(self.topology)

    def warm_paths(self, hosts: Sequence[Host]) -> None:
        """Precompute shortest-path rows for a host universe.

        One batched Dijkstra covers every router the hosts attach to;
        called before an audit forks its worker pool so children inherit
        the rows copy-on-write.  A no-op in networkx mode (the per-source
        cache warms lazily there, as before).
        """
        if self._engine is not None:
            self._engine.warm([host.router for host in hosts])

    def route(self, a: RouterId, b: RouterId) -> list:
        """The router-level path between two routers (for traceroute).

        Not cached: traceroute is a diagnostic, not a hot path.
        """
        if a not in self.topology.graph or b not in self.topology.graph:
            raise Unreachable(f"router {a!r} or {b!r} not in the graph")
        try:
            return nx.shortest_path(self.topology.graph, a, b,
                                    weight="latency_ms")
        except nx.NetworkXNoPath:
            raise Unreachable(f"no path between {a!r} and {b!r}") from None

    def base_one_way_ms(self, a: Host, b: Host) -> float:
        """Deterministic one-way delay between two hosts, ms."""
        return (a.last_mile_ms + self.path_one_way_ms(a.router, b.router)
                + b.last_mile_ms)

    def base_rtt_ms(self, a: Host, b: Host) -> float:
        """Deterministic round-trip floor between two hosts, ms."""
        return 2.0 * self.base_one_way_ms(a, b)

    def base_rtt_pairs(self, hosts_a: Sequence[Host],
                       hosts_b: Sequence[Host]) -> np.ndarray:
        """Deterministic round-trip floors for aligned host pairs, ms.

        Vectorised :meth:`base_rtt_ms`: routed legs come from one batched
        shortest-path call, last miles are added element-wise in the same
        operation order as the scalar path, so each entry is bit-identical
        to the scalar result.
        """
        if len(hosts_a) != len(hosts_b):
            raise ValueError("host lists disagree in length")
        paths = self.path_pairs_ms([a.router for a in hosts_a],
                                   [b.router for b in hosts_b])
        last_a = np.array([a.last_mile_ms for a in hosts_a], dtype=np.float64)
        last_b = np.array([b.last_mile_ms for b in hosts_b], dtype=np.float64)
        return 2.0 * ((last_a + paths) + last_b)

    def base_rtt_matrix(self, a: Host, others: Sequence[Host]) -> np.ndarray:
        """Round-trip floors from one host to each of ``others``, ms."""
        if not others:
            return np.empty(0, dtype=np.float64)
        paths = self.path_pairs_ms([a.router] * len(others),
                                   [b.router for b in others])
        last_b = np.array([b.last_mile_ms for b in others], dtype=np.float64)
        return 2.0 * ((a.last_mile_ms + paths) + last_b)

    def _congestion_by_city(self) -> np.ndarray:
        """Per-city congestion scales, indexed by ``city_id``.

        The city list never grows (hosting ASes attach to existing
        cities), so this is computed once.
        """
        if self._congestion is None:
            self._congestion = np.array(
                [city.congestion_scale_ms for city in self.topology.cities],
                dtype=np.float64)
        return self._congestion

    # -- stochastic part ---------------------------------------------------------

    def _queueing_noise_ms(self, a: Host, b: Host,
                           rng: np.random.Generator) -> float:
        """One sample of round-trip queueing delay, ms.

        Exponential with a scale set by the endpoint cities' congestion,
        plus rare heavy congestion spikes (intermediate routers can add
        "unbounded delays" — Li et al., quoted in the paper).
        """
        scale = (self.topology.city(a.city_id).congestion_scale_ms
                 + self.topology.city(b.city_id).congestion_scale_ms)
        noise = float(rng.exponential(scale))
        if rng.random() < 0.02:
            noise += float(rng.exponential(60.0))
        return noise

    def rtt_sample_ms(self, a: Host, b: Host,
                      rng: Optional[np.random.Generator] = None) -> float:
        """One measured round-trip time between two hosts, ms.

        NaN when fault injection is active and the probe is lost.
        """
        rng = rng if rng is not None else self._rng
        sample = self.base_rtt_ms(a, b) + self._queueing_noise_ms(a, b, rng)
        faults = self.active_faults()
        if faults is not None:
            burst = np.array([sample])
            down = (faults.landmark_down(a.host_id, self._fault_time)
                    or faults.landmark_down(b.host_id, self._fault_time))
            sample = float(faults.afflict_burst(burst, down, rng)[0])
        return sample

    def rtt_samples_ms(self, a: Host, b: Host, n: int,
                       rng: Optional[np.random.Generator] = None, *,
                       base: Optional[float] = None) -> np.ndarray:
        """``n`` independent RTT samples between two hosts, ms.

        The noise for all ``n`` samples is drawn in one vectorised pass —
        same distribution as :meth:`rtt_sample_ms`, a fraction of the
        generator overhead.  Audits take hundreds of thousands of
        samples, so this is one of the pipeline's hottest paths.
        ``base`` lets a batched caller supply the (deterministic)
        round-trip floor it already computed via :meth:`base_rtt_pairs`;
        it must equal ``base_rtt_ms(a, b)`` exactly.
        """
        if n < 1:
            raise ValueError(f"need at least one sample: {n!r}")
        rng = rng if rng is not None else self._rng
        if base is None:
            base = self.base_rtt_ms(a, b)
        scale = (self.topology.city(a.city_id).congestion_scale_ms
                 + self.topology.city(b.city_id).congestion_scale_ms)
        noise = rng.exponential(scale, size=n)
        spikes = rng.random(n) < 0.02
        if spikes.any():
            noise[spikes] += rng.exponential(60.0, size=int(spikes.sum()))
        samples = base + noise
        faults = self.active_faults()
        if faults is not None:
            down = (faults.landmark_down(a.host_id, self._fault_time)
                    or faults.landmark_down(b.host_id, self._fault_time))
            samples = faults.afflict_burst(samples, down, rng)
        return samples

    def rtt_samples_matrix_ms(self, a: Host, others: Sequence[Host], n: int,
                              rng: Optional[np.random.Generator] = None
                              ) -> np.ndarray:
        """``(len(others), n)`` RTT samples from ``a`` to each other host.

        One vectorised noise draw covers a whole measurement panel — the
        shape a proxy audit uses when it probes every landmark in a
        phase through the same tunnel.
        """
        if n < 1:
            raise ValueError(f"need at least one sample: {n!r}")
        rng = rng if rng is not None else self._rng
        k = len(others)
        if k == 0:
            return np.empty((0, n))
        bases = self.base_rtt_matrix(a, others)
        scale_a = self.topology.city(a.city_id).congestion_scale_ms
        city_ids = np.fromiter((b.city_id for b in others),
                               dtype=np.intp, count=k)
        scales = scale_a + self._congestion_by_city()[city_ids]
        noise = rng.exponential(1.0, size=(k, n)) * scales[:, None]
        spikes = rng.random((k, n)) < 0.02
        n_spikes = int(spikes.sum())
        if n_spikes:
            noise[spikes] += rng.exponential(60.0, size=n_spikes)
        samples = bases[:, None] + noise
        faults = self.active_faults()
        if faults is not None:
            a_down = faults.landmark_down(a.host_id, self._fault_time)
            down_rows = np.array(
                [a_down or faults.landmark_down(b.host_id, self._fault_time)
                 for b in others])
            samples = faults.afflict_matrix(samples, down_rows, rng)
        return samples

    def min_rtt_pairs_ms(self, hosts_a: Sequence[Host],
                         hosts_b: Sequence[Host], seeds: Sequence[object],
                         n: int) -> np.ndarray:
        """Fault-free :meth:`min_rtt_ms` for aligned host pairs, ms.

        Entry ``i`` equals ``min_rtt_ms(hosts_a[i], hosts_b[i], n,
        np.random.default_rng(seeds[i]))`` outside a measurement epoch,
        bit for bit.  Each pair still draws from its own generator, in
        order: ``exponential(scale)`` is ``scale`` times a standard
        exponential draw, so only the draws stay per pair while the
        floors (:meth:`base_rtt_pairs`), scales, spikes and the minimum
        become array operations.  The archived mesh pings are this
        method's reason to exist; it refuses to run inside an epoch.
        """
        if n < 1:
            raise ValueError(f"need at least one sample: {n!r}")
        if self.active_faults() is not None:
            raise RuntimeError("min_rtt_pairs_ms samples the fault-free "
                               "substrate; leave the measurement epoch")
        k = len(seeds)
        if len(hosts_a) != k or len(hosts_b) != k:
            raise ValueError("hosts and seeds disagree in length")
        if k == 0:
            return np.empty(0, dtype=np.float64)
        bases = self.base_rtt_pairs(hosts_a, hosts_b)
        congestion = self._congestion_by_city()
        scales = (congestion[[a.city_id for a in hosts_a]]
                  + congestion[[b.city_id for b in hosts_b]])
        draws = np.empty((k, n), dtype=np.float64)
        uniform = np.empty((k, n), dtype=np.float64)
        extra: List[np.ndarray] = []
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            rng.standard_exponential(out=draws[i])
            rng.random(out=uniform[i])
            spikes = int(np.count_nonzero(uniform[i] < 0.02))
            if spikes:
                extra.append(rng.standard_exponential(spikes))
        noise = scales[:, None] * draws
        if extra:
            noise[uniform < 0.02] += 60.0 * np.concatenate(extra)
        return (bases[:, None] + noise).min(axis=1)

    def min_rtt_ms(self, a: Host, b: Host, n: int = 3,
                   rng: Optional[np.random.Generator] = None, *,
                   base: Optional[float] = None) -> float:
        """Minimum of ``n`` RTT samples — what ping-based tools report.

        Raises :class:`~repro.netsim.faults.MeasurementFailed` when every
        sample in the burst was lost or timed out, rather than handing an
        ``inf``/``nan`` downstream for the bestline fits to choke on.
        ``base`` is forwarded to :meth:`rtt_samples_ms` for batched
        callers that precomputed the round-trip floor.
        """
        samples = self.rtt_samples_ms(a, b, n, rng, base=base)
        finite = samples[np.isfinite(samples)]
        if finite.size == 0:
            raise MeasurementFailed(
                f"all {n} probes {a.name!r} -> {b.name!r} lost or timed out")
        return float(finite.min())
