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

import hashlib
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from .. import sanitize
from .faults import FaultInjector, MeasurementFailed
from .hosts import Host
from .pathengine import PathEngine
from .topology import RouterId, Topology


class Unreachable(Exception):
    """Raised when no path exists between two routers."""


_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(init: int, mult: int,
                    count: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of ``count`` successive hashmixes.

    SeedSequence's hash constant evolves independently of the data
    (``const *= mult`` after each xor), so the whole sequence is fixed;
    both come back as ``(count, 1)`` uint32 columns.
    """
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = (init * mult) & _MASK32
        mults.append(init)
    return (np.array(xors, dtype=np.uint32)[:, None],
            np.array(mults, dtype=np.uint32)[:, None])


#: numpy's SeedSequence constants (``numpy/random/bit_generator.pyx``):
#: 16 hashmixes while mixing entropy into the pool of 4, 8 while
#: generating PCG64's 8 state words, and the two mix multipliers.
_POOL_XOR, _POOL_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(words: np.ndarray, xor: np.ndarray,
             mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> np.uint32(16))


def pcg64_states(low: Sequence[int],
                 high: Sequence[int]) -> List[Tuple[int, int]]:
    """``np.random.PCG64((low[i], high[i]))``'s ``(state, inc)`` per pair.

    Runs numpy's SeedSequence entropy mixing (a pool of 4 words over
    entropy ``[low, high]``) and state generation as uint32 array
    operations over the whole batch, then the two 128-bit
    ``pcg64_set_seed`` steps per pair in Python ints.  Building a
    generator per pair costs ~13 µs of SeedSequence and object
    construction; this costs ~1.5 µs.  Ids must lie in ``[0, 2**32)``,
    where each is one entropy word.
    """
    ids = np.array([low, high], dtype=np.int64).reshape(2, -1)
    if ids.size and (ids.min() < 0 or ids.max() > _MASK32):
        raise ValueError("seed ids must lie in [0, 2**32)")
    entropy = np.zeros((4, ids.shape[1]), dtype=np.uint32)
    entropy[:2] = ids
    pool = _hashmix(entropy, _POOL_XOR[:4], _POOL_MULT[:4])
    for source in range(4):
        # Each other word mixes in this one's hash, in ascending order;
        # this word itself does not change meanwhile.
        targets = [target for target in range(4) if target != source]
        steps = slice(4 + 3 * source, 7 + 3 * source)
        hashed = _hashmix(pool[source], _POOL_XOR[steps], _POOL_MULT[steps])
        mixed = _MIX_MULT_L * pool[targets] - _MIX_MULT_R * hashed
        pool[targets] = mixed ^ (mixed >> np.uint32(16))
    # generate_state(4, uint64): 8 words cycling the pool, read as
    # little-endian uint64 pairs (seed high, seed low, inc high, inc low).
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MULT)
    seeded = []
    for seed_high, seed_low, inc_high, inc_low in np.ascontiguousarray(
            state.T, dtype="<u4").view("<u8").tolist():
        inc = ((((inc_high << 64) | inc_low) << 1) | 1) & _MASK128
        seed = (seed_high << 64) | seed_low
        seeded.append((((inc + seed) * _PCG_MULT + inc) & _MASK128, inc))
    return seeded


class Network:
    """Latency oracle over a :class:`~repro.netsim.topology.Topology`.

    Routed delays resolve through :attr:`engine`, a batched CSR
    shortest-path engine (:class:`~repro.netsim.pathengine.PathEngine`)
    that obeys the canonical smaller-endpoint rule, so measured RTTs
    never depend on cache history.  Any object with ``PathEngine``'s
    public methods may be assigned to :attr:`engine` instead; the test
    suite runs its networkx Dijkstra oracle that way.

    An optional :class:`~repro.netsim.faults.FaultInjector` can be
    installed (``faults_installed``); it only afflicts samples taken
    inside a measurement epoch (``measurement_epoch_for``), so the mesh
    calibration archive and diagnostic paths always see the fault-free
    substrate.  Without an injector — or outside an epoch — every code
    path below is byte-identical to the fault-free simulator and consumes
    no extra random draws.
    """

    def __init__(self, topology: Topology, seed: int = 0,
                 faults: Optional[FaultInjector] = None):
        self.topology = topology
        self._rng = np.random.default_rng(seed)
        self.faults = faults
        self._fault_time: Optional[float] = None
        #: The shortest-path engine every routed delay comes from.
        self.engine = PathEngine(topology)
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

    # -- deterministic part ---------------------------------------------------

    def path_one_way_ms(self, a: RouterId, b: RouterId) -> float:
        """Routed one-way delay between two routers, ms."""
        if a == b:
            return 0.0
        return self.engine.path_ms(a, b)

    def path_pairs_ms(self, a_routers: Sequence[RouterId],
                      b_routers: Sequence[RouterId]) -> np.ndarray:
        """Routed one-way delays for aligned router pairs, ms.

        Every missing shortest-path tree is computed by one batched
        multi-source Dijkstra; each entry is exactly the float
        :meth:`path_one_way_ms` would return.
        """
        return self.engine.path_pairs_ms(a_routers, b_routers)

    def topology_digest(self) -> str:
        """Content digest of the router graph (nodes, edges, weights)."""
        return self.engine.topology_digest()

    def warm_paths(self, hosts: Sequence[Host]) -> None:
        """Precompute shortest-path rows for a host universe.

        One batched Dijkstra covers every router the hosts attach to;
        called before an audit forks its worker pool so children inherit
        the rows copy-on-write.
        """
        self.engine.warm([host.router for host in hosts])

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

    def rtt_sample_ms(self, a: Host, b: Host,
                      rng: Optional[np.random.Generator] = None) -> float:
        """One measured round-trip time between two hosts, ms.

        The one-sample case of :meth:`rtt_samples_ms`, draw for draw.
        NaN when fault injection is active and the probe is lost.
        """
        return float(self.rtt_samples_ms(a, b, 1, rng)[0])

    def rtt_samples_ms(self, a: Host, b: Host, n: int,
                       rng: Optional[np.random.Generator] = None, *,
                       base: Optional[float] = None) -> np.ndarray:
        """``n`` independent RTT samples between two hosts, ms.

        Queueing noise is exponential with a scale set by the endpoint
        cities' congestion, plus rare heavy congestion spikes
        (intermediate routers can add "unbounded delays" — Li et al.,
        quoted in the paper).  The noise for all ``n`` samples is drawn
        in one vectorised pass.  Audits take hundreds of thousands of
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
                         hosts_b: Sequence[Host], n: int) -> np.ndarray:
        """Fault-free :meth:`min_rtt_ms` for aligned host pairs, ms.

        Entry ``i`` equals ``min_rtt_ms(hosts_a[i], hosts_b[i], n,
        np.random.default_rng((hosts_a[i].host_id, hosts_b[i].host_id)))``
        outside a measurement epoch, bit for bit.  Every pair's PCG64
        state is derived at once (:func:`pcg64_states`) and set on one
        reused generator, which then draws what that pair's own
        generator would, in order: ``n`` standard exponentials
        (``exponential(scale)`` is ``scale`` times one), ``n`` uniforms,
        then one exponential per spike.  Only the draws stay per pair;
        the floors (:meth:`base_rtt_pairs`), scales, spikes and the
        minimum are array operations.  The archived mesh pings are this
        method's reason to exist; it refuses to run inside an epoch.
        """
        if n < 1:
            raise ValueError(f"need at least one sample: {n!r}")
        if self.active_faults() is not None:
            raise RuntimeError("min_rtt_pairs_ms samples the fault-free "
                               "substrate; leave the measurement epoch")
        k = len(hosts_a)
        if len(hosts_b) != k:
            raise ValueError("host lists disagree in length")
        if k == 0:
            return np.empty(0, dtype=np.float64)
        bases = self.base_rtt_pairs(hosts_a, hosts_b)
        congestion = self._congestion_by_city()
        scales = (congestion[[a.city_id for a in hosts_a]]
                  + congestion[[b.city_id for b in hosts_b]])
        draws = np.empty((k, n), dtype=np.float64)
        uniform = np.empty((k, n), dtype=np.float64)
        states = pcg64_states([a.host_id for a in hosts_a],
                              [b.host_id for b in hosts_b])
        bit_generator = np.random.PCG64(0)   # every pair sets its state
        rng = np.random.Generator(bit_generator)
        seeded = {"state": 0, "inc": 0}
        spec = {"bit_generator": "PCG64", "state": seeded,
                "has_uint32": 0, "uinteger": 0}
        for draw, uniform_row, (state, inc) in zip(draws, uniform, states):
            seeded["state"], seeded["inc"] = state, inc
            bit_generator.state = spec
            rng.standard_exponential(out=draw)
            rng.random(out=uniform_row)
        spikes = uniform < 0.02
        counts = np.count_nonzero(spikes, axis=1)
        extra: List[np.ndarray] = []
        # Spike draws follow a pair's first 2n draws.  About 15% of pairs
        # spike at n = 8: replaying those from their seeded state beats
        # counting every pair's spikes inside the loop by 1-2 µs a pair
        # (paper-scale batches of 249 and 4,096 pairs, 2-vCPU VM).
        replay = np.empty(n, dtype=np.float64)
        for at in np.flatnonzero(counts).tolist():
            seeded["state"], seeded["inc"] = states[at]
            bit_generator.state = spec
            rng.standard_exponential(out=replay)
            rng.random(out=replay)
            extra.append(rng.standard_exponential(int(counts[at])))
        noise = scales[:, None] * draws
        if extra:
            noise[spikes] += 60.0 * np.concatenate(extra)
        minima = (bases[:, None] + noise).min(axis=1)
        if sanitize.enabled():
            self._sanitize_pair_sample(hosts_a, hosts_b, n, minima)
        return minima

    def _sanitize_pair_sample(self, hosts_a: Sequence[Host],
                              hosts_b: Sequence[Host], n: int,
                              minima: np.ndarray) -> None:
        """Recompute one digest-sampled pair with its own generator.

        The pair is picked from a hash of the batch's host ids, never
        from RNG state, and the scalar recompute draws from a fresh
        ``default_rng``: arming the sanitizer moves no random stream.
        """
        ids = np.array([[a.host_id for a in hosts_a],
                        [b.host_id for b in hosts_b]], dtype=np.int64)
        pick = int(hashlib.sha256(ids.tobytes()).hexdigest()[:8], 16) \
            % len(minima)
        a, b = hosts_a[pick], hosts_b[pick]
        scalar = self.min_rtt_ms(
            a, b, n, np.random.default_rng((a.host_id, b.host_id)))
        if scalar != float(minima[pick]):
            raise sanitize.SanitizerError(
                f"bulk-seeded mesh ping {a.name!r} -> {b.name!r} is "
                f"{float(minima[pick])!r} ms, its own generator gives "
                f"{scalar!r} ms")

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
