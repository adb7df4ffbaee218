"""Tests for the CSR-backed batched shortest-path engine.

The engine's contract is strict: every routed delay it returns must be
bit-identical to the per-source networkx oracle it replaced
(``tests.oracles.NetworkxPathEngine``), whatever mix of scalar, batched,
or warmed lookups produced it.
"""

import numpy as np
import pytest

from repro.netsim import HostFactory, Network, Unreachable, build_cities, build_topology
from repro.netsim.pathengine import PathEngine
from tests.oracles import NetworkxPathEngine


@pytest.fixture(scope="module")
def topology():
    return build_topology(build_cities(), seed=0)


def oracle_network(topology):
    """A Network whose routed delays come from the networkx oracle."""
    network = Network(topology, seed=0)
    network.engine = NetworkxPathEngine(topology)
    return network


@pytest.fixture(scope="module")
def engines(topology):
    """(csr network, networkx oracle network) over one shared topology."""
    return Network(topology, seed=0), oracle_network(topology)


@pytest.fixture(scope="module")
def routers(topology):
    rng = np.random.default_rng(5)
    nodes = sorted(topology.graph.nodes)
    return [nodes[i] for i in rng.choice(len(nodes), size=60, replace=False)]


class TestEngineSelection:
    def test_modes(self, topology, routers):
        """Network routes every delay through its ``engine``: PathEngine
        by default, or whatever engine a caller assigns."""
        assert isinstance(Network(topology, seed=0).engine, PathEngine)
        oracle = oracle_network(topology)
        assert oracle.engine.n_rows == 0
        oracle.path_pairs_ms(routers[:3], routers[3:6])
        assert oracle.engine.n_rows > 0


class TestBitIdentity:
    def test_scalar_paths_match_oracle(self, engines, routers):
        csr, oracle = engines
        for a in routers[:12]:
            for b in routers[:12]:
                assert (csr.path_one_way_ms(a, b)
                        == oracle.path_one_way_ms(a, b))

    def test_pair_batch_matches_scalar(self, engines, routers):
        csr, oracle = engines
        rng = np.random.default_rng(11)
        a_list = [routers[i] for i in rng.integers(0, len(routers), 200)]
        b_list = [routers[i] for i in rng.integers(0, len(routers), 200)]
        batch = csr.path_pairs_ms(a_list, b_list)
        scalars = np.array([oracle.path_one_way_ms(a, b)
                            for a, b in zip(a_list, b_list)])
        assert np.array_equal(batch, scalars)

    def test_warmed_batch_matches_cold_batch(self, topology, routers):
        cold = Network(topology, seed=0)
        warm = Network(topology, seed=0)
        rng = np.random.default_rng(13)
        a_list = [routers[i] for i in rng.integers(0, len(routers), 150)]
        b_list = [routers[i] for i in rng.integers(0, len(routers), 150)]
        warm.engine.warm(routers)
        assert np.array_equal(warm.path_pairs_ms(a_list, b_list),
                              cold.path_pairs_ms(a_list, b_list))

    def test_rows_and_digest_match_oracle(self, topology, routers):
        engine, oracle = PathEngine(topology), NetworkxPathEngine(topology)
        for router in routers[:6]:
            assert np.array_equal(engine.distances_from(router),
                                  oracle.distances_from(router))
        assert engine.topology_digest() == oracle.topology_digest()

    def test_direction_and_identity(self, engines, routers):
        csr, _ = engines
        a, b = routers[0], routers[1]
        assert csr.path_one_way_ms(a, b) == csr.path_one_way_ms(b, a)
        assert csr.path_one_way_ms(a, a) == 0.0
        assert csr.path_pairs_ms([a], [a])[0] == 0.0


class TestHostLevelQueries:
    @pytest.fixture(scope="class")
    def hosts(self, topology):
        factory = HostFactory(topology, seed=0)
        coords = [(52.52, 13.40), (35.68, 139.69), (50.11, 8.68),
                  (-33.87, 151.21), (40.71, -74.01), (1.35, 103.82)]
        return [factory.create(lat, lon) for lat, lon in coords]

    def test_base_rtt_pairs_matches_scalar(self, engines, hosts):
        csr, oracle = engines
        pairs_a = [hosts[i] for i in (0, 1, 2, 3, 4, 0, 5)]
        pairs_b = [hosts[i] for i in (1, 2, 3, 4, 5, 0, 2)]
        batch = csr.base_rtt_pairs(pairs_a, pairs_b)
        scalars = np.array([oracle.base_rtt_ms(a, b)
                            for a, b in zip(pairs_a, pairs_b)])
        assert np.array_equal(batch, scalars)

    def test_base_rtt_matrix_matches_scalar(self, engines, hosts):
        csr, oracle = engines
        matrix = csr.base_rtt_matrix(hosts[0], hosts)
        scalars = np.array([oracle.base_rtt_ms(hosts[0], other)
                            for other in hosts])
        assert np.array_equal(matrix, scalars)

    def test_rtt_samples_base_hook_draws_identically(self, engines, hosts):
        csr, _ = engines
        base = csr.base_rtt_ms(hosts[0], hosts[1])
        with_hook = csr.rtt_samples_ms(hosts[0], hosts[1], 8,
                                       np.random.default_rng(3), base=base)
        without = csr.rtt_samples_ms(hosts[0], hosts[1], 8,
                                     np.random.default_rng(3))
        assert np.array_equal(with_hook, without)


class TestVersioning:
    def test_structural_mutation_rebuilds(self):
        mutable = build_topology(build_cities(), seed=3)
        engine = PathEngine(mutable)
        before = engine.n_routers
        peer = sorted(mutable.graph.nodes)[0]
        engine.distances_from(peer)
        hosting = mutable.add_hosting_as("dc-test-engine", 0,
                                         np.random.default_rng(4))
        # The new router resolves without any manual invalidation, and
        # the rebuild dropped the stale row cache.
        assert np.isfinite(engine.path_ms((hosting.asn, 0), peer))
        assert engine.n_routers == before + 1

    def test_unknown_router_unreachable(self, engines, routers):
        csr, _ = engines
        with pytest.raises(Unreachable):
            csr.path_one_way_ms(routers[0], (99999999, 0))
        with pytest.raises(Unreachable):
            csr.path_pairs_ms([routers[0]], [(99999999, 0)])


class TestRowCache:
    def test_evicts_oldest_half(self, topology, routers):
        engine = PathEngine(topology, max_rows=16)
        for router in routers[:16]:
            engine.distances_from(router)
        assert engine.n_rows == 16
        engine.ensure_rows(routers[16:18])
        # 16 // 2 = 8 evicted, 2 inserted.
        assert engine.n_rows == 10
        survivors = set(engine._rows)
        assert set(routers[8:18]) == survivors
        # Evicted rows recompute to the same values.
        fresh = PathEngine(topology)
        assert np.array_equal(engine.distances_from(routers[0]),
                              fresh.distances_from(routers[0]))
