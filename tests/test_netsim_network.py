"""Tests for the latency oracle."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geodesy import BASELINE_SPEED_KM_PER_MS
from repro.netsim import HostFactory, Network, Unreachable, build_cities, build_topology
from repro.netsim.faults import FaultInjector, resolve_fault_profile
from tests.oracles import scalar_rtt_sample_ms


@pytest.fixture(scope="module")
def network():
    return Network(build_topology(build_cities(), seed=0), seed=0)


@pytest.fixture(scope="module")
def hosts(network):
    factory = HostFactory(network.topology, seed=0)
    berlin = factory.create(52.52, 13.40, name="berlin")
    tokyo = factory.create(35.68, 139.69, name="tokyo")
    frankfurt = factory.create(50.11, 8.68, name="frankfurt")
    return berlin, tokyo, frankfurt


class TestDeterministicPart:
    def test_self_path_zero(self, network, hosts):
        berlin = hosts[0]
        assert network.path_one_way_ms(berlin.router, berlin.router) == 0.0

    def test_symmetry(self, network, hosts):
        berlin, tokyo, _ = hosts
        forward = network.base_one_way_ms(berlin, tokyo)
        backward = network.base_one_way_ms(tokyo, berlin)
        assert forward == pytest.approx(backward, rel=1e-9)

    def test_physical_floor(self, network, hosts):
        """The routed delay can never beat great-circle at 200 km/ms.

        This invariant is what makes CBG's baseline disks always contain
        the true location (absent measurement-adaptation error).
        """
        berlin, tokyo, frankfurt = hosts
        for a, b in [(berlin, tokyo), (berlin, frankfurt), (tokyo, frankfurt)]:
            floor = a.distance_to(b) / BASELINE_SPEED_KM_PER_MS
            assert network.base_one_way_ms(a, b) >= floor

    def test_nearby_pair_is_fast(self, network, hosts):
        berlin, _, frankfurt = hosts
        assert network.base_one_way_ms(berlin, frankfurt) < 30.0

    def test_far_pair_is_slow(self, network, hosts):
        berlin, tokyo, _ = hosts
        assert network.base_one_way_ms(berlin, tokyo) > 45.0

    def test_base_rtt_is_twice_one_way(self, network, hosts):
        berlin, tokyo, _ = hosts
        assert network.base_rtt_ms(berlin, tokyo) == pytest.approx(
            2 * network.base_one_way_ms(berlin, tokyo))

    def test_unknown_router_unreachable(self, network, hosts):
        with pytest.raises(Unreachable):
            network.path_one_way_ms((999999, 0), hosts[0].router)


class TestStochasticPart:
    def test_samples_at_least_base(self, network, hosts):
        berlin, tokyo, _ = hosts
        rng = np.random.default_rng(0)
        base = network.base_rtt_ms(berlin, tokyo)
        samples = network.rtt_samples_ms(berlin, tokyo, 50, rng)
        assert (samples >= base).all()

    def test_min_rtt_approaches_base(self, network, hosts):
        berlin, _, frankfurt = hosts
        rng = np.random.default_rng(1)
        base = network.base_rtt_ms(berlin, frankfurt)
        best = network.min_rtt_ms(berlin, frankfurt, n=40, rng=rng)
        assert best == pytest.approx(base, rel=0.25)

    def test_noise_varies_between_samples(self, network, hosts):
        berlin, tokyo, _ = hosts
        rng = np.random.default_rng(2)
        samples = network.rtt_samples_ms(berlin, tokyo, 20, rng)
        assert len(set(samples.tolist())) > 1

    def test_seeded_rng_reproducible(self, network, hosts):
        berlin, tokyo, _ = hosts
        a = network.rtt_samples_ms(berlin, tokyo, 5, np.random.default_rng(7))
        b = network.rtt_samples_ms(berlin, tokyo, 5, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_sample_count_validated(self, network, hosts):
        with pytest.raises(ValueError):
            network.rtt_samples_ms(hosts[0], hosts[1], 0)

    @given(seed=st.integers(0, 2**32 - 1), a=st.integers(0, 2),
           b=st.integers(0, 2), target=st.integers(0, 2),
           profile=st.sampled_from(
               [None, "lossy-wan", "flaky-vpn", "blackout"]))
    @settings(max_examples=150, deadline=None)
    def test_one_sample_matches_scalar_oracle(self, network, hosts, seed, a,
                                              b, target, profile):
        """rtt_sample_ms is the n=1 case of rtt_samples_ms: the scalar
        formula's bits, and the generator left where it leaves it —
        fault-free and inside a faulted measurement epoch."""
        injector = None
        if profile is not None:
            injector = FaultInjector(resolve_fault_profile(profile),
                                     seed=seed)
            injector.schedule_outages([host.host_id for host in hosts])
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        with network.faults_installed(injector), \
                network.measurement_epoch_for(hosts[target]):
            for _ in range(3):
                got = network.rtt_sample_ms(hosts[a], hosts[b], fast)
                want = scalar_rtt_sample_ms(network, hosts[a], hosts[b], slow)
                assert struct.pack("<d", got) == struct.pack("<d", want)
        assert fast.bit_generator.state == slow.bit_generator.state


class TestCacheInvalidation:
    def test_hosting_as_reachable_after_cache_warm(self):
        topology = build_topology(build_cities(), seed=3)
        network = Network(topology, seed=3)
        factory = HostFactory(topology, seed=3)
        a = factory.create(52.52, 13.40)
        b = factory.create(48.86, 2.35)
        network.base_one_way_ms(a, b)          # warm the cache
        rng = np.random.default_rng(0)
        hosting = topology.add_hosting_as("late-dc", 0, rng)
        city = topology.city(0)
        c = factory.create(city.lat, city.lon, router=(hosting.asn, 0))
        # Must not raise Unreachable from a stale cache.
        assert network.base_one_way_ms(a, c) > 0
