"""Tests for host creation and attachment."""

import pytest

from repro.netsim import Host, HostFactory, build_cities, build_topology
from tests import oracles


@pytest.fixture(scope="module")
def factory():
    return HostFactory(build_topology(build_cities(), seed=0), seed=0)


class TestHostValidation:
    def test_rejects_bad_coordinates(self):
        with pytest.raises(ValueError):
            Host(0, "h", 95.0, 0.0, 0, (0, 0), 1.0)

    def test_rejects_negative_last_mile(self):
        with pytest.raises(ValueError):
            Host(0, "h", 0.0, 0.0, 0, (0, 0), -1.0)

    def test_rejects_unknown_os(self):
        with pytest.raises(ValueError):
            Host(0, "h", 0.0, 0.0, 0, (0, 0), 1.0, os="beos")

    def test_distance_between_hosts(self, factory):
        a = factory.create(0.0, 0.0)
        b = factory.create(0.0, 1.0)
        assert a.distance_to(b) == pytest.approx(111.2, rel=0.01)

    def test_location_property(self, factory):
        host = factory.create(12.3, 45.6)
        assert host.location == (12.3, 45.6)


class TestFactory:
    def test_sequential_ids(self, factory):
        a = factory.create(10.0, 10.0)
        b = factory.create(20.0, 20.0)
        assert b.host_id == a.host_id + 1

    def test_attaches_to_nearest_city(self, factory):
        host = factory.create(52.4, 13.5)  # just outside Berlin
        city = factory.topology.city(host.city_id)
        assert city.iso2 == "DE"

    def test_last_mile_grows_with_distance(self, factory):
        # A host far from any city pays a bigger last mile (statistically;
        # compare means over several draws to ride out the random base).
        near = [factory.create(52.52, 13.40).last_mile_ms for _ in range(10)]
        far = [factory.create(75.0, 100.0).last_mile_ms for _ in range(10)]
        assert sum(far) / 10 > sum(near) / 10

    def test_explicit_router_respected(self, factory):
        router = factory.topology.access_router(0)
        host = factory.create(0.0, 0.0, router=router)
        assert host.router == router

    def test_explicit_city_respected(self, factory):
        host = factory.create(0.0, 0.0, city_id=3)
        assert host.city_id == 3

    def test_default_name_generated(self, factory):
        host = factory.create(1.0, 1.0)
        assert host.name.startswith("host-")

    def test_hosts_recorded(self, factory):
        before = len(factory.hosts)
        factory.create(5.0, 5.0)
        assert len(factory.hosts) == before + 1


class TestVectorisedNearestCity:
    def test_matches_scalar_reference(self, factory):
        import numpy as np
        rng = np.random.default_rng(21)
        for _ in range(300):
            lat = float(rng.uniform(-89.0, 89.0))
            lon = float(rng.uniform(-179.0, 179.0))
            assert (factory.nearest_city(lat, lon)
                    == oracles.scalar_nearest_city(factory, lat, lon))

    def test_exactly_on_a_city(self, factory):
        for city in factory.topology.cities[::17]:
            assert factory.nearest_city(city.lat, city.lon) == city
