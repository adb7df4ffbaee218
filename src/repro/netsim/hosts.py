"""End hosts on the synthetic Internet.

A :class:`Host` is anything with a network position: a RIPE-Atlas-style
anchor, a probe, a crowdsourced volunteer's laptop, a measurement client,
or a proxy server.  Hosts attach to the access AS of their nearest city
with a stochastic last-mile delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..geodesy.constants import BASELINE_SPEED_KM_PER_MS
from ..geodesy.greatcircle import haversine_km, haversine_km_select, validate_latlon
from .cities import City
from .topology import RouterId, Topology


@dataclass(frozen=True)
class Host:
    """A network endpoint in a known (to the simulator) location."""

    host_id: int
    name: str
    lat: float
    lon: float
    city_id: int
    router: RouterId
    last_mile_ms: float
    os: str = "linux"           # "linux" or "windows"; affects web-tool noise
    responds_to_ping: bool = True
    listens_on_port_80: bool = True

    def __post_init__(self) -> None:
        validate_latlon(self.lat, self.lon)
        if self.last_mile_ms < 0:
            raise ValueError(f"negative last-mile delay: {self.last_mile_ms!r}")
        if self.os not in ("linux", "windows"):
            raise ValueError(f"unsupported OS {self.os!r}")

    @property
    def location(self) -> Tuple[float, float]:
        return (self.lat, self.lon)

    def distance_to(self, other: "Host") -> float:
        """Great-circle distance to another host, km."""
        return haversine_km(self.lat, self.lon, other.lat, other.lon)


class HostFactory:
    """Creates hosts attached to a topology, with sequential ids."""

    def __init__(self, topology: Topology, seed: int = 0):
        self.topology = topology
        self._rng = np.random.default_rng(seed)
        self._next_id = 0
        self.hosts: List[Host] = []
        # The city list is immutable, so the coordinate arrays the
        # vectorised nearest-city search scans are built once.
        self._city_lats = np.array([c.lat for c in topology.cities])
        self._city_lons = np.array([c.lon for c in topology.cities])

    def nearest_city(self, lat: float, lon: float) -> City:
        """The topologically attachable city closest to a point.

        One vectorised distance pass over all cities; ``argmin`` returns
        the first minimum, matching the scalar ``min()`` it replaces.
        """
        distances = haversine_km_select(lat, lon,
                                        self._city_lats, self._city_lons)
        return self.topology.cities[int(np.argmin(distances))]

    def create(self, lat: float, lon: float, name: Optional[str] = None,
               os: str = "linux", responds_to_ping: bool = True,
               listens_on_port_80: Optional[bool] = None,
               city_id: Optional[int] = None,
               router: Optional[RouterId] = None,
               last_mile_ms: Optional[float] = None) -> Host:
        """Attach a new host at the given coordinates.

        The host connects to its nearest city's access AS unless an
        explicit ``router`` (e.g. a hosting AS for a proxy) is given.
        Last-mile delay grows with the distance to the attachment city
        (local loops run well below long-haul fibre speed) unless
        ``last_mile_ms`` overrides it — data-centre servers sit on
        sub-millisecond uplinks.
        """
        city = (self.topology.city(city_id) if city_id is not None
                else self.nearest_city(lat, lon))
        if router is None:
            router = self.topology.access_router(city.city_id)
        access_distance = haversine_km(lat, lon, city.lat, city.lon)
        if last_mile_ms is not None:
            last_mile = last_mile_ms
        else:
            last_mile = (access_distance * 1.5 / BASELINE_SPEED_KM_PER_MS
                         + float(self._rng.uniform(0.4, 3.0)))
        if listens_on_port_80 is None:
            listens_on_port_80 = bool(self._rng.random() < 0.5)
        host = Host(
            host_id=self._next_id,
            name=name if name is not None else f"host-{self._next_id}",
            lat=lat,
            lon=lon,
            city_id=city.city_id,
            router=router,
            last_mile_ms=last_mile,
            os=os,
            responds_to_ping=responds_to_ping,
            listens_on_port_80=listens_on_port_80,
        )
        self._next_id += 1
        self.hosts.append(host)
        return host
