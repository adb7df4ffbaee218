"""Commercial VPN providers and their (sometimes fictitious) server fleets.

Seven synthetic providers, A through G, mirror the paper's study
population: five of them claim very broad country coverage, two make
modest claims.  Each *claim* (provider, country) is backed by one or more
server IPs.  Whether a server is actually in its claimed country is
decided by the provider's honesty profile crossed with the country's
hosting tier: claims in easy-hosting countries are usually true, claims in
the long tail are usually backed by a server consolidated in one of the
provider's few real data centres (Czech Republic, Germany, Netherlands,
UK, USA, ... — the paper's finding).

Ground truth is retained on every :class:`ProxyServer`, which is what lets
the evaluation check the geolocation verdicts.  Servers at the same
provider + data centre share an ASN and a /24, enabling the paper's
metadata disambiguation (Figure 16).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..geo.countries import CountryRegistry
from ..geo.datacenters import DataCenterRegistry
from .atlas import Landmark
from .hosts import Host, HostFactory
from .network import Network
from .topology import Topology

#: Provider honesty profiles.  ``breadth`` is how many countries the
#: provider claims (None = every country in the registry); ``honesty`` is a
#: multiplier on the per-tier probability that a claim is backed by a real
#: in-country server.
PROVIDER_PROFILES: Dict[str, Dict[str, object]] = {
    "A": {"breadth": None, "honesty": 0.60},
    "B": {"breadth": 120, "honesty": 0.45},
    "C": {"breadth": 95, "honesty": 0.90},
    "D": {"breadth": 75, "honesty": 1.00},
    "E": {"breadth": 60, "honesty": 0.50},
    "F": {"breadth": 35, "honesty": 0.85},
    "G": {"breadth": 20, "honesty": 0.95},
}

#: P(claim is honest) by hosting tier, before the provider multiplier.
TIER_HONESTY = {1: 0.95, 2: 0.55, 3: 0.07}

#: Where consolidated (fake-location) servers actually live: weights over
#: tier-1 hosting countries, biased toward the paper's "probable country"
#: list (GB, DE, CZ, NL, US, FR, ...).
CONSOLIDATION_WEIGHTS: Dict[str, float] = {
    "US": 4.0, "DE": 3.5, "NL": 3.0, "GB": 3.0, "CZ": 2.5, "FR": 2.0,
    "CA": 1.5, "SE": 1.0, "RU": 1.0, "SG": 1.0, "JP": 0.8, "AU": 0.8,
    "PL": 0.6, "ES": 0.6, "LV": 0.6, "RO": 0.5, "CH": 0.5, "IT": 0.5,
}

#: Fraction of proxy servers that answer ICMP echo at all (paper: ~10 %).
PING_RESPONSE_RATE = 0.10


@dataclass(frozen=True)
class ProxyServer:
    """One VPN server IP, with simulator-side ground truth attached."""

    hostname: str
    ip: str
    provider: str
    claimed_country: str
    host: Host
    asn: int
    prefix: str                  # the /24 this IP belongs to
    datacenter_city_id: int
    honest: bool                 # ground truth: is it in the claimed country?
    responds_to_ping: bool
    gateway_responds: bool
    allows_traceroute: bool

    @property
    def true_location(self) -> Tuple[float, float]:
        return (self.host.lat, self.host.lon)


@dataclass
class VpnProvider:
    """A provider: its name, its claims, and its server fleet."""

    name: str
    claimed_countries: List[str]
    servers: List[ProxyServer] = field(default_factory=list)

    def servers_claiming(self, iso2: str) -> List[ProxyServer]:
        return [s for s in self.servers if s.claimed_country == iso2]

    @property
    def n_claimed_countries(self) -> int:
        return len(self.claimed_countries)


class _HostingAllocator:
    """Allocates hosting ASes and /24 prefixes per (provider, city)."""

    def __init__(self, topology: Topology, rng: np.random.Generator):
        self._topology = topology
        self._rng = rng
        self._by_site: Dict[Tuple[str, int], Tuple[int, str]] = {}
        self._hosts_in_prefix: Dict[str, int] = {}
        self._next_prefix_id = 1

    def allocate(self, provider: str, city_id: int) -> Tuple[int, str, str]:
        """Return (asn, prefix, ip) for a new server of this provider here."""
        site = (provider, city_id)
        if site not in self._by_site:
            hosting_as = self._topology.add_hosting_as(
                f"Hosting-{provider}-{self._topology.city(city_id).name}",
                city_id, self._rng)
            second_octet = self._next_prefix_id // 256
            third_octet = self._next_prefix_id % 256
            prefix = f"198.{second_octet}.{third_octet}.0/24"
            self._next_prefix_id += 1
            self._by_site[site] = (hosting_as.asn, prefix)
        asn, prefix = self._by_site[site]
        host_number = self._hosts_in_prefix.get(prefix, 0) + 1
        if host_number > 254:
            raise RuntimeError(f"prefix {prefix} exhausted")
        self._hosts_in_prefix[prefix] = host_number
        ip = prefix.rsplit(".", 1)[0] + f".{host_number}"
        return asn, prefix, ip

    def router_for(self, provider: str, city_id: int):
        asn, _ = self._by_site[(provider, city_id)]
        return (asn, city_id)


def _claim_list(registry: CountryRegistry, breadth: Optional[int],
                rng: np.random.Generator) -> List[str]:
    """Choose which countries a provider claims.

    Tier-1 and tier-2 countries are always claimed first (every real
    provider offers the popular locations); the long tail is sampled.
    """
    tier12 = [c.iso2 for c in registry if c.hosting_tier <= 2]
    tier3 = [c.iso2 for c in registry if c.hosting_tier == 3]
    if breadth is None or breadth >= len(registry):
        return tier12 + tier3
    claims = list(tier12[:breadth])
    remaining = breadth - len(claims)
    if remaining > 0:
        extras = rng.choice(tier3, size=min(remaining, len(tier3)), replace=False)
        claims.extend(str(e) for e in extras)
    return claims


def _servers_for_claim(claimed: str, tier: int, rng: np.random.Generator,
                       scale: float) -> int:
    """How many server IPs back one (provider, country) claim.

    Tier-1 counts are weighted by country popularity: the paper's fleets
    pile real servers into the US, Germany, the Netherlands, and the UK
    (its ten most-claimed countries hold 84 % of the credible cases).
    """
    if tier == 1:
        popularity = CONSOLIDATION_WEIGHTS.get(claimed, 0.4)
        base = float(rng.integers(3, 8)) * (0.6 + popularity)
    elif tier == 2:
        base = float(rng.integers(2, 5))
    else:
        base = float(rng.integers(1, 3))
    return max(1, int(round(base * scale)))


def build_proxy_fleet(network: Network, factory: HostFactory,
                      datacenters: DataCenterRegistry,
                      registry: Optional[CountryRegistry] = None,
                      seed: int = 0, scale: float = 1.0) -> List[VpnProvider]:
    """Generate the seven providers' full server fleets.

    ``scale`` shrinks or grows per-claim server counts; ``scale=1.0``
    yields roughly the paper's 2269 servers.
    """
    registry = registry if registry is not None else CountryRegistry.default()
    rng = np.random.default_rng(seed)
    topology = network.topology
    allocator = _HostingAllocator(topology, rng)

    consolidation_codes = [code for code in CONSOLIDATION_WEIGHTS if code in registry]
    weights = np.array([CONSOLIDATION_WEIGHTS[c] for c in consolidation_codes])
    weights = weights / weights.sum()

    providers: List[VpnProvider] = []
    for provider_name, profile in PROVIDER_PROFILES.items():
        claims = _claim_list(registry, profile["breadth"], rng)
        # Each provider consolidates its fake servers in a few countries.
        n_consolidation = int(rng.integers(3, 7))
        consolidation = list(rng.choice(consolidation_codes, size=n_consolidation,
                                        replace=False, p=weights))
        provider = VpnProvider(name=provider_name, claimed_countries=claims)
        for claimed in claims:
            country = registry.get(claimed)
            n_servers = _servers_for_claim(claimed, country.hosting_tier,
                                           rng, scale)
            p_honest = min(1.0, TIER_HONESTY[country.hosting_tier]
                           * float(profile["honesty"]))
            for server_number in range(n_servers):
                honest = bool(rng.random() < p_honest)
                if honest:
                    sites = datacenters.in_country(claimed)
                    if sites:
                        site = sites[int(rng.integers(len(sites)))]
                        lat, lon = site.lat, site.lon
                    else:
                        lat, lon = country.anchors[0]
                else:
                    # A fake server must actually be somewhere *else*.
                    pool = [code for code in consolidation if code != claimed]
                    if not pool:
                        pool = [code for code in consolidation_codes
                                if code != claimed]
                    fake_country = registry.get(
                        pool[int(rng.integers(len(pool)))])
                    sites = datacenters.in_country(fake_country.iso2)
                    if sites:
                        site = sites[int(rng.integers(len(sites)))]
                        lat, lon = site.lat, site.lon
                    else:
                        lat, lon = fake_country.anchors[0]
                city = factory.nearest_city(lat, lon)
                asn, prefix, ip = allocator.allocate(provider_name, city.city_id)
                host = factory.create(
                    lat, lon,
                    name=f"{provider_name.lower()}-{claimed.lower()}-{server_number}",
                    responds_to_ping=bool(rng.random() < PING_RESPONSE_RATE),
                    listens_on_port_80=True,
                    city_id=city.city_id,
                    router=allocator.router_for(provider_name, city.city_id),
                    # Data-centre uplink: sub-millisecond to the hosting AS.
                    last_mile_ms=float(rng.uniform(0.05, 0.6)))
                provider.servers.append(ProxyServer(
                    hostname=(f"{claimed.lower()}.{provider_name.lower()}"
                              f"-vpn.example"),
                    ip=ip,
                    provider=provider_name,
                    claimed_country=claimed,
                    host=host,
                    asn=asn,
                    prefix=prefix,
                    datacenter_city_id=city.city_id,
                    honest=honest,
                    responds_to_ping=bool(rng.random() < PING_RESPONSE_RATE),
                    gateway_responds=bool(rng.random() < 0.10),
                    allows_traceroute=bool(rng.random() < 0.66),
                ))
        providers.append(provider)
    return providers


class ProxiedClient:
    """A measurement client whose traffic is tunnelled through one proxy.

    Models the paper's section 5.3 setting: every RTT observed through the
    tunnel is the *sum* of client→proxy and proxy→landmark round trips
    (plus proxy processing), and the client→proxy component must be
    estimated by a self-ping through the tunnel because the proxy itself
    drops ICMP.
    """

    #: Per-packet processing delay added by the VPN software, ms.
    PROXY_OVERHEAD_MS = (0.3, 2.0)

    #: Which measurement burst a scheduled tunnel drop strikes.  Burst 0
    #: is the phase-1 panel; burst 1 is the phase-2 panel — a drop there
    #: is the paper's "proxy disappeared mid-campaign" case.  Later bursts
    #: are retries, by which time the tunnel has reconnected.
    _DROP_BURST = 1

    def __init__(self, network: Network, client: Host, proxy: ProxyServer,
                 seed: int = 0):
        self.network = network
        self.client = client
        self.proxy = proxy
        self._rng = np.random.default_rng(seed)
        self._burst_index = 0
        self._client_base: Optional[Tuple[int, float]] = None

    def _overhead(self, rng: np.random.Generator) -> float:
        low, high = self.PROXY_OVERHEAD_MS
        return float(rng.uniform(low, high))

    def _client_leg_base(self) -> float:
        """The client→proxy round-trip floor, resolved once per tunnel.

        Every burst through the tunnel reuses the same host pair, so the
        deterministic floor is cached (keyed on the topology version) and
        handed to the samplers instead of being re-resolved per burst.
        """
        version = self.network.topology.version
        if self._client_base is None or self._client_base[0] != version:
            self._client_base = (
                version, self.network.base_rtt_ms(self.client, self.proxy.host))
        return self._client_base[1]

    def rtt_through_proxy_ms(self, landmark: Landmark,
                             rng: Optional[np.random.Generator] = None) -> float:
        """TCP-connect time to a landmark, tunnelled through the proxy."""
        rng = rng if rng is not None else self._rng
        leg_client = self.network.rtt_sample_ms(self.client, self.proxy.host, rng)
        leg_landmark = self.network.rtt_sample_ms(self.proxy.host, landmark.host, rng)
        return leg_client + leg_landmark + self._overhead(rng)

    def rtt_through_proxy_matrix_ms(self, landmarks: Sequence[Landmark],
                                    n: int,
                                    rng: Optional[np.random.Generator] = None
                                    ) -> np.ndarray:
        """``(len(landmarks), n)`` tunnelled RTT samples, one noise draw.

        The client→proxy leg is the same host pair for every landmark, so
        its ``len(landmarks) * n`` samples come from a single batch.
        """
        rng = rng if rng is not None else self._rng
        k = len(landmarks)
        if k == 0:
            return np.empty((0, n))
        legs_client = self.network.rtt_samples_ms(
            self.client, self.proxy.host, k * n, rng,
            base=self._client_leg_base()).reshape(k, n)
        legs_landmark = self.network.rtt_samples_matrix_ms(
            self.proxy.host, [lm.host for lm in landmarks], n, rng)
        low, high = self.PROXY_OVERHEAD_MS
        samples = (legs_client + legs_landmark
                   + rng.uniform(low, high, size=(k, n)))
        faults = self.network.active_faults()
        if faults is not None:
            if self._burst_index == self._DROP_BURST:
                drop_point = faults.tunnel_drop_point(self.proxy.host.host_id)
                if drop_point is not None:
                    # The tunnel drops partway through the panel: every
                    # probe from that landmark on is lost until the
                    # measurer retries (the reconnect).
                    samples[int(drop_point * k):] = np.nan
            self._burst_index += 1
        return samples

    def self_ping_through_proxy_ms(self,
                                   rng: Optional[np.random.Generator] = None) -> float:
        """Client pings itself through the tunnel: ≈ 2× the direct RTT.

        The packet travels client→proxy→client and the reply retraces the
        route, so the client→proxy path is traversed twice in each
        direction.
        """
        rng = rng if rng is not None else self._rng
        leg_out = self.network.rtt_sample_ms(self.client, self.proxy.host, rng)
        leg_back = self.network.rtt_sample_ms(self.client, self.proxy.host, rng)
        return leg_out + leg_back + self._overhead(rng)

    def self_ping_through_proxy_samples_ms(self, n: int,
                                           rng: Optional[np.random.Generator] = None
                                           ) -> np.ndarray:
        """``n`` tunnel self-ping samples, drawn in batch."""
        rng = rng if rng is not None else self._rng
        base = self._client_leg_base()
        legs_out = self.network.rtt_samples_ms(
            self.client, self.proxy.host, n, rng, base=base)
        legs_back = self.network.rtt_samples_ms(
            self.client, self.proxy.host, n, rng, base=base)
        low, high = self.PROXY_OVERHEAD_MS
        return legs_out + legs_back + rng.uniform(low, high, size=n)


def competitor_claim_counts(n_providers: int = 150, seed: int = 7,
                            max_countries: int = 197) -> List[int]:
    """Country-claim counts for the wider VPN market (Figure 14 backdrop).

    A heavy-tailed ranking: a few providers claim almost every sovereign
    state, most claim a handful.  Drawn once, deterministically.
    """
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n_providers + 1, dtype=float)
    counts = max_countries * np.exp(-ranks / 11.0) + rng.integers(1, 8, size=n_providers)
    counts = np.clip(counts, 1, max_countries).astype(int)
    return sorted((int(c) for c in counts), reverse=True)
