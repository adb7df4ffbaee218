"""Synthetic IP-to-location databases (the paper's Figure 21 comparators).

Five databases modelled on DB-IP, Eureka, IP2Location, IPInfo, and
MaxMind.  The paper's hypothesis is that such databases largely *echo the
providers' claims* — either because their compilers were fed location
codes the providers control, or because provider influence propagates with
some lag.  Each synthetic database therefore has:

* ``susceptibility`` — the probability it repeats a provider's claim even
  when the claim is false;
* ``registry_accuracy`` — when it does not repeat the claim, the chance it
  reports the *true* hosting country (IP registry information for
  commercial data centres is "reasonably close to the truth") rather than
  some stale third country.

True claims are almost always confirmed: nothing pushes a database away
from a correct location.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..geo.countries import CountryRegistry
from .proxies import ProxyServer


@dataclass(frozen=True)
class IpToLocationDatabase:
    """One commercial geolocation database, with its bias parameters."""

    name: str
    susceptibility: float      # P(repeat claim | claim false)
    registry_accuracy: float   # P(true country | not repeating a false claim)
    agree_when_true: float = 0.98

    def __post_init__(self) -> None:
        for attribute in ("susceptibility", "registry_accuracy", "agree_when_true"):
            value = getattr(self, attribute)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{self.name}: {attribute} must be a probability")


DEFAULT_DATABASES = (
    IpToLocationDatabase("DB-IP", susceptibility=0.88, registry_accuracy=0.80),
    IpToLocationDatabase("Eureka", susceptibility=0.96, registry_accuracy=0.60),
    IpToLocationDatabase("IP2Location", susceptibility=0.78, registry_accuracy=0.85),
    IpToLocationDatabase("IPInfo", susceptibility=0.86, registry_accuracy=0.85),
    IpToLocationDatabase("MaxMind", susceptibility=0.95, registry_accuracy=0.70),
)


class IpdbPanel:
    """Deterministic lookups across the database panel.

    Lookups are seeded by (database, IP) so repeated queries agree — a
    database is a static snapshot, not a noise source.
    """

    def __init__(self, databases=DEFAULT_DATABASES,
                 registry: Optional[CountryRegistry] = None, seed: int = 0):
        self.databases: List[IpToLocationDatabase] = list(databases)
        self.registry = registry if registry is not None else CountryRegistry.default()
        self._seed = seed
        self._stale_pool = [c.iso2 for c in self.registry if c.hosting_tier <= 2]

    def _rng_for(self, database: IpToLocationDatabase, server: ProxyServer):
        # Not hash(): a str's hash is salted per process.
        key = zlib.crc32(f"{self._seed}|{database.name}|{server.ip}".encode())
        return np.random.default_rng(key)

    def lookup(self, database_name: str, server: ProxyServer,
               true_country: str) -> str:
        """The country this database reports for the server's IP."""
        database = self.by_name(database_name)
        rng = self._rng_for(database, server)
        if server.claimed_country == true_country:
            if rng.random() < database.agree_when_true:
                return server.claimed_country
            return self._stale_country(rng, exclude=server.claimed_country)
        if rng.random() < database.susceptibility:
            return server.claimed_country
        if rng.random() < database.registry_accuracy:
            return true_country
        return self._stale_country(rng, exclude=server.claimed_country)

    def _stale_country(self, rng: np.random.Generator, exclude: str) -> str:
        candidates = [c for c in self._stale_pool if c != exclude]
        return candidates[int(rng.integers(len(candidates)))]

    def by_name(self, name: str) -> IpToLocationDatabase:
        for database in self.databases:
            if database.name == name:
                return database
        raise KeyError(f"unknown database {name!r}")

    def names(self) -> List[str]:
        return [d.name for d in self.databases]

    def agreement_with_claim(self, database_name: str, server: ProxyServer,
                             true_country: str) -> bool:
        """Does the database agree with the provider's claimed country?"""
        return self.lookup(database_name, server, true_country) == server.claimed_country
