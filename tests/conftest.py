"""Shared fixtures for the test suite.

The (memoised) default scenario is expensive enough to share at session
scope; tests must treat it as read-only.  Purely geometric/statistical
tests use small purpose-built fixtures instead.
"""

import numpy as np
import pytest

from repro.experiments import cached_audit, default_scenario
from repro.geo import CountryRegistry, Country, Grid, WorldMap


@pytest.fixture(scope="session", autouse=True)
def snapshot_dir(tmp_path_factory):
    """Keep the suite's substrate snapshots in one per-session directory.

    Without this every audit in the suite would read and write the
    user's ``~/.cache/repro``, and a stale file there could decide which
    code path a test exercises.
    """
    path = tmp_path_factory.mktemp("snapshots")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SNAPSHOT_DIR", str(path))
        yield path


@pytest.fixture(scope="session")
def scenario():
    return default_scenario()


@pytest.fixture(scope="session")
def audit(scenario):
    """A shared audit over a slice of the fleet (used by pipeline tests)."""
    return cached_audit(scenario, max_servers=150, seed=0)


@pytest.fixture(scope="session")
def coarse_grid():
    """A 4-degree grid: 4050 cells, fast enough for exhaustive checks."""
    return Grid(resolution_deg=4.0)


@pytest.fixture(scope="session")
def tiny_registry():
    """A two-country toy world: a square 'Alphaland' and 'Betaland'."""
    return CountryRegistry([
        Country("AA", "Alphaland", "EU", 1, ((10.0, 20.0, 0.0, 10.0),),
                ((15.0, 5.0),)),
        Country("BB", "Betaland", "EU", 3, ((10.0, 20.0, 12.0, 22.0),),
                ((15.0, 17.0),)),
    ])


@pytest.fixture(scope="session")
def tiny_world(tiny_registry, coarse_grid):
    return WorldMap(registry=tiny_registry, grid=coarse_grid)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
