"""Shared fixtures for the benchmark harness.

One scenario (and one full-fleet audit, memoised inside
``repro.experiments.audit.cached_audit``) is shared across every figure's
benchmark, mirroring how the paper's measurement campaign fed all of its
analyses.  Run with ``pytest benchmarks/ --benchmark-only -s`` to see the
regenerated figure tables.
"""

import pytest

from repro.experiments import cached_audit, default_scenario


@pytest.fixture(scope="session", autouse=True)
def snapshot_dir(tmp_path_factory):
    """Keep the benchmarks' substrate snapshots in a per-session directory,
    never the user's ``~/.cache/repro``."""
    path = tmp_path_factory.mktemp("snapshots")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SNAPSHOT_DIR", str(path))
        yield path


@pytest.fixture(scope="session")
def scenario():
    return default_scenario()


@pytest.fixture(scope="session")
def audit(scenario):
    """The shared full-fleet audit consumed by Figures 16-23."""
    return cached_audit(scenario, max_servers=None, seed=0)


def emit(table: str) -> None:
    """Print a regenerated figure table (visible with -s)."""
    print()
    print(table)
