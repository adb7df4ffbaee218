"""Shared fixtures for the performance benchmarks.

The paper's figure, ablation and extension claims are tier-1 tests
(``tests/claims.py``), and so are the perf gates that read no clock
(``tests/test_perf_memory.py``); this directory holds the perf gates
that read one, which share the memoised default scenario.
"""

import pytest

from repro.experiments import default_scenario


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
