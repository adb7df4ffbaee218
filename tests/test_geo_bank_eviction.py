"""Property tests for ``DistanceBank._evict_oldest_half``.

Eviction compacts the field matrix, renumbers rows, and recomputes (by
gathering) the coarse block aggregates.  These tests drive the bank past
its ``max_points`` bound with random point streams and check that the
survivors' state is indistinguishable from a bank that never evicted:
fields, block min/max aggregates, the row memo, and the block-pruned
disk kernel against the naive broadcasted mask.
"""

import numpy as np
import pytest

from repro.geo.bank import DistanceBank
from repro.geo.grid import Grid
from repro.geo.region import pack_bits
from repro.geodesy.greatcircle import haversine_km_vec


@pytest.fixture(scope="module")
def grid():
    # 6 degrees: 30 x 60 cells, divisible by the preferred block side of
    # 10, so the coarse-aggregate machinery is fully exercised.
    return Grid(resolution_deg=6.0)


def _random_points(rng, n):
    return list(zip(rng.uniform(-85.0, 85.0, n), rng.uniform(-179.0, 179.0, n)))


def _fill_past_eviction(grid, rng, max_points=16, n_batches=6):
    bank = DistanceBank(grid, max_points=max_points)
    points = []
    evictions = 0
    for _ in range(n_batches):
        batch = _random_points(rng, int(rng.integers(3, max_points - 1)))
        before = set(bank._row_of)
        bank.warm(batch)
        if before - set(bank._row_of):
            evictions += 1
        points.extend(batch)
    assert evictions > 0, "stream never overflowed the bank"
    return bank, points


class TestEvictionConsistency:
    def test_survivor_fields_are_exact(self, grid):
        from repro.geo.bank import _key
        rng = np.random.default_rng(0)
        bank, points = _fill_past_eviction(grid, rng)
        checked = 0
        for lat, lon in points:          # full-precision originals
            row = bank._row_of.get(_key(lat, lon))
            if row is None:
                continue                 # evicted
            expected = haversine_km_vec(
                lat, lon, grid.cell_lats, grid.cell_lons).astype(np.float32)
            assert np.array_equal(bank._fields[row], expected)
            checked += 1
        assert checked == bank.n_points

    def test_block_aggregates_match_fields(self, grid):
        rng = np.random.default_rng(1)
        bank, _ = _fill_past_eviction(grid, rng)
        side = bank._block_side
        assert side is not None
        live = bank._fields[:bank.n_points]
        shaped = live.reshape(bank.n_points, grid.n_lat // side, side,
                              grid.n_lon // side, side)
        assert np.array_equal(bank._block_min[:bank.n_points],
                              shaped.min(axis=(2, 4)).reshape(
                                  bank.n_points, bank._n_blocks))
        assert np.array_equal(bank._block_max[:bank.n_points],
                              shaped.max(axis=(2, 4)).reshape(
                                  bank.n_points, bank._n_blocks))

    def test_rows_memo_never_serves_stale_rows(self, grid):
        rng = np.random.default_rng(2)
        bank = DistanceBank(grid, max_points=8)
        panel = _random_points(rng, 5)
        lats = [p[0] for p in panel]
        lons = [p[1] for p in panel]
        bank.rows(lats, lons)                       # memoises the panel
        bank.warm(_random_points(rng, 7))           # forces eviction
        rows = bank.rows(lats, lons)                # must refill, not reuse
        for (lat, lon), row in zip(panel, rows):
            expected = haversine_km_vec(
                lat, lon, grid.cell_lats, grid.cell_lons).astype(np.float32)
            assert np.array_equal(bank._fields[int(row)], expected)

    def test_disk_intersections_match_naive_after_eviction(self, grid):
        rng = np.random.default_rng(3)
        bank, points = _fill_past_eviction(grid, rng)
        panel = [(lat, lon) for (lat, lon) in bank._row_of][:6]
        lats = [p[0] for p in panel]
        lons = [p[1] for p in panel]
        families = rng.uniform(200.0, 12000.0, size=(3, len(panel)))
        pruned = bank.disk_intersections_fleet(
            bank.rows(lats, lons)[None], families[:, None])[:, 0]
        fields = np.stack([
            haversine_km_vec(lat, lon, grid.cell_lats,
                             grid.cell_lons).astype(np.float32)
            for lat, lon in panel])
        radii = families.astype(np.float32)
        naive = np.stack([(fields <= radii[f][:, None]).all(axis=0)
                          for f in range(radii.shape[0])])
        assert np.array_equal(pruned, pack_bits(naive))

    def test_eviction_keeps_newest_half(self, grid):
        rng = np.random.default_rng(4)
        bank = DistanceBank(grid, max_points=10)
        first = _random_points(rng, 10)
        bank.warm(first)
        extra = _random_points(rng, 2)
        bank.warm(extra)
        from repro.geo.bank import _key
        surviving = set(bank._row_of)
        # The oldest half is gone; the newest five of the first batch and
        # both new points remain.
        for lat, lon in extra:
            assert _key(lat, lon) in surviving
        for lat, lon in first[5:]:
            assert _key(lat, lon) in surviving
        for lat, lon in first[:5]:
            assert _key(lat, lon) not in surviving
        assert bank.n_points == 10 // 2 + len(extra)
