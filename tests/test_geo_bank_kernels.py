"""The bank's two mask kernels equal their naive formulas bit for bit.

``DistanceBank.disk_intersections_fleet`` settles whole blocks from the
coarse min/max aggregates and refines only boundary blocks, and both it
and ``ring_votes_fleet`` sweep a padded fleet of ragged panels in chunks
of at most ``FLEET_CHUNK`` servers (fewer for the disk kernel when the
chunk's aggregate gather would exceed ``_GATHER_ELEMENTS``).  The
oracles in ``tests/oracles.py`` are the plain broadcast formulas on one
panel at a time, over fields computed here with
:func:`haversine_km_vec`, independently of the bank's fill.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.bank import DistanceBank
from repro.geo.grid import Grid
from repro.geodesy.constants import MAX_SURFACE_DISTANCE_KM
from repro.geodesy.greatcircle import haversine_km_vec
from tests.oracles import naive_disk_intersections, naive_ring_votes

#: A 4° grid (side-9 blocks) and the 180/19° grid, which has no block
#: side (19 rows), so the kernels take their full-width branch.
GRIDS = {res: Grid(resolution_deg=res) for res in (4.0, 180 / 19)}

#: Landmarks per pool; half sit on cell centres, where a radius-0 disk
#: still covers a cell.
POOL = 12
K_MAX = 7

#: Fleet sizes at and either side of one and two chunk boundaries.
_CHUNK = DistanceBank.FLEET_CHUNK
SPANS = (1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1)


class SmallGatherBank(DistanceBank):
    """Gathers at most 1,000 block aggregates at a time: on the 4° grid's
    50 blocks the disk kernel sweeps 2 (k = 7) to 20 (k = 1) servers per
    chunk, so most fleets end in a partial chunk."""

    _GATHER_ELEMENTS = 1000


def _pool(grid, bank_class=DistanceBank):
    rng = np.random.default_rng(19)
    centres = rng.choice(grid.n_cells, POOL // 2, replace=False)
    lats = np.concatenate([grid.cell_lats[centres],
                           rng.uniform(-89.0, 89.0, POOL - POOL // 2)])
    lons = np.concatenate([grid.cell_lons[centres],
                           rng.uniform(-180.0, 180.0, POOL - POOL // 2)])
    bank = bank_class(grid, max_points=2 * POOL)
    rows = bank.rows(lats.tolist(), lons.tolist())
    fields = haversine_km_vec(
        lats[:, None], lons[:, None], grid.cell_lats[None, :],
        grid.cell_lons[None, :]).astype(np.float32)
    return bank, rows, fields


POOLS = {res: _pool(grid) for res, grid in GRIDS.items()}
SMALL_GATHER_POOL = _pool(GRIDS[4.0], SmallGatherBank)


def _radii(rng, shape):
    """Radii over the whole range, with exact 0 and antipodal extremes."""
    radii = rng.uniform(0.0, MAX_SURFACE_DISTANCE_KM, shape)
    pick = rng.random(shape)
    radii[pick < 0.1] = 0.0
    radii[pick > 0.9] = MAX_SURFACE_DISTANCE_KM
    return radii.astype(np.float32)


def _ragged_fleet(rng, span):
    """Per-server pool indices (1..K_MAX each) and the padded matrix of
    pool slots: absent slots repeat the server's first landmark."""
    counts = rng.integers(1, K_MAX + 1, span)
    k = int(counts.max())
    picks = [rng.choice(POOL, int(count), replace=False) for count in counts]
    slots = np.empty((span, k), dtype=np.intp)
    for s, pick in enumerate(picks):
        slots[s, :len(pick)] = pick
        slots[s, len(pick):] = pick[0]
    return counts, picks, slots


kernel_cases = dict(resolution=st.sampled_from(sorted(GRIDS)),
                    span=st.sampled_from(SPANS),
                    seed=st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(n_families=st.sampled_from((1, 2)), small_gathers=st.booleans(),
       **kernel_cases)
def test_disk_kernel_matches_naive(resolution, span, seed, n_families,
                                   small_gathers):
    bank, pool_rows, fields = (SMALL_GATHER_POOL if small_gathers and
                               resolution == 4.0 else POOLS[resolution])
    rng = np.random.default_rng(seed)
    counts, picks, slots = _ragged_fleet(rng, span)
    radii = np.full((n_families,) + slots.shape, np.inf, dtype=np.float32)
    for s, count in enumerate(counts):
        radii[:, s, :count] = _radii(rng, (n_families, count))
    words = bank.disk_intersections_fleet(pool_rows[slots], radii)
    assert words.shape[:2] == (n_families, span)
    for s, (count, pick) in enumerate(zip(counts, picks)):
        expected = naive_disk_intersections(fields[pick],
                                            radii[:, s, :count])
        assert np.array_equal(words[:, s], expected), (s, count)


@settings(max_examples=40, deadline=None)
@given(**kernel_cases)
def test_ring_kernel_matches_naive(resolution, span, seed):
    bank, pool_rows, fields = POOLS[resolution]
    rng = np.random.default_rng(seed)
    counts, picks, slots = _ragged_fleet(rng, span)
    inner = np.full(slots.shape, np.inf, dtype=np.float32)
    outer = np.full(slots.shape, np.inf, dtype=np.float32)
    for s, count in enumerate(counts):
        low, high = np.sort(_radii(rng, (2, count)), axis=0)
        inner[s, :count] = low
        outer[s, :count] = high
    votes = bank.ring_votes_fleet(pool_rows[slots], inner, outer)
    assert votes.shape == (span, GRIDS[resolution].n_cells)
    for s, (count, pick) in enumerate(zip(counts, picks)):
        expected = naive_ring_votes(fields[pick], inner[s, :count],
                                    outer[s, :count])
        assert np.array_equal(votes[s], expected), (s, count)
