"""The distance bank's separable fill is bit-identical to a full sweep.

``DistanceBank`` computes each field's haversine terms once per grid row
and once per grid column, and takes block minima/maxima from those
factors.  The oracles below are the one-sweep fill it replaced: the
broadcast :func:`haversine_km_vec` row cast to float32, and the block
aggregates reduced from that float32 field over axes ``(2, 4)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.bank import DistanceBank
from repro.geo.grid import Grid
from repro.geodesy.greatcircle import haversine_km_vec

EDGE_LATS = (89.9, -89.9, 90.0, -90.0, 0.0)
EDGE_LONS = (179.9, -179.9, 180.0, -180.0, 0.0, 359.9)

GRIDS = {res: Grid(resolution_deg=res) for res in (0.5, 1.0, 2.0, 180 / 19)}


def sweep_rows(grid, lats, lons):
    """Oracle: every cell of every field in one broadcast sweep."""
    return haversine_km_vec(
        np.asarray(lats)[:, None], np.asarray(lons)[:, None],
        grid.cell_lats[None, :], grid.cell_lons[None, :]).astype(np.float32)


def reduced_blocks(grid, fields, side):
    """Oracle: block min/max reduced from the float32 fields."""
    shaped = fields.reshape(len(fields), grid.n_lat // side, side,
                            grid.n_lon // side, side)
    return (shaped.min(axis=(2, 4)).reshape(len(fields), -1),
            shaped.max(axis=(2, 4)).reshape(len(fields), -1))


lats = st.one_of(st.sampled_from(EDGE_LATS),
                 st.floats(-90.0, 90.0).map(lambda x: round(x, 4)))
lons = st.one_of(st.sampled_from(EDGE_LONS),
                 st.floats(-180.0, 360.0).map(lambda x: round(x, 4)))
points = st.lists(st.tuples(lats, lons), min_size=1, max_size=5,
                  unique=True)


def check_fill(grid, drawn):
    bank = DistanceBank(grid, max_points=64)
    point_lats = [lat for lat, _ in drawn]
    point_lons = [lon for _, lon in drawn]
    rows = bank.rows(point_lats, point_lons)
    fields = bank.field_block(point_lats, point_lons)
    expected = sweep_rows(grid, point_lats, point_lons)
    assert np.array_equal(fields.view(np.uint32), expected.view(np.uint32))
    side = bank._block_side
    if side:
        low, high = reduced_blocks(grid, expected, side)
        assert np.array_equal(bank._block_min[rows].view(np.uint32),
                              low.view(np.uint32))
        assert np.array_equal(bank._block_max[rows].view(np.uint32),
                              high.view(np.uint32))


@pytest.mark.parametrize("resolution", [1.0, 2.0, 180 / 19])
@settings(max_examples=40, deadline=None)
@given(drawn=points)
def test_fill_matches_sweep(resolution, drawn):
    check_fill(GRIDS[resolution], drawn)


@settings(max_examples=12, deadline=None)
@given(drawn=st.lists(st.tuples(lats, lons), min_size=1, max_size=2,
                      unique=True))
def test_fill_matches_sweep_half_degree(drawn):
    check_fill(GRIDS[0.5], drawn)


def test_edge_points_on_every_grid():
    drawn = [(lat, lon) for lat in EDGE_LATS for lon in EDGE_LONS[:4]]
    for grid in GRIDS.values():
        check_fill(grid, drawn)


def test_block_side_absent_on_prime_grid():
    grid = GRIDS[180 / 19]
    assert (grid.n_lat, grid.n_lon) == (19, 38)
    assert DistanceBank(grid)._block_side is None
