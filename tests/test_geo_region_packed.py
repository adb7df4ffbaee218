"""Property tests for the packed (uint64 bitset) Region representation.

Every operation on a region, and every ``WorldMap`` query over one, must
agree bit for bit with the plain boolean formula (``tests.oracles``) —
including on grids whose cell count is not a multiple of 64 (the padding
bits of the last word must stay invisible) and at the empty/full
extremes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import Grid, WorldMap
from repro.geo.region import Region, n_words_for, pack_bits, unpack_bits
from tests import oracles

#: Grids whose n_cells leave a ragged tail word (4050 % 64 == 18,
#: 648 % 64 == 8): the padding-bit contract is exercised on every op.
RAGGED_RESOLUTIONS = (4.0, 10.0)


@pytest.fixture(scope="module", params=RAGGED_RESOLUTIONS)
def ragged_grid(request):
    grid = Grid(resolution_deg=request.param)
    assert grid.n_cells % 64 != 0, "fixture must exercise a ragged tail"
    return grid


@pytest.fixture(scope="module")
def ragged_worldmap(ragged_grid):
    return WorldMap(grid=ragged_grid)


def random_mask(grid, seed, density=0.3):
    rng = np.random.default_rng(seed)
    return rng.random(grid.n_cells) < density


#: Region densities from empty through a few scattered cells to dense.
DENSITIES = st.sampled_from([0.0, 0.002, 0.02, 0.3])


class TestPackHelpers:
    @given(n_bits=st.integers(1, 300), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_round_trip(self, n_bits, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random(n_bits) < 0.5
        words = pack_bits(mask)
        assert words.dtype == np.uint64
        assert len(words) == n_words_for(n_bits)
        assert np.array_equal(unpack_bits(words, n_bits), mask)

    def test_matrix_packing_matches_rowwise(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((5, 130)) < 0.4
        packed = pack_bits(matrix)
        assert packed.shape == (5, n_words_for(130))
        for row in range(5):
            assert np.array_equal(packed[row], pack_bits(matrix[row]))

    def test_padding_bits_are_zero(self):
        mask = np.ones(70, dtype=bool)   # 70 % 64 == 6: ragged tail
        words = pack_bits(mask)
        assert np.array_equal(unpack_bits(words, 70), mask)
        spill = np.unpackbits(words.view(np.uint8))[70:]
        assert not spill.any()


class TestPackedAlgebra:
    @given(seed_a=st.integers(0, 1000), seed_b=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_and_or_difference_match_bool(self, ragged_grid, seed_a, seed_b):
        mask_a = random_mask(ragged_grid, seed_a)
        mask_b = random_mask(ragged_grid, seed_b)
        region_a = Region(ragged_grid, mask_a)
        region_b = Region(ragged_grid, mask_b)
        assert np.array_equal((region_a & region_b).mask, mask_a & mask_b)
        assert np.array_equal((region_a | region_b).mask, mask_a | mask_b)
        assert np.array_equal(region_a.difference(region_b).mask,
                              mask_a & ~mask_b)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_complement_matches_bool(self, ragged_grid, seed):
        mask = random_mask(ragged_grid, seed)
        region = Region(ragged_grid, mask)
        flipped = region.complement()
        assert np.array_equal(flipped.mask, ~mask)
        # Padding must stay clear or the double complement would drift.
        assert flipped.complement() == region

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_popcount_iteration_area(self, ragged_grid, seed):
        mask = random_mask(ragged_grid, seed)
        region = Region(ragged_grid, mask)
        assert region.n_cells == int(mask.sum())
        assert np.array_equal(region.cell_indices(), np.flatnonzero(mask))
        assert region.area_km2() == float(
            ragged_grid.cell_areas_km2[mask].sum())
        assert int(region.block_popcounts.sum()) == int(mask.sum())

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_packed_bytes_round_trip(self, ragged_grid, seed):
        mask = random_mask(ragged_grid, seed)
        region = Region(ragged_grid, mask)
        data = region.packed_bytes()
        assert data == np.packbits(mask).tobytes()
        assert Region.from_packbits(ragged_grid, data) == region

    def test_empty_and_full_extremes(self, ragged_grid):
        empty = Region.empty(ragged_grid)
        full = Region.full(ragged_grid)
        assert empty.is_empty and empty.n_cells == 0
        assert not full.is_empty and full.n_cells == ragged_grid.n_cells
        assert len(empty.cell_indices()) == 0
        assert np.array_equal(full.cell_indices(),
                              np.arange(ragged_grid.n_cells))
        assert full.complement() == empty
        assert empty.complement() == full
        assert (empty | full) == full
        assert (empty & full) == empty
        assert Region.from_packbits(
            ragged_grid, full.packed_bytes()) == full

    def test_from_words_rejects_dirty_padding(self, ragged_grid):
        words = np.zeros(n_words_for(ragged_grid.n_cells), dtype=np.uint64)
        # The final bit of the last word (LSB of its last byte, i.e. mask
        # position n_words*64 - 1) is past n_cells on every ragged grid.
        words[-1] = np.uint64(1) << np.uint64(56)
        with pytest.raises(ValueError, match="beyond n_cells"):
            Region.from_words(ragged_grid, words)

    def test_from_packbits_rejects_wrong_length(self, ragged_grid):
        with pytest.raises(ValueError, match="bytes"):
            Region.from_packbits(ragged_grid, b"\x00" * 3)


class TestEngineDispatch:
    def test_default_engine_is_packed(self, ragged_grid):
        mask = random_mask(ragged_grid, 1)
        region = Region(ragged_grid, mask)
        assert np.array_equal(region.words, pack_bits(mask))
        assert not region.has_bool_view
        assert np.array_equal(region.mask, mask)
        assert region.has_bool_view   # lazy view materialised and cached

    def test_packed_resident_memory_is_smaller(self, ragged_grid):
        mask = random_mask(ragged_grid, 3)
        packed = Region(ragged_grid, mask)
        assert packed.resident_nbytes() * 4 < mask.nbytes


class TestQueriesMatchBooleanFormulas:
    """The queries that once had a boolean branch, against that formula."""

    @given(seed=st.integers(0, 1000), other=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_intersect_mask(self, ragged_grid, seed, other):
        mask = random_mask(ragged_grid, seed)
        other_mask = random_mask(ragged_grid, other, density=0.6)
        result = Region(ragged_grid, mask).intersect_mask(other_mask)
        assert np.array_equal(result.mask,
                              oracles.bool_intersect_mask(mask, other_mask))

    @given(seed=st.integers(0, 1000), other=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_intersect_words(self, ragged_grid, seed, other):
        mask = random_mask(ragged_grid, seed)
        words = pack_bits(random_mask(ragged_grid, other, density=0.6))
        result = Region(ragged_grid, mask).intersect_words(words)
        assert np.array_equal(result.mask,
                              oracles.bool_intersect_words(mask, words))

    @given(seed=st.integers(0, 1000),
           lat=st.floats(-90.0, 90.0), lon=st.floats(-180.0, 180.0))
    @settings(max_examples=60, deadline=None)
    def test_contains(self, ragged_grid, seed, lat, lon):
        mask = random_mask(ragged_grid, seed)
        assert (Region(ragged_grid, mask).contains(lat, lon)
                == oracles.bool_contains(ragged_grid, mask, lat, lon))

    @given(seed=st.integers(0, 1000), pick=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_contains_cells(self, ragged_grid, seed, pick):
        mask = random_mask(ragged_grid, seed)
        cells = np.random.default_rng(pick).integers(
            0, ragged_grid.n_cells, size=64)
        cells[:2] = (0, ragged_grid.n_cells - 1)   # both raster ends
        assert np.array_equal(
            Region(ragged_grid, mask).contains_cells(cells),
            oracles.bool_contains_cells(mask, cells))

    @given(seed=st.integers(0, 1000), density=DENSITIES)
    @settings(max_examples=30, deadline=None)
    def test_clip_to_plausible(self, ragged_worldmap, seed, density):
        mask = random_mask(ragged_worldmap.grid, seed, density)
        clipped = ragged_worldmap.clip_to_plausible(
            Region(ragged_worldmap.grid, mask))
        assert np.array_equal(
            clipped.mask, oracles.bool_clip_to_plausible(ragged_worldmap,
                                                         mask))

    @given(seed=st.integers(0, 1000), density=DENSITIES)
    @settings(max_examples=30, deadline=None)
    def test_countries_covered(self, ragged_worldmap, seed, density):
        mask = random_mask(ragged_worldmap.grid, seed, density)
        assert (ragged_worldmap.countries_covered(
                    Region(ragged_worldmap.grid, mask))
                == oracles.bool_countries_covered(ragged_worldmap, mask))

    @given(seed=st.integers(0, 1000),
           density=st.sampled_from([0.0, 0.001, 0.005, 0.02]),
           country=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_distance_to_country_km(self, ragged_worldmap, seed, density,
                                    country):
        codes = ragged_worldmap.registry.codes()
        iso2 = codes[country % len(codes)]
        mask = random_mask(ragged_worldmap.grid, seed, density)
        region = Region(ragged_worldmap.grid, mask)
        expected = oracles.bool_distance_to_country_km(
            ragged_worldmap, mask, iso2)
        assert ragged_worldmap.distance_to_country_km(region,
                                                      iso2) == expected
