"""Prediction regions: sets of grid cells with geometric queries.

Every geolocation algorithm in :mod:`repro.core` ultimately produces a
:class:`Region` — the set of places the target could be.  Regions support
the operations the paper's evaluation needs:

* set algebra (intersection/union/difference) for multilateration,
* area in km² (Figure 9 panel C, Figure 11, Figure 20),
* centroid (Figure 9 panel B, Figure 20),
* distance from a point to the region's edge (Figure 9 panel A),
* country/continent coverage (the credible/uncertain/false assessment).

A region is a packed uint64 bitset — one bit per grid cell, padding
bits always zero — plus a lazily built per-block popcount index.  A
fleet audit holds one region per audited server resident in memory, and
packing shrinks that footprint ~8x while letting set algebra, emptiness
tests, and country-overlap checks run as word-wide AND/OR/popcount
instead of byte-per-cell boolean sweeps.  The boolean API
(``region.mask``) remains available as a lazy, cached view for
read-side consumers; nothing in this module computes from it.

Two invariants keep every operation bit-identical to the plain boolean
formulas it implements (the test suite keeps those formulas as its
oracle):

* boolean decisions (emptiness, overlap, membership) are computed on
  words but are logically equal to the mask versions because padding
  bits are zero by construction;
* float reductions (area, centroid, distances) gather *the same member
  vector in the same order* as ``values[mask]`` (``values[mask]`` and
  ``values[flatnonzero(mask)]`` are the same array) and reduce it with
  the same NumPy calls, so not a single ulp moves.

Regions are immutable in style: operations return new regions and never
mutate ``self.mask`` in place (callers may share masks).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .. import sanitize
from ..geodesy.geometry import SphericalDisk, SphericalRing
from ..geodesy.greatcircle import haversine_km_vec
from .grid import Grid

#: Words per block of the popcount index (32 words = 2048 cells): small
#: enough that member gathers skip empty ocean wholesale, large enough
#: that the index itself stays a few hundred bytes per region.
WORDS_PER_BLOCK = 32


def _sanitize_operands(context: str, *regions: "Region") -> None:
    """Re-verify operand padding under ``REPRO_SANITIZE=1``.

    Padding is clear by construction (:meth:`Region.from_words` rejects
    dirty words), but a shared word buffer corrupted *in place* after
    construction can poison ops whose results stay padding-clear (e.g.
    ``difference``'s ``self & ~other``) without tripping any always-on
    check — this boundary assertion catches that the moment the buffer
    feeds an operation.
    """
    if not sanitize.enabled():
        return
    for region in regions:
        sanitize.check_region_padding(
            region._words, region.grid.n_cells, context)


def n_words_for(n_bits: int) -> int:
    """uint64 words needed to hold ``n_bits`` packed bits."""
    return (n_bits + 63) // 64


def pack_bits(mask: np.ndarray) -> np.ndarray:
    """Pack a boolean vector (or ``(k, n)`` matrix) into uint64 words.

    Bit order matches :func:`numpy.packbits` (MSB-first within each
    byte); padding bits beyond the mask length are zero, so word-level
    AND/OR/any/popcount agree exactly with the boolean operations.
    """
    matrix = np.asarray(mask)
    if matrix.dtype != np.bool_:
        matrix = matrix.astype(bool)
    squeeze = matrix.ndim == 1
    if squeeze:
        matrix = matrix[None, :]
    packed8 = np.packbits(matrix, axis=-1)
    pad = (-packed8.shape[-1]) % 8
    if pad:
        packed8 = np.concatenate(
            [packed8, np.zeros((packed8.shape[0], pad), dtype=np.uint8)],
            axis=-1)
    words = np.ascontiguousarray(packed8).view(np.uint64)
    return words[0] if squeeze else words


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Invert :func:`pack_bits` for a single packed row."""
    return np.unpackbits(words.view(np.uint8), count=n_bits).astype(bool)


def _tail_keep_byte_mask(n_bits: int) -> Tuple[int, int]:
    """(index of first padding byte, keep-mask for the straddling byte)."""
    full_bytes, spare_bits = divmod(n_bits, 8)
    keep = (0xFF << (8 - spare_bits)) & 0xFF if spare_bits else 0
    return full_bytes, keep


def _check_padding_clear(words: np.ndarray, n_bits: int) -> bool:
    """Are all bits beyond ``n_bits`` zero?"""
    n_bytes = (n_bits + 7) // 8
    as_bytes = words.view(np.uint8)
    first_pad_byte, keep = _tail_keep_byte_mask(n_bits)
    if first_pad_byte < n_bytes and int(as_bytes[first_pad_byte]) & (~keep & 0xFF):
        return False
    return not as_bytes[n_bytes:].any()


class Region:
    """A set of grid cells on an analysis :class:`~repro.geo.grid.Grid`."""

    __slots__ = ("grid", "_mask", "_words", "_block_pop", "_area_km2",
                 "_n_members")

    def __init__(self, grid: Grid, mask: np.ndarray):
        if mask.shape != (grid.n_cells,):
            raise ValueError(
                f"mask shape {mask.shape} does not match grid with {grid.n_cells} cells")
        self._adopt(grid, pack_bits(mask))

    def _adopt(self, grid: Grid, words: np.ndarray) -> None:
        self.grid = grid
        self._words: np.ndarray = words
        self._mask: Optional[np.ndarray] = None
        self._block_pop: Optional[np.ndarray] = None
        self._area_km2: Optional[float] = None
        self._n_members: Optional[int] = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, grid: Grid) -> "Region":
        return cls.from_words(
            grid, np.zeros(n_words_for(grid.n_cells), dtype=np.uint64))

    @classmethod
    def full(cls, grid: Grid) -> "Region":
        return cls.from_words(grid, _full_words(grid.n_cells))

    @classmethod
    def from_disk(cls, grid: Grid, disk: SphericalDisk) -> "Region":
        return cls(grid, grid.disk_mask(disk.lat, disk.lon, disk.radius_km))

    @classmethod
    def from_ring(cls, grid: Grid, ring: SphericalRing) -> "Region":
        return cls(grid, grid.ring_mask(ring.lat, ring.lon, ring.inner_km, ring.outer_km))

    @classmethod
    def from_cells(cls, grid: Grid, indices: Iterable[int]) -> "Region":
        mask = np.zeros(grid.n_cells, dtype=bool)
        for index in indices:
            if not (0 <= index < grid.n_cells):
                raise IndexError(f"cell index out of range: {index!r}")
            mask[index] = True
        return cls(grid, mask)

    @classmethod
    def from_words(cls, grid: Grid, words: np.ndarray) -> "Region":
        """Adopt packed uint64 words directly (padding bits must be zero).

        This is the zero-copy constructor the packed mask kernels and the
        checkpoint round-trip use; the boolean view is built lazily only
        if some consumer asks for it.
        """
        words = np.ascontiguousarray(words, dtype=np.uint64)
        expected = n_words_for(grid.n_cells)
        if words.shape != (expected,):
            raise ValueError(
                f"words shape {words.shape} does not match grid needing "
                f"{expected} uint64 words")
        if not _check_padding_clear(words, grid.n_cells):
            raise ValueError("packed region has set bits beyond n_cells")
        region = cls.__new__(cls)
        region._adopt(grid, words)
        return region

    @classmethod
    def from_packbits(cls, grid: Grid, data: bytes) -> "Region":
        """Rebuild a region from :meth:`packed_bytes` output.

        The byte string is exactly ``np.packbits(mask).tobytes()`` — the
        format audit payloads and checkpoint journals carry — so this is
        a straight copy into words with no cell-level unpacking at all.
        """
        expected = (grid.n_cells + 7) // 8
        if len(data) != expected:
            raise ValueError(
                f"packed region has {len(data)} bytes; grid needs {expected}")
        as_bytes = np.frombuffer(data, dtype=np.uint8)
        pad = (-len(data)) % 8
        if pad:
            as_bytes = np.concatenate(
                [as_bytes, np.zeros(pad, dtype=np.uint8)])
        return cls.from_words(grid, np.ascontiguousarray(as_bytes).view(np.uint64))

    # -- representations ----------------------------------------------------

    @property
    def mask(self) -> np.ndarray:
        """Boolean view of the region (lazy, cached).  Treat as read-only."""
        if self._mask is None:
            self._mask = unpack_bits(self._words, self.grid.n_cells)
        return self._mask

    @property
    def words(self) -> np.ndarray:
        """The packed uint64 words.  Treat as read-only."""
        return self._words

    @property
    def has_bool_view(self) -> bool:
        """Has the boolean view been materialised (and cached)?"""
        return self._mask is not None

    def resident_nbytes(self) -> int:
        """Bytes this region currently keeps resident (all cached forms)."""
        total = self._words.nbytes
        if self._mask is not None:
            total += self._mask.nbytes
        if self._block_pop is not None:
            total += self._block_pop.nbytes
        return total

    def packed_bytes(self) -> bytes:
        """``np.packbits(self.mask).tobytes()``, straight from the words.

        The exact byte string the checkpoint journal stores, with the
        word-level zero padding truncated away.
        """
        _sanitize_operands("Region.packed_bytes", self)
        n_bytes = (self.grid.n_cells + 7) // 8
        return self._words.view(np.uint8)[:n_bytes].tobytes()

    @property
    def block_popcounts(self) -> np.ndarray:
        """Member count per :data:`WORDS_PER_BLOCK`-word block (cached).

        The coarse index lets member gathers, area, and iteration skip
        all-zero stretches of ocean without touching cell-level data.
        """
        if self._block_pop is None:
            counts = np.bitwise_count(self._words)
            boundaries = np.arange(0, len(counts), WORDS_PER_BLOCK)
            self._block_pop = np.add.reduceat(
                counts.astype(np.int64), boundaries)
        return self._block_pop

    # -- set algebra ----------------------------------------------------------

    def intersect(self, other: "Region") -> "Region":
        self._check_same_grid(other)
        _sanitize_operands("Region.intersect", self, other)
        return Region.from_words(self.grid, self._words & other._words)

    def union(self, other: "Region") -> "Region":
        self._check_same_grid(other)
        _sanitize_operands("Region.union", self, other)
        return Region.from_words(self.grid, self._words | other._words)

    def difference(self, other: "Region") -> "Region":
        self._check_same_grid(other)
        _sanitize_operands("Region.difference", self, other)
        # other's padding flips to 1 under ~, but self's padding is 0,
        # so the AND keeps the result's padding clear.
        return Region.from_words(self.grid, self._words & ~other._words)

    def complement(self) -> "Region":
        """Every cell not in this region."""
        _sanitize_operands("Region.complement", self)
        return Region.from_words(
            self.grid, self._words ^ _full_words(self.grid.n_cells))

    def intersect_mask(self, mask: np.ndarray) -> "Region":
        """Intersect with a raw boolean mask (e.g. a land or latitude mask)."""
        _sanitize_operands("Region.intersect_mask", self)
        return Region.from_words(self.grid, self._words & pack_bits(mask))

    def intersect_words(self, words: np.ndarray) -> "Region":
        """Intersect with pre-packed words (e.g. the plausibility bitset).

        The hot path of every prediction's terrain clipping: one AND over
        ~1k words instead of ~65k boolean bytes, with no unpacking.
        """
        _sanitize_operands("Region.intersect_words", self)
        if sanitize.enabled():
            sanitize.check_region_padding(
                np.ascontiguousarray(words, dtype=np.uint64),
                self.grid.n_cells, "Region.intersect_words operand words")
        return Region.from_words(self.grid, self._words & words)

    def _check_same_grid(self, other: "Region") -> None:
        if other.grid is not self.grid:
            raise ValueError("regions live on different grids")

    def __and__(self, other: "Region") -> "Region":
        return self.intersect(other)

    def __or__(self, other: "Region") -> "Region":
        return self.union(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        if self.grid is not other.grid:
            return False
        return bool(np.array_equal(self._words, other._words))

    def __hash__(self) -> int:  # regions are mutable-array holders; no hashing
        raise TypeError("Region is unhashable")

    # -- queries ---------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not bool(self._words.any())

    @property
    def n_cells(self) -> int:
        if self._n_members is None:
            self._n_members = int(self.block_popcounts.sum())
        return self._n_members

    def _member_values(self, per_cell: np.ndarray) -> np.ndarray:
        """``per_cell[self.mask]`` without materialising the bool view.

        Integer-gathering by :meth:`cell_indices` yields the identical
        vector (same values, same order), so every float reduction over
        it is bit-identical to the boolean formula.
        """
        return per_cell[self.cell_indices()]

    def area_km2(self) -> float:
        """Total surface area of the region, km²."""
        if self._area_km2 is None:
            self._area_km2 = float(
                self._member_values(self.grid.cell_areas_km2).sum())
        return self._area_km2

    def contains(self, lat: float, lon: float) -> bool:
        """Is the cell containing this point part of the region?"""
        index = self.grid.cell_index(lat, lon)
        byte = self._words.view(np.uint8)[index >> 3]
        return bool((int(byte) >> (7 - (index & 7))) & 1)

    def contains_cells(self, indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`contains` over precomputed cell indices.

        Same bit test per cell, so ``contains_cells(cells)[i] ==
        contains(*grid.cell_center(cells[i]))`` for cell-centre points;
        callers resolve points to indices once and reuse them across
        many regions (the data-centre disambiguation pattern).
        """
        indices = np.asarray(indices, dtype=np.intp)
        view = self._words.view(np.uint8)
        shifts = (7 - (indices & 7)).astype(np.uint8)
        return (view[indices >> 3] >> shifts) & 1 != 0

    def centroid(self) -> Optional[Tuple[float, float]]:
        """Area-weighted centroid, or None for an empty region.

        Computed via mean 3-D unit vector, so regions straddling the
        antimeridian get a sensible answer.
        """
        if self.is_empty:
            return None
        lats = np.radians(self._member_values(self.grid.cell_lats))
        lons = np.radians(self._member_values(self.grid.cell_lons))
        weights = self._member_values(self.grid.cell_areas_km2)
        x = float(np.average(np.cos(lats) * np.cos(lons), weights=weights))
        y = float(np.average(np.cos(lats) * np.sin(lons), weights=weights))
        z = float(np.average(np.sin(lats), weights=weights))
        norm = np.sqrt(x * x + y * y + z * z)
        if norm < 1e-12:
            # Perfectly antipodally-balanced region; fall back to any cell.
            index = int(self.cell_indices()[0])
            return self.grid.cell_center(index)
        lat = float(np.degrees(np.arcsin(z / norm)))
        lon = float(np.degrees(np.arctan2(y, x)))
        return lat, lon

    def distance_to_point_km(self, lat: float, lon: float) -> float:
        """Distance from the point to the nearest cell of the region.

        Zero when the point is inside the region (the Figure 9A
        "distance from edge to location" metric).  Raises on an empty
        region — an empty prediction has no edge.
        """
        if self.is_empty:
            raise ValueError("empty region has no distance to anything")
        if self.contains(lat, lon):
            return 0.0
        member_lats = self._member_values(self.grid.cell_lats)
        member_lons = self._member_values(self.grid.cell_lons)
        return float(haversine_km_vec(lat, lon, member_lats, member_lons).min())

    def cell_indices(self) -> np.ndarray:
        """Indices of all member cells (ascending), unpacking only the
        non-empty word blocks."""
        nonzero_blocks = np.flatnonzero(self.block_popcounts)
        if nonzero_blocks.size == 0:
            return np.empty(0, dtype=np.intp)
        words = self._words
        pad = (-len(words)) % WORDS_PER_BLOCK
        if pad:
            words = np.concatenate(
                [words, np.zeros(pad, dtype=np.uint64)])
        blocked = words.reshape(-1, WORDS_PER_BLOCK)[nonzero_blocks]
        bits_per_block = WORDS_PER_BLOCK * 64
        bits = np.unpackbits(
            blocked.view(np.uint8).reshape(len(nonzero_blocks), -1), axis=1)
        flat = np.flatnonzero(bits)
        within = flat % bits_per_block
        base = nonzero_blocks[flat // bits_per_block].astype(np.intp)
        return base * bits_per_block + within

    def __repr__(self) -> str:
        return (f"Region(cells={self.n_cells}/{self.grid.n_cells}, "
                f"area={self.area_km2():.0f} km2)")


#: Cache of all-ones word vectors keyed by bit count (grids recur).
_FULL_WORDS: Dict[int, np.ndarray] = {}


def _full_words(n_bits: int) -> np.ndarray:
    words = _FULL_WORDS.get(n_bits)
    if words is None:
        words = pack_bits(np.ones(n_bits, dtype=bool))
        words.setflags(write=False)
        if len(_FULL_WORDS) >= 8:
            _FULL_WORDS.pop(next(iter(_FULL_WORDS)))
        _FULL_WORDS[n_bits] = words
    return words
