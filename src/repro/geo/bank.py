"""DistanceBank: a contiguous bank of landmark→cell distance fields.

Every multilateration primitive reduces to comparisons against the
great-circle distance from some landmark to every cell of the analysis
grid.  The bank stores those distance fields as rows of one contiguous
``(n_points, n_cells)`` float32 matrix, so that

* a whole constraint set becomes a single broadcasted comparison
  (``fields <= radii[:, None]``) instead of a Python loop of per-landmark
  mask calls,
* missing fields are filled separably: the haversine terms are computed
  once per grid row and once per grid column, then combined per cell
  with the same float64 operations :func:`haversine_km_vec` applies, so
  a field costs one ``arcsin`` per cell and no ``(k, n_cells)`` float64
  temporaries,
* a forked audit worker inherits the parent's fully-warmed matrix as
  copy-on-write pages, giving the process pool shared, zero-copy access
  to the heaviest data structure in the pipeline.

Rows are keyed by rounded ``(lat, lon)`` exactly like the old per-point
LRU cache, so the bank returns bit-identical distance values — it changes
how fields are stored and batched, never what they contain.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import sanitize
from ..geodesy.greatcircle import haversine_term_km, validate_latlon
from .region import n_words_for, pack_bits

#: Decimal places used to key a coordinate (matches the old grid LRU).
_KEY_DECIMALS = 5


def _key(lat: float, lon: float) -> Tuple[float, float]:
    return (round(float(lat), _KEY_DECIMALS), round(float(lon), _KEY_DECIMALS))


class DistanceBank:
    """Precomputed distance fields for a :class:`~repro.geo.grid.Grid`.

    Parameters
    ----------
    grid:
        The analysis grid whose cell centres the fields are measured to.
    max_points:
        Soft bound on stored rows.  When exceeded, the oldest half of the
        bank is evicted (landmarks recur heavily, so in practice a fleet
        audit never evicts).
    """

    #: Preferred block edge lengths (in cells) for the coarse aggregates,
    #: best first.  The first one dividing both grid dimensions wins.
    _BLOCK_SIDES = (10, 12, 9, 6, 8, 5, 4, 3, 2)

    def __init__(self, grid, max_points: int = 512):
        if max_points < 2:
            raise ValueError(f"max_points too small: {max_points!r}")
        self.grid = grid
        self.max_points = int(max_points)
        self._row_of: Dict[Tuple[float, float], int] = {}
        self._fields = np.empty((0, grid.n_cells), dtype=np.float32)
        self._views: List[np.ndarray] = []
        self._block_cache: Dict[Tuple[int, ...], np.ndarray] = {}
        # Coarse per-block min/max of every field row: the disk
        # intersection kernel classifies whole blocks as inside/outside
        # and only inspects cells where a disk boundary actually passes.
        self._block_side = next(
            (side for side in self._BLOCK_SIDES
             if grid.n_lat % side == 0 and grid.n_lon % side == 0), None)
        if self._block_side:
            self._n_blocks = (grid.n_lat // self._block_side) * \
                (grid.n_lon // self._block_side)
        else:
            self._n_blocks = 0
        self._block_min = np.empty((0, self._n_blocks), dtype=np.float32)
        self._block_max = np.empty((0, self._n_blocks), dtype=np.float32)
        self._block_cells: Optional[np.ndarray] = None
        self._rows_memo: Dict[tuple, np.ndarray] = {}

    # -- storage -------------------------------------------------------------

    @property
    def n_points(self) -> int:
        """Number of distance fields currently stored."""
        return len(self._views)

    @property
    def nbytes(self) -> int:
        """Bytes held by the field matrix (capacity, not just live rows)."""
        return self._fields.nbytes

    def _grow(self, extra: int) -> None:
        needed = self.n_points + extra
        capacity = self._fields.shape[0]
        if needed <= capacity:
            return
        # Doubling growth, clamped at max_points: eviction keeps live rows
        # under the bound, so capacity beyond it would never be reached.
        new_capacity = max(needed, min(max(8, capacity * 2), self.max_points))
        grown = np.empty((new_capacity, self.grid.n_cells), dtype=np.float32)
        grown[:self.n_points] = self._fields[:self.n_points]
        self._fields = grown
        self._views = [self._fields[i] for i in range(self.n_points)]
        if self._block_side:
            for name in ("_block_min", "_block_max"):
                old = getattr(self, name)
                fresh = np.empty((new_capacity, self._n_blocks), dtype=np.float32)
                fresh[:self.n_points] = old[:self.n_points]
                setattr(self, name, fresh)

    def _evict_oldest_half(self) -> None:
        keep = self.n_points // 2
        survivors = sorted(self._row_of.items(), key=lambda kv: kv[1])[-keep:]
        compacted = np.empty_like(self._fields)
        self._row_of = {}
        old_rows = [old_row for _, old_row in survivors]
        for new_row, (key, old_row) in enumerate(survivors):
            compacted[new_row] = self._fields[old_row]
            self._row_of[key] = new_row
        self._fields = compacted
        self._views = [self._fields[i] for i in range(keep)]
        if self._block_side:
            for name in ("_block_min", "_block_max"):
                old = getattr(self, name)
                fresh = np.empty_like(old)
                fresh[:keep] = old[old_rows]
                setattr(self, name, fresh)
        # Row numbers changed; keyed caches are stale.
        self._block_cache.clear()
        self._rows_memo.clear()

    def _fill(self, start: int, lats: np.ndarray, lons: np.ndarray) -> None:
        """Write the fields (and block aggregates) of points into rows
        ``start, start + 1, ...``.

        :func:`haversine_km_vec` computes, per cell,
        ``a = sin(dphi/2)**2 + cos(phi1)*cos(phi2) * sin(dlam/2)**2``.
        The first term and the cosine product depend only on the cell's
        grid row, the last only on its column, so they are computed once
        per row (``n_lat`` values) and once per column (``n_lon``), then
        combined with the same float64 operations in the same order —
        the same ufuncs on the same operand values, hence the same bits.
        Every step after the row/column terms is monotone
        non-decreasing (``cos >= 0`` on a sphere's latitudes), so a
        block's extreme field value is the transform of ``a`` at its
        extreme column term: the aggregates come from the factors too,
        exactly equal to reducing the float32 field.
        """
        grid = self.grid
        phi1 = np.radians(lats)[:, None]
        phi2 = np.radians(grid.lat_centers)[None, :]
        by_row = np.sin((phi2 - phi1) / 2.0) ** 2             # (k, n_lat)
        cosines = np.cos(phi1) * np.cos(phi2)                 # (k, n_lat)
        by_col = np.sin(np.radians(
            grid.lon_centers[None, :] - lons[:, None]) / 2.0) ** 2
        side = self._block_side
        scratch = np.empty((grid.n_lat, grid.n_lon))
        for i in range(len(lats)):
            row = start + i
            np.multiply(cosines[i, :, None], by_col[i], out=scratch)
            scratch += by_row[i, :, None]
            self._fields[row].reshape(grid.n_lat, grid.n_lon)[:] = \
                haversine_term_km(scratch, out=scratch)
            if not side:
                continue
            cols = by_col[i].reshape(grid.n_lon // side, side)
            for extreme, target in ((np.min, self._block_min),
                                    (np.max, self._block_max)):
                per_row = by_row[i, :, None] + cosines[i, :, None] \
                    * extreme(cols, axis=1)
                target[row] = haversine_term_km(extreme(per_row.reshape(
                    grid.n_lat // side, side, -1), axis=1)).ravel()

    def _cells_of_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Flat cell indices covered by the given block indices."""
        if self._block_cells is None:
            side = self._block_side
            n_blat = self.grid.n_lat // side
            n_blon = self.grid.n_lon // side
            cells = np.arange(self.grid.n_cells, dtype=np.int64).reshape(
                n_blat, side, n_blon, side)
            # (block_lat, block_lon, side, side) -> one row per block
            self._block_cells = np.ascontiguousarray(
                cells.transpose(0, 2, 1, 3)).reshape(
                self._n_blocks, side * side)
        return self._block_cells[blocks].ravel()

    def rows(self, lats: Sequence[float], lons: Sequence[float]) -> np.ndarray:
        """Row indices for a batch of points, computing any missing fields.

        All missing points are filled in one batch (see :meth:`_fill`).
        """
        memo_key = None
        if type(lats) is list and type(lons) is list:
            # The hot callers re-resolve the same landmark panel on every
            # prediction; short-circuit the per-point keying for them.
            memo_key = (tuple(lats), tuple(lons))
            memoised = self._rows_memo.get(memo_key)
            if memoised is not None:
                return memoised
        lats = np.atleast_1d(np.asarray(lats, dtype=float))
        lons = np.atleast_1d(np.asarray(lons, dtype=float))
        if lats.shape != lons.shape:
            raise ValueError("lats and lons must have matching shapes")
        keys = [_key(lat, lon) for lat, lon in zip(lats, lons)]
        missing: Dict[Tuple[float, float], int] = {}
        for position, key in enumerate(keys):
            if key not in self._row_of and key not in missing:
                validate_latlon(float(lats[position]), float(lons[position]))
                missing[key] = position
        if missing:
            if self.n_points + len(missing) > self.max_points:
                self._evict_oldest_half()
                # Eviction may have dropped keys that were still present
                # when the batch was scanned above — rescan so they are
                # refilled rather than looked up as stale rows.
                missing = {}
                for position, key in enumerate(keys):
                    if key not in self._row_of and key not in missing:
                        missing[key] = position
            self._grow(len(missing))
            positions = list(missing.values())
            base = self.n_points
            self._fill(base, lats[positions], lons[positions])
            for offset, key in enumerate(missing):
                row = base + offset
                self._row_of[key] = row
                self._views.append(self._fields[row])
        resolved = np.array([self._row_of[key] for key in keys], dtype=np.intp)
        if memo_key is not None:
            if len(self._rows_memo) >= 32:
                self._rows_memo.pop(next(iter(self._rows_memo)))
            self._rows_memo[memo_key] = resolved
        return resolved

    def warm(self, points: Sequence[Tuple[float, float]]) -> None:
        """Precompute fields for many points (e.g. a whole constellation).

        Called before forking audit workers so every child inherits the
        full bank as shared copy-on-write memory.
        """
        if not points:
            return
        lats = [p[0] for p in points]
        lons = [p[1] for p in points]
        self.rows(lats, lons)

    # -- field access --------------------------------------------------------

    def field(self, lat: float, lon: float) -> np.ndarray:
        """The distance field of one point (a shared row — read-only)."""
        row = int(self.rows([lat], [lon])[0])
        values = self._views[row]
        if sanitize.enabled():
            sanitize.check_distance_fields(values, "DistanceBank.field")
        return values

    def field_block(self, lats: Sequence[float], lons: Sequence[float]
                    ) -> np.ndarray:
        """A ``(k, n_cells)`` float32 block of distance fields.

        Returns a zero-copy slice when the rows happen to be contiguous
        (the common case right after a batch fill); a gather otherwise.
        Treat the result as read-only.
        """
        rows = self.rows(lats, lons)
        if len(rows) > 0:
            start, stop = int(rows[0]), int(rows[-1]) + 1
            if stop - start == len(rows) and np.array_equal(
                    rows, np.arange(start, stop)):
                block = self._fields[start:stop]
                if sanitize.enabled():
                    sanitize.check_distance_fields(
                        block, "DistanceBank.field_block")
                return block
        key = tuple(int(r) for r in rows)
        cached = self._block_cache.get(key)
        if cached is None:
            if len(self._block_cache) >= 6:   # a handful of landmark panels
                self._block_cache.pop(next(iter(self._block_cache)))
            cached = self._fields[rows]
            self._block_cache[key] = cached
        if sanitize.enabled():
            sanitize.check_distance_fields(cached, "DistanceBank.field_block")
        return cached

    # -- batched mask kernels ------------------------------------------------

    def disk_masks(self, lats: Sequence[float], lons: Sequence[float],
                   radii: Sequence[float],
                   columns: Optional[np.ndarray] = None) -> np.ndarray:
        """Boolean ``(k, n_cells)`` matrix of per-landmark disk masks.

        ``columns`` restricts the evaluation to a subset of grid cells
        (returning ``(k, len(columns))``), which is exact for any purely
        intersective downstream use.
        """
        radii = np.asarray(radii, dtype=np.float32)
        if (radii < 0).any():
            raise ValueError("negative disk radius")
        block = self.field_block(lats, lons)
        if columns is not None:
            block = block[:, columns]
        return block <= radii[:, None]

    def disk_intersections(self, lats: Sequence[float], lons: Sequence[float],
                           radii_families: Sequence[Sequence[float]],
                           packed: bool = False) -> np.ndarray:
        """AND of per-landmark disks, for one or more radius families.

        ``radii_families`` is an ``(m, k)`` matrix: each row gives one
        radius per landmark, and the result row ``f`` is the boolean mask
        ``AND_i (distance_i <= radii_families[f, i])`` over all cells.
        The families share one pass over the coarse block aggregates —
        whole blocks strictly inside (or outside) every disk are settled
        without touching cell-level data, and only cells of blocks crossed
        by some disk boundary are compared exactly.  Results are
        bit-identical to the naive broadcasted comparison.

        With ``packed=True`` the result rows are uint64 bitset words
        (``(m, n_words)``, padding bits zero) ready for zero-copy
        adoption by :meth:`Region.from_words`.
        """
        radii = np.asarray(radii_families, dtype=np.float32)
        if radii.ndim == 1:
            radii = radii[None, :]
        if (radii < 0).any():
            raise ValueError("negative disk radius")
        n_families, n_disks = radii.shape
        rows = self.rows(lats, lons)
        if n_disks != len(rows):
            raise ValueError("radii and points disagree in length")
        n_cells = self.grid.n_cells
        out = np.zeros((n_families, n_cells), dtype=bool)
        if not self._block_side:
            # Grid indivisible into blocks: plain full-width evaluation.
            block = self.field_block(lats, lons)
            for f in range(n_families):
                acc = block[0] <= radii[f, 0]
                for i in range(1, n_disks):
                    acc &= block[i] <= radii[f, i]
                out[f] = acc
            return pack_bits(out) if packed else out
        side = self._block_side
        block_max = self._block_max[rows]          # (k, n_blocks) — small
        block_min = self._block_min[rows]
        shape4 = (self.grid.n_lat // side, 1, self.grid.n_lon // side, 1)
        for f in range(n_families):
            family_radii = radii[f][:, None]
            inside = (block_max <= family_radii).all(axis=0)
            maybe = (block_min <= family_radii).all(axis=0)
            out[f].reshape(self.grid.n_lat // side, side,
                           self.grid.n_lon // side, side)[:] = \
                inside.reshape(shape4)
            edge_blocks = np.flatnonzero(maybe & ~inside)
            if not edge_blocks.size:
                continue
            # Disks covering every edge block entirely cannot change the
            # verdict; only disks whose boundary crosses one of them can.
            uncertain = np.flatnonzero(
                (block_max[:, edge_blocks] > family_radii).any(axis=1))
            cells = self._cells_of_blocks(edge_blocks)
            verdict = np.ones(cells.size, dtype=bool)
            for i in uncertain:
                verdict &= self._fields[rows[i]][cells] <= radii[f, i]
            out[f][cells] = verdict
        return pack_bits(out) if packed else out

    # -- fleet-level kernels -------------------------------------------------
    #
    # The per-server kernels above answer "one target, k landmarks"; a
    # fleet audit asks the same question for hundreds of targets whose
    # landmark panels heavily overlap.  The fleet front ends take padded
    # ``(n_servers, k)`` matrices of *bank row indices* (resolve them
    # with :meth:`rows` immediately beforehand — eviction renumbers rows)
    # plus per-server radii, and sweep the whole fleet through the block
    # aggregates in chunks of servers.  Padding slots carry ``+inf``
    # radii (disks) or ``+inf`` rings, which constrain nothing, so ragged
    # panels need no masking logic.  Results are bit-identical, server
    # for server, to the per-server kernels: both settle whole blocks
    # from the same aggregates and compare the same float32 fields
    # against the same float32 radii on edge cells.

    #: Servers per fleet-kernel sweep: bounds scratch memory at
    #: ~(chunk × k × n_blocks) floats regardless of fleet size, which is
    #: what keeps the 1k-server marginal cost flat.
    FLEET_CHUNK = 64

    #: (server, edge-block) pairs refined per gather; bounds the exact
    #: edge-cell scratch at ~(pairs × k × block cells) float32.
    _EDGE_PAIR_CHUNK = 2048

    def _validate_fleet_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 2:
            raise ValueError(f"fleet rows must be 2-D, got {rows.ndim}-D")
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_points):
            raise ValueError("fleet row index out of range; resolve rows "
                             "with DistanceBank.rows() first")
        return rows

    def disk_intersections_fleet(self, rows: np.ndarray,
                                 radii_families: np.ndarray,
                                 packed: bool = False) -> np.ndarray:
        """AND of per-landmark disks for every server of a fleet at once.

        ``rows`` is ``(n_servers, k)`` bank row indices; ``radii_families``
        is ``(m, n_servers, k)`` float32 (``(n_servers, k)`` is promoted to
        one family).  Result ``[f, s]`` is the AND over slot ``i`` of
        ``distance(rows[s, i]) <= radii_families[f, s, i]`` — exactly what
        :meth:`disk_intersections` returns for server ``s`` alone.  With
        ``packed=True`` the result is ``(m, n_servers, n_words)`` uint64
        bitset words (the only layout that scales to 1k+ fleets; the
        boolean form exists for the cross-engine identity tests).
        """
        rows = self._validate_fleet_rows(rows)
        radii = np.asarray(radii_families, dtype=np.float32)
        if radii.ndim == 2:
            radii = radii[None]
        if radii.ndim != 3 or radii.shape[1:] != rows.shape:
            raise ValueError("radii families and fleet rows disagree in shape")
        if (radii < 0).any():
            raise ValueError("negative disk radius")
        n_servers, k = rows.shape
        m = radii.shape[0]
        n_cells = self.grid.n_cells
        if packed:
            out = np.zeros((m, n_servers, n_words_for(n_cells)),
                           dtype=np.uint64)
        else:
            out = np.zeros((m, n_servers, n_cells), dtype=bool)
        if n_servers == 0 or k == 0:
            return out
        side = self._block_side
        for start in range(0, n_servers, self.FLEET_CHUNK):
            stop = min(start + self.FLEET_CHUNK, n_servers)
            span = stop - start
            chunk_rows = rows[start:stop]
            scratch = np.empty((span, n_cells), dtype=bool)
            if not side:
                # Grid indivisible into blocks: full-width evaluation,
                # slot by slot, vectorised over the server chunk.
                fields = self._fields
                for f in range(m):
                    scratch[:] = True
                    for i in range(k):
                        scratch &= (fields[chunk_rows[:, i]]
                                    <= radii[f, start:stop, i, None])
                    out[f, start:stop] = pack_bits(scratch) if packed \
                        else scratch
                continue
            n_blat = self.grid.n_lat // side
            n_blon = self.grid.n_lon // side
            for f in range(m):
                # Slot-major accumulation keeps the working set at one
                # (span, n_blocks) plane per operand instead of gathering
                # a (span, k, n_blocks) cube — ANDs commute, so the
                # verdicts are bit-identical either way.
                inside = np.ones((span, self._n_blocks), dtype=bool)
                maybe = np.ones((span, self._n_blocks), dtype=bool)
                for i in range(k):
                    slot_radii = radii[f, start:stop, i, None]  # (span, 1)
                    inside &= self._block_max[chunk_rows[:, i]] <= slot_radii
                    maybe &= self._block_min[chunk_rows[:, i]] <= slot_radii
                scratch.reshape(span, n_blat, side, n_blon, side)[:] = \
                    inside.reshape(span, n_blat, 1, n_blon, 1)
                # Edge blocks, refined exactly — vectorised over every
                # (server, block) pair at once.  Only *uncertain* disks
                # are gathered: a slot with ``block_max <= r`` passes
                # every cell of the block (so ANDing it cannot change a
                # bit), and no slot has ``r < block_min`` or the block
                # would not be "maybe" — the AND over uncertain slots is
                # therefore bit-identical to the AND over all k slots.
                pair_server, pair_block = np.nonzero(maybe & ~inside)
                for p0 in range(0, pair_server.size, self._EDGE_PAIR_CHUNK):
                    p1 = min(p0 + self._EDGE_PAIR_CHUNK, pair_server.size)
                    srv = pair_server[p0:p1]
                    blocks = pair_block[p0:p1]
                    cells = self._cells_of_blocks(blocks).reshape(
                        p1 - p0, -1)
                    unc = np.empty((srv.size, k), dtype=bool)
                    for i in range(k):
                        unc[:, i] = (self._block_max[chunk_rows[srv, i],
                                                     blocks]
                                     > radii[f, start + srv, i])
                    pair_idx, slot_idx = np.nonzero(unc)  # grouped by pair
                    values = self._fields[
                        chunk_rows[srv[pair_idx], slot_idx][:, None],
                        cells[pair_idx]]
                    ok = values <= radii[f, start + srv[pair_idx],
                                         slot_idx][:, None]
                    counts = unc.sum(axis=1)  # >= 1: the block is ~inside
                    starts = np.concatenate(
                        ([0], np.cumsum(counts[:-1])))
                    verdict = np.logical_and.reduceat(ok, starts, axis=0)
                    scratch[srv[:, None], cells] = verdict
                out[f, start:stop] = pack_bits(scratch) if packed else scratch
        return out

    def ring_votes_fleet(self, rows: np.ndarray, inner: np.ndarray,
                         outer: np.ndarray) -> np.ndarray:
        """Per-cell annulus vote counts for every server of a fleet.

        ``rows``/``inner``/``outer`` are padded ``(n_servers, k)``
        matrices; result row ``s`` equals :meth:`ring_votes` for server
        ``s``'s panel (integer addition is exact, so the slot-major
        accumulation order cannot change a count).  Padding slots use
        ``+inf`` rings, which cover no cell and add no vote.
        """
        rows = self._validate_fleet_rows(rows)
        inner = np.asarray(inner, dtype=np.float32)
        outer = np.asarray(outer, dtype=np.float32)
        if inner.shape != rows.shape or outer.shape != rows.shape:
            raise ValueError("ring radii and fleet rows disagree in shape")
        finite_inner = np.where(np.isfinite(inner), inner, 0.0)
        if (finite_inner < 0).any() or (outer < inner).any():
            raise ValueError("bad ring radii")
        n_servers, k = rows.shape
        votes = np.zeros((n_servers, self.grid.n_cells), dtype=np.int32)
        if n_servers == 0 or k == 0:
            return votes
        for start in range(0, n_servers, self.FLEET_CHUNK):
            stop = min(start + self.FLEET_CHUNK, n_servers)
            covered = np.empty((stop - start, self.grid.n_cells), dtype=bool)
            for i in range(k):
                fields = self._fields[rows[start:stop, i]]
                np.greater_equal(fields, inner[start:stop, i, None],
                                 out=covered)
                covered &= fields <= outer[start:stop, i, None]
                votes[start:stop] += covered
        return votes

    def ring_masks(self, lats: Sequence[float], lons: Sequence[float],
                   inner: Sequence[float], outer: Sequence[float],
                   columns: Optional[np.ndarray] = None) -> np.ndarray:
        """Boolean ``(k, n_cells)`` matrix of per-landmark annulus masks."""
        inner = np.asarray(inner, dtype=np.float32)
        outer = np.asarray(outer, dtype=np.float32)
        if (inner < 0).any() or (outer < inner).any():
            raise ValueError("bad ring radii")
        block = self.field_block(lats, lons)
        if columns is not None:
            block = block[:, columns]
        return (block >= inner[:, None]) & (block <= outer[:, None])

    def ring_intersection(self, lats: Sequence[float], lons: Sequence[float],
                          inner: Sequence[float], outer: Sequence[float],
                          packed: bool = False) -> np.ndarray:
        """Fused AND of every per-landmark annulus.

        Equivalent to ``ring_masks(...).all(axis=0)`` but AND-reduced ring
        by ring with two reused scratch rows, so the ``(k, n_cells)``
        boolean matrix is never materialised.  AND is associative, so the
        result is bit-identical to the matrix reduction.  ``packed=True``
        returns uint64 bitset words instead of a boolean row.
        """
        inner = np.asarray(inner, dtype=np.float32)
        outer = np.asarray(outer, dtype=np.float32)
        if (inner < 0).any() or (outer < inner).any():
            raise ValueError("bad ring radii")
        block = self.field_block(lats, lons)
        acc = (block[0] >= inner[0]) & (block[0] <= outer[0])
        lower = np.empty_like(acc)
        upper = np.empty_like(acc)
        for i in range(1, block.shape[0]):
            np.greater_equal(block[i], inner[i], out=lower)
            np.less_equal(block[i], outer[i], out=upper)
            lower &= upper
            acc &= lower
        return pack_bits(acc) if packed else acc

    def ring_votes(self, lats: Sequence[float], lons: Sequence[float],
                   inner: Sequence[float], outer: Sequence[float]
                   ) -> np.ndarray:
        """Per-cell count of covering annuli (Octant's unit-weight votes).

        Equivalent to ``ring_masks(...).sum(axis=0, dtype=int32)`` —
        integer addition is exact, so accumulating one ring at a time
        into a single int32 row changes nothing but the peak footprint
        (one boolean scratch row instead of the ``(k, n_cells)`` matrix).
        """
        inner = np.asarray(inner, dtype=np.float32)
        outer = np.asarray(outer, dtype=np.float32)
        if (inner < 0).any() or (outer < inner).any():
            raise ValueError("bad ring radii")
        block = self.field_block(lats, lons)
        votes = np.zeros(block.shape[1], dtype=np.int32)
        lower = np.empty(block.shape[1], dtype=bool)
        upper = np.empty(block.shape[1], dtype=bool)
        for i in range(block.shape[0]):
            np.greater_equal(block[i], inner[i], out=lower)
            np.less_equal(block[i], outer[i], out=upper)
            lower &= upper
            votes += lower
        return votes

    def gaussian_log_likelihood(self, lats: Sequence[float],
                                lons: Sequence[float],
                                mu: Sequence[float], sigma: Sequence[float],
                                columns: Optional[np.ndarray] = None
                                ) -> np.ndarray:
        """Summed Gaussian ring log-likelihood over the grid.

        Accumulates landmark by landmark in float64, preserving the exact
        addition order (and therefore the exact rounding) of the scalar
        implementation it replaces.
        """
        mu = np.asarray(mu, dtype=np.float64)
        sigma = np.asarray(sigma, dtype=np.float64)
        if (sigma <= 0).any():
            raise ValueError("sigma must be positive")
        block = self.field_block(lats, lons)
        if columns is not None:
            block = block[:, columns]
        log_likelihood = np.zeros(block.shape[1], dtype=np.float64)
        for i in range(block.shape[0]):
            distances = block[i].astype(np.float64)
            log_likelihood -= ((distances - mu[i]) ** 2) / (2.0 * sigma[i] ** 2)
        return log_likelihood
