"""Multilateration engines: combine per-landmark constraints into a region.

Four combination strategies, shared by the algorithm front-ends:

* **Disk intersection** (CBG): AND together per-landmark disks.
* **Ring votes** (Quasi-Octant, Hybrid): keep the cells covered by the
  most annuli — their AND whenever the annuli share a cell.
* **Largest consistent subset** (CBG++): the two-tier search that finds
  the biggest family of disks with a common point, so that a single
  underestimated disk cannot blank out the prediction.
* **Bayesian rings** (Spotter): multiply per-landmark Gaussian ring
  likelihoods and keep the smallest region holding a target probability
  mass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geo.grid import Grid
from ..geo.region import Region, pack_bits, unpack_bits


@dataclass(frozen=True)
class DiskConstraint:
    """One landmark's disk: target is within ``radius_km`` of (lat, lon)."""

    landmark_name: str
    lat: float
    lon: float
    radius_km: float


@dataclass(frozen=True)
class RingConstraint:
    """One landmark's annulus: inner_km <= distance <= outer_km."""

    landmark_name: str
    lat: float
    lon: float
    inner_km: float
    outer_km: float


@dataclass(frozen=True)
class GaussianRing:
    """One landmark's probabilistic ring: distance ~ N(mu_km, sigma_km)."""

    landmark_name: str
    lat: float
    lon: float
    mu_km: float
    sigma_km: float


def intersect_disk_fields(grid: Grid, lats: Sequence[float],
                          lons: Sequence[float],
                          radii: np.ndarray) -> Region:
    """AND of per-landmark disks given raw centre/radius arrays.

    Evaluated as a fleet of one through the bank's disk kernel
    (:meth:`~repro.geo.bank.DistanceBank.disk_intersections_fleet`):
    whole coarse blocks strictly inside (or outside) every disk are
    settled from precomputed block aggregates, and only cells near some
    disk boundary are compared exactly — bit-identical to rasterising
    each disk over the full grid, at a fraction of the memory traffic.
    The kernel emits uint64 words that the region adopts without ever
    materialising a boolean row.
    """
    if len(lats) == 0:
        raise ValueError("no disks to intersect")
    radii = np.asarray(radii, dtype=np.float32)
    bank = grid.bank
    words = bank.disk_intersections_fleet(
        bank.rows(lats, lons)[None], radii[None, None])[0, 0]
    return Region.from_words(grid, words)


def intersect_disks(grid: Grid, disks: Sequence[DiskConstraint]) -> Region:
    """Plain CBG multilateration: the AND of every disk."""
    if not disks:
        raise ValueError("no disks to intersect")
    return intersect_disk_fields(
        grid, [d.lat for d in disks], [d.lon for d in disks],
        np.array([d.radius_km for d in disks], dtype=np.float32))


def mode_region_from_votes(grid: Grid, votes: np.ndarray,
                           base_mask: Optional[np.ndarray] = None) -> Region:
    """Cells holding the maximum vote count.

    Octant's original multilateration is weight-based: each ring adds
    positive weight inside itself, and the prediction is the highest-
    weighted area.  With unit weights that is exactly "the cells covered
    by the most rings" — identical to pure intersection when all rings
    are mutually consistent, but degrading gracefully (instead of to the
    empty set) when noise makes one ring miss.

    ``votes`` is consumed destructively (cells outside ``base_mask`` are
    zeroed in place); callers pass a freshly accumulated row.
    """
    if base_mask is not None:
        votes[~base_mask] = 0
    top = int(votes.max())
    if top == 0:
        return Region.empty(grid)
    return Region(grid, votes == top)


def _as_mask_matrix(masks) -> np.ndarray:
    """Normalise a sequence of boolean masks (or a 2-D matrix) to (k, n)."""
    if len(masks) == 0:
        raise ValueError("no masks supplied")
    matrix = np.asarray(masks)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise ValueError(f"masks must be 1- or 2-dimensional, got {matrix.ndim}")
    if matrix.dtype != np.bool_:
        matrix = matrix.astype(bool)
    return matrix


def pack_mask_matrix(matrix: np.ndarray) -> np.ndarray:
    """Pack boolean masks into rows of uint64 words (bitsets).

    Padding bits beyond the mask length are zero, so word-level AND/any
    on packed rows agrees exactly with the boolean operations.  The
    canonical packing lives in :mod:`repro.geo.region` (it is the native
    :class:`Region` layout); this wrapper adds the mask-matrix
    normalisation the subset search wants.
    """
    return pack_bits(_as_mask_matrix(matrix))


def unpack_mask_words(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Invert :func:`pack_mask_matrix` for a single packed row."""
    return unpack_bits(words, n_bits)


def _dfs_improve(rows: np.ndarray, order: List[int], best_count: int, n: int,
                 budget: int) -> Optional[List[int]]:
    """Branch-and-bound for a consistent subset strictly larger than
    ``best_count``, over pre-restricted witness columns.

    ``rows`` are packed uint64 rows.  Returns the best improving subset
    found, or ``None`` when the incumbent is already maximum (or the
    node budget ran out before beating it).
    """
    best_indices: Optional[List[int]] = None
    remaining_budget = [budget]
    full = rows[0] | ~rows[0]

    def descend(position: int, current_mask, chosen: List[int]) -> None:
        nonlocal best_count, best_indices
        if remaining_budget[0] <= 0:
            return
        remaining_budget[0] -= 1
        remaining = n - position
        if len(chosen) + remaining <= best_count:
            return  # cannot beat the incumbent
        if position == n:
            if len(chosen) > best_count:
                best_count = len(chosen)
                best_indices = list(chosen)
            return
        index = order[position]
        candidate = current_mask & rows[index]
        if candidate.any():
            chosen.append(index)
            descend(position + 1, candidate, chosen)
            chosen.pop()
        descend(position + 1, current_mask, chosen)

    descend(0, full, [])
    return best_indices


#: DFS node budget for the subset search (see :func:`largest_consistent_subset`).
SUBSET_SEARCH_BUDGET = 200_000


def largest_consistent_subset(masks: Sequence[np.ndarray]
                              ) -> Tuple[List[int], np.ndarray]:
    """The largest subset of masks whose AND is non-empty.

    Returns the chosen indices and the resulting intersection mask.  This
    is the paper's "depth-first search on the powerset of the disks":
    branch-and-bound over include/exclude decisions, visiting disks in a
    fixed order and pruning any branch that (a) has already gone empty or
    (b) cannot beat the best subset found so far.  The common case — all
    masks consistent — is answered immediately.

    Three layers keep the worst case cheap:

    1. a greedy sweep (largest mask first) builds a strong incumbent;
    2. a *witness-cell certificate* often proves it maximum outright: any
       strictly larger family needs a cell covered by more masks than the
       incumbent's size, so if no such cell exists the search is over;
    3. otherwise the branch-and-bound runs with its masks restricted to
       just those witness cells — a tiny fraction of the grid — which
       preserves the maximum (every improving family keeps its witness)
       while shrinking each AND in the search by orders of magnitude.

    Every AND/any in the search runs on masks packed into uint64 words,
    ~8x less memory traffic than boolean arrays.
    """
    matrix = _as_mask_matrix(masks)
    n, n_bits = matrix.shape
    rows = pack_mask_matrix(matrix)
    sizes = np.bitwise_count(rows).sum(axis=1)

    everything = np.bitwise_and.reduce(rows, axis=0)
    if everything.any():
        return list(range(n)), unpack_mask_words(everything, n_bits)

    # Order by size descending: large (permissive) disks first keeps the
    # running intersection non-empty longest, and puts the conflicting
    # underestimates at the end where pruning bites.
    order = sorted(range(n), key=lambda i: -int(sizes[i]))

    greedy_indices: List[int] = []
    greedy_mask = ~np.zeros_like(everything)
    for index in order:
        candidate = greedy_mask & rows[index]
        if candidate.any():
            greedy_mask = candidate
            greedy_indices.append(index)
    best_count = len(greedy_indices)

    # Witness-cell certificate: every consistent family of size s shares a
    # cell covered by at least s masks, so improving on the greedy family
    # needs a cell with more than ``best_count`` votes.
    votes = np.zeros(n_bits, dtype=np.uint16)
    for row_bool in matrix:
        votes += row_bool
    witness_cols = np.flatnonzero(votes > best_count)
    if witness_cols.size == 0:
        return sorted(greedy_indices), unpack_mask_words(greedy_mask, n_bits)

    improved = _dfs_improve(pack_mask_matrix(matrix[:, witness_cols]),
                            order, best_count, n, SUBSET_SEARCH_BUDGET)
    if improved is None:
        return sorted(greedy_indices), unpack_mask_words(greedy_mask, n_bits)
    final = np.bitwise_and.reduce(rows[improved], axis=0)
    return sorted(improved), unpack_mask_words(final, n_bits)


#: Initial candidate count for the top-k credible-mass selection; grows
#: 4x until the mass cutoff falls inside the candidate prefix.
_TOPK_INITIAL = 1024


def _credible_mask_argsort(cell_mass: np.ndarray, total: float,
                           mass: float) -> np.ndarray:
    """Reference credible-set selection via a full stable sort.

    Cells are ranked by posterior mass descending; ties (notably the
    zero-mass tail) break toward the **lower cell index** (the stable
    sort keeps original order).  The returned mask holds the shortest
    such prefix whose cumulative mass reaches ``mass``.
    """
    order = np.argsort(-cell_mass, kind="stable")
    cumulative = np.cumsum(cell_mass[order]) / total
    cutoff = int(np.searchsorted(cumulative, mass)) + 1
    mask = np.zeros(len(cell_mass), dtype=bool)
    mask[order[:cutoff]] = True
    return mask


def _credible_mask_topk(cell_mass: np.ndarray, total: float,
                        mass: float) -> np.ndarray:
    """Partition-based credible-set selection (no full-grid sort).

    Bit-identical to :func:`_credible_mask_argsort`: ``np.partition``
    finds the k-th largest mass ``t``, the cells above ``t`` are stably
    ordered (mass descending, then cell index ascending — the same
    tie-break as the stable argsort), and the ``== t`` tie group follows
    in ascending index, exactly as the stable sort would emit it.  The
    cumulative prefix sums equal the reference's leading sums ulp for
    ulp (``np.cumsum`` accumulates sequentially), so the searchsorted
    cutoff lands on the same cell.  If the cutoff falls outside the
    candidate prefix, k grows 4x; past the grid size we fall back to the
    reference sort.
    """
    n = len(cell_mass)
    k = min(_TOPK_INITIAL, n)
    while k < n:
        threshold = np.partition(cell_mass, n - k)[n - k]
        above = np.flatnonzero(cell_mass > threshold)
        tied = np.flatnonzero(cell_mass == threshold)
        prefix = np.concatenate(
            [above[np.lexsort((above, -cell_mass[above]))], tied])
        cumulative = np.cumsum(cell_mass[prefix]) / total
        position = int(np.searchsorted(cumulative, mass))
        if position < len(prefix):
            mask = np.zeros(n, dtype=bool)
            mask[prefix[:position + 1]] = True
            return mask
        k *= 4
    return _credible_mask_argsort(cell_mass, total, mass)


def bayesian_region(grid: Grid, rings: Sequence[GaussianRing],
                    mass: float = 0.95,
                    prior_mask: Optional[np.ndarray] = None) -> Region:
    """Spotter's probabilistic multilateration.

    Accumulates per-landmark Gaussian ring log-likelihoods over the grid
    (Bayes' rule with a flat — or masked — prior), then returns the
    smallest set of cells containing ``mass`` of the posterior.  The
    credible set is selected with a partition-based top-k (only the cells
    that can reach the cutoff get sorted); ties break toward the lower
    cell index — see :func:`_credible_mask_argsort` for the reference.
    """
    if not rings:
        raise ValueError("no rings supplied")
    if not (0.0 < mass <= 1.0):
        raise ValueError(f"mass must be in (0, 1]: {mass!r}")
    log_posterior = grid.bank.gaussian_log_likelihood(
        [r.lat for r in rings], [r.lon for r in rings],
        [r.mu_km for r in rings], [r.sigma_km for r in rings])
    if prior_mask is not None:
        log_posterior[~prior_mask] = -np.inf
    finite = np.isfinite(log_posterior)
    if not finite.any():
        return Region.empty(grid)
    log_posterior -= log_posterior[finite].max()
    posterior = np.where(finite, np.exp(log_posterior), 0.0)
    # Posterior is per-cell density; weight by cell area for mass.
    cell_mass = posterior * grid.cell_areas_km2
    total = cell_mass.sum()
    if total <= 0:
        return Region.empty(grid)
    return Region(grid, _credible_mask_topk(cell_mass, float(total), mass))
