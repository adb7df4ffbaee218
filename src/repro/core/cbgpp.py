"""CBG++ — the paper's contribution (section 5.1).

CBG with two modifications that eliminate coverage failures:

1. **Slowline.** Bestlines are constrained between the 200 km/ms physical
   baseline and an 84.5 km/ms "slowline": a one-way time of 237 ms could
   have traversed a geostationary satellite, which can bridge any two
   points on a hemisphere, so delays map to at least
   20 037.508 km / 237 ms = 84.5 km/ms worth of possible distance.

2. **Two-tier largest-consistent-subset multilateration.**  For each
   landmark both the bestline disk and the (larger) baseline disk are
   drawn.  The largest subset of *baseline* disks with a common point
   forms the "baseline region"; bestline disks that miss that region are
   discarded as underestimates; the largest consistent subset of the
   remaining bestline disks forms the final "bestline region".

The result, on the paper's crowdsourced test hosts, covered the true
location in every case — at the price of somewhat larger regions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..geo.region import Region
from .base import Prediction
from .cbg import CBG
from .fleetpanel import build_fleet_panel
from .multilateration import largest_consistent_subset
from .observations import RttObservation


class CBGPlusPlus(CBG):
    """CBG++: slowline-bounded bestlines + two-tier subset multilateration."""

    name = "cbg++"
    apply_slowline = True

    def predict(self, observations: Sequence[RttObservation]) -> Prediction:
        observations = self._prepare(observations)
        grid = self.grid
        names = [obs.landmark_name for obs in observations]
        lats = [obs.lat for obs in observations]
        lons = [obs.lon for obs in observations]
        delays = np.array([obs.one_way_ms for obs in observations])

        # Both disk families share centres — only radii differ — so one
        # call of the bank's disk kernel, on a fleet of one, yields the
        # AND of all baseline disks *and* the AND of all disks at once,
        # emitted straight as packed words.
        best_radii = self.disk_radii_km(names, delays).astype(np.float32)
        base_radii = self.baseline_radii_km(delays).astype(np.float32)
        joint_radii = np.minimum(base_radii, best_radii)
        families = grid.bank.disk_intersections_fleet(
            grid.bank.rows(lats, lons)[None],
            np.stack([base_radii, joint_radii])[:, None])[:, 0]
        base_and = Region.from_words(grid, families[0])
        joint_and: Optional[Region] = Region.from_words(grid, families[1])

        # Tier 1: the baseline region — largest consistent family of
        # physically-maximal disks.  The plain AND answers the common
        # consistent case; only conflicting baselines pay for the full
        # subset search.
        if not base_and.is_empty:
            baseline_region = base_and
        else:
            fields = grid.bank.field_block(lats, lons)
            baseline_masks = fields <= base_radii[:, None]
            _, baseline_region_mask = largest_consistent_subset(baseline_masks)
            baseline_region = Region(grid, baseline_region_mask)
            joint_and = None   # was relative to the unreduced baseline AND

        # Tier 2: drop bestline disks that do not overlap the baseline
        # region (they must be underestimates), then take the largest
        # consistent family of the survivors.  When the joint AND is
        # non-empty every bestline disk overlaps and all are mutually
        # consistent — no search needed.
        if joint_and is not None and not joint_and.is_empty:
            final_region = joint_and
            chosen = list(names)
            discarded: List[str] = []
        else:
            baseline_cells = baseline_region.cell_indices()
            fields = grid.bank.field_block(lats, lons)
            sub_bestline = fields[:, baseline_cells] <= best_radii[:, None]
            overlap = sub_bestline.any(axis=1)
            surviving_indices = [i for i in range(len(names)) if overlap[i]]
            discarded = [names[i]
                         for i in range(len(names)) if not overlap[i]]
            final_mask = np.zeros(grid.n_cells, dtype=bool)
            if surviving_indices:
                chosen_positions, final_sub_mask = largest_consistent_subset(
                    sub_bestline[surviving_indices])
                final_mask[baseline_cells[final_sub_mask]] = True
                chosen = [names[surviving_indices[p]]
                          for p in chosen_positions]
                dropped_in_search = [
                    names[surviving_indices[p]]
                    for p in range(len(surviving_indices))
                    if p not in chosen_positions]
                discarded.extend(dropped_in_search)
            else:
                # Every bestline disk was an underestimate; fall back to
                # the baseline region itself.
                final_mask[baseline_cells] = True
                chosen = []
            final_region = Region(grid, final_mask)

        region = self._clip(final_region)
        if region.is_empty and not baseline_region.is_empty:
            # Clipping can empty a tiny coastal region; fall back to the
            # clipped baseline region so the algorithm never predicts
            # "nowhere" while a consistent baseline family exists.
            region = self._clip(baseline_region)
        return Prediction(
            algorithm=self.name,
            region=region,
            used_landmarks=chosen,
            discarded_landmarks=discarded,
        )

    def predict_fleet(self, fleets: Sequence[Sequence[RttObservation]]
                      ) -> List[Prediction]:
        """One bank sweep for every server of a fleet at once.

        The disk kernel evaluates the joint family for all servers in a
        handful of NumPy passes over the block aggregates (see DESIGN.md
        §5d).  Servers whose joint AND is non-empty — the overwhelming
        majority — are finished right there, exactly like
        :meth:`predict`'s fast path; the rest carry genuinely
        conflicting disks and drop to :meth:`predict`, whose
        largest-consistent-subset search is inherently per-server.
        Bit-identical to ``[self.predict(p) for p in fleets]``: both run
        the same kernel on the same float32 radii, and ``+inf`` padding
        slots constrain nothing.
        """
        prepared = [self._prepare(panel) for panel in fleets]
        if not prepared:
            return []
        panel = build_fleet_panel(self.grid.bank, prepared)
        best_rows: List[np.ndarray] = []
        base_rows: List[np.ndarray] = []
        for observations in prepared:
            names = [obs.landmark_name for obs in observations]
            delays = np.array([obs.one_way_ms for obs in observations])
            best_rows.append(self.disk_radii_km(names, delays)
                             .astype(np.float32))
            base_rows.append(self.baseline_radii_km(delays)
                             .astype(np.float32))
        best_radii = panel.pad_radii(best_rows)
        base_radii = panel.pad_radii(base_rows)
        joint_radii = np.minimum(base_radii, best_radii)
        grid = self.grid
        # Only the joint family needs the fleet sweep: every joint disk
        # sits inside its baseline disk, so a non-empty joint AND proves
        # the baseline AND non-empty too — exactly predict()'s fast-path
        # precondition.  Servers that miss the fast path (conflicting
        # disks, or the rare coastal region that clipping empties) re-run
        # the scalar pipeline, which *is* the definition of the result.
        family = grid.bank.disk_intersections_fleet(
            panel.rows, joint_radii[None])[0]
        # The terrain clip is one fleet-wide AND against the plausibility
        # bitset — the same words ``_clip`` ANDs per region — so the
        # per-server loop below only wraps the rows that survived.
        clipped = family & self.worldmap.plausibility_words[None, :]
        joint_nonempty = family.any(axis=1)
        clip_nonempty = clipped.any(axis=1)
        results: List[Prediction] = []
        for s, observations in enumerate(prepared):
            if not (joint_nonempty[s] and clip_nonempty[s]):
                results.append(self.predict(observations))
                continue
            results.append(Prediction(
                algorithm=self.name,
                region=Region.from_words(grid, clipped[s]),
                used_landmarks=[obs.landmark_name for obs in observations],
                discarded_landmarks=[],
            ))
        return results
