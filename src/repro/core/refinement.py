"""Iterative refinement of prediction regions (paper §8.1).

The two-phase procedure is fast but noisy: different random landmark
panels give visibly different regions for the same target (Figure 16/20).
The paper proposes "an iterative refinement process, in which additional
probes and anchors are included in the measurement as necessary to reduce
the size of the predicted region."

:class:`IterativeRefiner` implements that: starting from a two-phase
prediction, it repeatedly selects the unused landmarks closest to the
current region, measures them, re-multilaterates with the accumulated
observation set, and stops when the region stops shrinking meaningfully
or the measurement budget runs out.  Landmarks near the current region
are chosen because Figure 11 shows effectiveness concentrates there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..geo.region import Region
from ..netsim.atlas import AtlasConstellation, Landmark
from .base import GeolocationAlgorithm, Prediction
from .observations import RttObservation
from .twophase import MeasureFn


@dataclass
class RefinementRound:
    """One refinement iteration's bookkeeping."""

    round_number: int
    landmarks_added: List[str]
    area_before_km2: float
    area_after_km2: float

    @property
    def shrinkage(self) -> float:
        """Fractional area reduction achieved this round."""
        if self.area_before_km2 <= 0:
            return 0.0
        return 1.0 - self.area_after_km2 / self.area_before_km2


@dataclass
class RefinementResult:
    """Final prediction plus the per-round trail."""

    prediction: Prediction
    rounds: List[RefinementRound] = field(default_factory=list)
    total_measurements: int = 0


class IterativeRefiner:
    """Shrinks a prediction by measuring landmarks near it.

    Parameters
    ----------
    batch_size:
        Landmarks measured per round.
    max_rounds:
        Hard cap on iterations.
    min_shrinkage:
        Stop once a round reduces the area by less than this fraction —
        further measurements are unlikely to help (Figure 11: most are
        ineffective).
    """

    def __init__(self, atlas: AtlasConstellation,
                 algorithm: GeolocationAlgorithm,
                 batch_size: int = 8, max_rounds: int = 4,
                 min_shrinkage: float = 0.05):
        if batch_size < 1:
            raise ValueError(f"batch size must be positive: {batch_size!r}")
        if max_rounds < 1:
            raise ValueError(f"need at least one round: {max_rounds!r}")
        if not (0.0 <= min_shrinkage < 1.0):
            raise ValueError(f"min_shrinkage must be in [0, 1): {min_shrinkage!r}")
        self.atlas = atlas
        self.algorithm = algorithm
        self.batch_size = batch_size
        self.max_rounds = max_rounds
        self.min_shrinkage = min_shrinkage

    def _nearest_unused(self, region: Region, used: set,
                        count: int) -> List[Landmark]:
        """Unused landmarks closest to the current region's centroid.

        The centroid stands in for the (unknown) target; Figure 11 says
        nearby landmarks are the ones likely to constrain the region.
        """
        centroid = region.centroid()
        if centroid is None:
            return []
        candidates = [lm for lm in self.atlas.all_landmarks()
                      if lm.name not in used]
        candidates.sort(key=lambda lm: _distance(centroid, lm))
        return candidates[:count]

    def refine(self, initial: Prediction,
               observations: Sequence[RttObservation],
               measure: MeasureFn) -> RefinementResult:
        """Iteratively add landmarks until the region stops shrinking."""
        accumulated = list(observations)
        used = {obs.landmark_name for obs in accumulated}
        current = initial
        rounds: List[RefinementRound] = []
        total_measurements = 0
        for round_number in range(1, self.max_rounds + 1):
            if current.region.is_empty:
                break
            batch = self._nearest_unused(current.region, used, self.batch_size)
            if not batch:
                break
            new_observations = measure(batch)
            total_measurements += len(new_observations)
            accumulated.extend(new_observations)
            used.update(obs.landmark_name for obs in new_observations)
            area_before = current.area_km2()
            candidate = self.algorithm.predict(accumulated)
            # The subset multilateration is not monotone in the observation
            # set: extra conflicting disks can change which consistent
            # family wins.  Only adopt improvements; a non-improving round
            # means the region has converged.
            improved = (not candidate.region.is_empty
                        and candidate.area_km2() < area_before)
            rounds.append(RefinementRound(
                round_number=round_number,
                landmarks_added=[lm.name for lm in batch],
                area_before_km2=area_before,
                area_after_km2=(candidate.area_km2() if improved
                                else area_before),
            ))
            if improved:
                current = candidate
            if rounds[-1].shrinkage < self.min_shrinkage:
                break
        return RefinementResult(
            prediction=current,
            rounds=rounds,
            total_measurements=total_measurements,
        )


def _distance(centroid, landmark: Landmark) -> float:
    from ..geodesy.greatcircle import haversine_km
    return haversine_km(centroid[0], centroid[1], landmark.lat, landmark.lon)
