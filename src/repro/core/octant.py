"""Quasi-Octant (Wong et al. 2007, minus the traceroute features).

Octant draws a *ring* per landmark — both a maximum and a minimum
distance, from piecewise-linear convex-hull delay models — and intersects
the rings.  The original's route-trace "height" correction cannot be
computed through proxies that drop time-exceeded packets, so, like the
paper, we omit it and call the result Quasi-Octant.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from .base import GeolocationAlgorithm, Prediction
from .fleetpanel import build_fleet_panel
from .multilateration import RingConstraint, mode_region_from_votes
from .observations import RttObservation


class QuasiOctant(GeolocationAlgorithm):
    """Ring multilateration with convex-hull delay models.

    Rings combine with Octant's weight-based scheme (each ring votes for
    the cells it covers; the prediction is the top-voted area), which
    reduces to pure intersection when the rings are consistent.
    """

    name = "quasi-octant"

    def rings(self, observations: Sequence[RttObservation]) -> List[RingConstraint]:
        """The per-landmark ring constraints (exposed for analysis).

        Radii come from the calibrations' batched curve lookups — one
        ``searchsorted`` pass per landmark model instead of a Python
        scan per observation, bit-identical to the scalar methods.
        """
        observations = list(observations)
        outer = np.empty(len(observations))
        inner = np.empty(len(observations))
        by_landmark: Dict[str, List[int]] = {}
        for at, obs in enumerate(observations):
            by_landmark.setdefault(obs.landmark_name, []).append(at)
        for name, positions in by_landmark.items():
            calibration = self.calibrations.octant(name)
            delays = np.array([observations[at].one_way_ms
                               for at in positions])
            outer[positions] = calibration.max_distance_km_vec(delays)
            inner[positions] = calibration.min_distance_km_vec(delays)
        return [RingConstraint(
            landmark_name=obs.landmark_name,
            lat=obs.lat,
            lon=obs.lon,
            inner_km=min(float(inner[at]), float(outer[at])),
            outer_km=float(outer[at]),
        ) for at, obs in enumerate(observations)]

    def predict(self, observations: Sequence[RttObservation]) -> Prediction:
        return self.predict_fleet([observations])[0]

    def predict_fleet(self, fleets: Sequence[Sequence[RttObservation]]
                      ) -> List[Prediction]:
        """Ring votes for every server of a fleet in one bank sweep.

        The bank accumulates each server's votes ring by ring (integer
        addition is exact, so this equals summing its full mask matrix)
        without materialising the ``(k, n_cells)`` boolean matrix;
        padded slots carry ``+inf`` rings that cover no cell.
        """
        prepared = [self._prepare(panel) for panel in fleets]
        if not prepared:
            return []
        panel = build_fleet_panel(self.grid.bank, prepared)
        fleet_rings = [self.rings(observations) for observations in prepared]
        inner = panel.pad_radii([
            np.array([ring.inner_km for ring in rings], dtype=np.float32)
            for rings in fleet_rings])
        outer = panel.pad_radii([
            np.array([ring.outer_km for ring in rings], dtype=np.float32)
            for rings in fleet_rings])
        votes = self.grid.bank.ring_votes_fleet(panel.rows, inner, outer)
        return [Prediction(
            algorithm=self.name,
            region=self._clip(mode_region_from_votes(
                self.grid, votes[s],
                base_mask=self.worldmap.plausibility_mask)),
            used_landmarks=[obs.landmark_name for obs in observations],
        ) for s, observations in enumerate(prepared)]
