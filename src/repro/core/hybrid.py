"""The paper's Quasi-Octant/Spotter hybrid.

Separates Spotter's two ideas: its cubic-polynomial delay model is kept,
but its probabilistic combination is replaced by Quasi-Octant's hard ring
intersection, with ring radii at μ ± 5σ.  Comparing Hybrid against both
parents isolates which component (model vs. multilateration) drives
Spotter's behaviour.
"""

from __future__ import annotations

from typing import List, Sequence

from .multilateration import RingConstraint
from .observations import RttObservation
from .octant import QuasiOctant


class OctantSpotterHybrid(QuasiOctant):
    """Spotter's delay model inside Quasi-Octant's ring multilateration.

    Only :meth:`rings` differs from :class:`QuasiOctant`; the ring-vote
    prediction is inherited.
    """

    name = "hybrid"

    #: Ring half-width in standard deviations (the paper uses ±5σ).
    n_sigma = 5.0

    def rings(self, observations: Sequence[RttObservation]) -> List[RingConstraint]:
        """The per-landmark rings at μ ± 5σ (exposed for analysis)."""
        calibration = self.calibrations.spotter()
        constraints = []
        for obs in observations:
            mu, sigma = calibration.mu_sigma(obs.one_way_ms)
            constraints.append(RingConstraint(
                landmark_name=obs.landmark_name,
                lat=obs.lat,
                lon=obs.lon,
                inner_km=max(0.0, mu - self.n_sigma * sigma),
                outer_km=mu + self.n_sigma * sigma,
            ))
        return constraints
