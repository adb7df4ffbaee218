"""Calibration management: lazily fitted, cached delay models per landmark.

The measurement server in the paper "updates a delay-distance model for
each landmark based on the most recent two weeks of ping measurements".
:class:`CalibrationSet` plays that role: it owns the mapping from landmark
names to fitted models, building each model on first use from the Atlas
mesh database and caching it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..netsim.atlas import AtlasConstellation, Landmark
from .calibration import CbgCalibration, OctantCalibration, SpotterCalibration


class CalibrationSet:
    """Per-landmark CBG/Octant models plus the global Spotter model."""

    def __init__(self, atlas: AtlasConstellation):
        self.atlas = atlas
        self._landmarks: Dict[str, Landmark] = {
            lm.name: lm for lm in atlas.all_landmarks()}
        self._cbg: Dict[str, CbgCalibration] = {}
        self._cbg_slowline: Dict[str, CbgCalibration] = {}
        self._octant: Dict[str, OctantCalibration] = {}
        self._spotter: Optional[SpotterCalibration] = None

    def landmark(self, name: str) -> Landmark:
        try:
            return self._landmarks[name]
        except KeyError:
            raise KeyError(f"unknown landmark {name!r}") from None

    def has_landmark(self, name: str) -> bool:
        return name in self._landmarks

    def _calibration_points(self, name: str):
        return self.atlas.calibration_data(self.landmark(name))

    def cbg(self, name: str, apply_slowline: bool = False) -> CbgCalibration:
        """The landmark's bestline model (slowline-constrained for CBG++)."""
        cache = self._cbg_slowline if apply_slowline else self._cbg
        model = cache.get(name)
        if model is None:
            model = CbgCalibration(self._calibration_points(name),
                                   apply_slowline=apply_slowline)
            cache[name] = model
        return model

    def octant(self, name: str) -> OctantCalibration:
        """The landmark's Quasi-Octant hull model."""
        model = self._octant.get(name)
        if model is None:
            model = OctantCalibration(self._calibration_points(name))
            self._octant[name] = model
        return model

    def spotter(self) -> SpotterCalibration:
        """The global Spotter model, fitted over the full anchor mesh."""
        if self._spotter is None:
            anchors = self.atlas.anchors
            # One batched lookup of the full anchor mesh instead of O(L²)
            # scalar ones.
            pairs = [(a, b) for i, a in enumerate(anchors)
                     for b in anchors[i + 1:]]
            delays = self.atlas.ensure_mesh(pairs).tolist()
            points: List = [(a.host.distance_to(b.host), delay)
                            for (a, b), delay in zip(pairs, delays)]
            self._spotter = SpotterCalibration(points)
        return self._spotter

    def landmarks_named(self, names: Sequence[str]) -> List[Landmark]:
        return [self.landmark(name) for name in names]
