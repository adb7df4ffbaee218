"""Per-landmark and global delay–distance calibration models.

Three model families, one per algorithm lineage (paper Figure 2):

* :class:`CbgCalibration` — CBG's *bestline*: the line below every
  calibration point, above the 200 km/ms physical baseline, minimising
  the total vertical distance to the points.  CBG++ adds the *slowline*
  (84.5 km/ms) as a lower speed bound.
* :class:`OctantCalibration` — Quasi-Octant's piecewise-linear convex-hull
  boundaries giving both a maximum and a minimum distance per delay, with
  fixed empirical speeds beyond the 50 % / 75 % delay cutoffs.
* :class:`SpotterCalibration` — Spotter's single global cubic fits of the
  mean and standard deviation of distance as a function of delay,
  constrained to be non-decreasing (unconstrained cubics overfit — the
  paper hit exactly this in pilot tests).

Calibration data is a sequence of ``(distance_km, one_way_ms)`` pairs,
typically a landmark's mesh pings to every other anchor over two weeks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..geodesy.constants import (
    BASELINE_SPEED_KM_PER_MS,
    MAX_SURFACE_DISTANCE_KM,
    SLOWLINE_SPEED_KM_PER_MS,
)
from ..stats.hull import lower_hull, upper_hull

CalibrationPoint = Tuple[float, float]  # (distance_km, one_way_ms)


def _validated(points: Sequence[CalibrationPoint]) -> Tuple[np.ndarray, np.ndarray]:
    if len(points) < 2:
        raise ValueError("calibration needs at least two landmark pairs")
    distances = np.asarray([p[0] for p in points], dtype=float)
    delays = np.asarray([p[1] for p in points], dtype=float)
    if (distances < 0).any():
        raise ValueError("negative distance in calibration data")
    if (delays < 0).any():
        raise ValueError("negative delay in calibration data")
    return distances, delays


@dataclass(frozen=True)
class Line:
    """A delay-vs-distance line: ``delay = slope * distance + intercept``."""

    slope: float       # ms per km  (inverse speed)
    intercept: float   # ms

    @property
    def speed_km_per_ms(self) -> float:
        return float("inf") if self.slope == 0 else 1.0 / self.slope

    def delay_at(self, distance_km: float) -> float:
        return self.slope * distance_km + self.intercept

    def distance_at(self, delay_ms: float) -> float:
        """Invert the line; never negative."""
        if self.slope == 0:
            return MAX_SURFACE_DISTANCE_KM
        return max(0.0, (delay_ms - self.intercept) / self.slope)


#: The physical baseline: 200 km/ms, zero intercept.
BASELINE = Line(slope=1.0 / BASELINE_SPEED_KM_PER_MS, intercept=0.0)

#: The CBG++ slowline: 84.5 km/ms, zero intercept.
SLOWLINE = Line(slope=1.0 / SLOWLINE_SPEED_KM_PER_MS, intercept=0.0)


class CbgCalibration:
    """CBG's per-landmark bestline (optionally slowline-constrained).

    The bestline is found among the edges of the lower convex hull of the
    (distance, delay) scatter — the optimal "closest line below all
    points" always touches at least two points, hence lies on the hull.
    Candidate lines are filtered by the speed constraints and the one with
    the smallest total vertical distance to the data wins.  When no hull
    edge is feasible (all data faster than the baseline or slower than the
    slowline — possible with degenerate calibration sets) the speed bound
    itself is used, shifted down to touch the lowest point.
    """

    def __init__(self, points: Sequence[CalibrationPoint],
                 apply_slowline: bool = False):
        distances, delays = _validated(points)
        self.n_points = len(distances)
        self.apply_slowline = apply_slowline
        self.bestline = self._fit_bestline(distances, delays)

    @classmethod
    def adopted(cls, bestline: Line, n_points: int,
                apply_slowline: bool) -> "CbgCalibration":
        """A calibration whose bestline was fitted before (a persisted fit)."""
        model = cls.__new__(cls)
        model.n_points = n_points
        model.apply_slowline = apply_slowline
        model.bestline = bestline
        return model

    def _slope_bounds(self) -> Tuple[float, float]:
        min_slope = BASELINE.slope                      # can't beat 200 km/ms
        max_slope = SLOWLINE.slope if self.apply_slowline else float("inf")
        return min_slope, max_slope

    def _fit_bestline(self, distances: np.ndarray, delays: np.ndarray) -> Line:
        min_slope, max_slope = self._slope_bounds()
        hull = lower_hull(list(zip(distances, delays)))
        candidates: List[Line] = []
        for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
            if x1 == x0:
                continue
            slope = (y1 - y0) / (x1 - x0)
            if not (min_slope <= slope <= max_slope):
                continue
            intercept = y0 - slope * x0
            if intercept < 0:
                # A negative intercept implies super-physical speed at short
                # range; project the intercept to zero, keeping feasibility.
                intercept = 0.0
                if (delays < slope * distances).any():
                    continue
            candidates.append(Line(slope, intercept))
        if not candidates:
            # Clamp to the nearest feasible speed bound, below all points.
            for slope in (min_slope, max_slope if np.isfinite(max_slope) else min_slope):
                intercept = float(np.min(delays - slope * distances))
                candidates.append(Line(slope, max(0.0, intercept)))
        def total_distance(line: Line) -> float:
            return float(np.sum(delays - line.delay_at(distances)))
        feasible = [line for line in candidates
                    if (delays + 1e-9 >= line.delay_at(distances)).all()]
        pool = feasible if feasible else candidates
        return min(pool, key=total_distance)

    @property
    def speed_km_per_ms(self) -> float:
        return self.bestline.speed_km_per_ms

    def max_distance_km(self, one_way_ms: float) -> float:
        """Bestline distance bound for a one-way delay (the CBG disk radius)."""
        if one_way_ms < 0:
            raise ValueError(f"negative delay: {one_way_ms!r}")
        return min(self.bestline.distance_at(one_way_ms), MAX_SURFACE_DISTANCE_KM)

    def baseline_distance_km(self, one_way_ms: float) -> float:
        """Physical-baseline bound: 200 km/ms, no intercept."""
        if one_way_ms < 0:
            raise ValueError(f"negative delay: {one_way_ms!r}")
        return min(one_way_ms * BASELINE_SPEED_KM_PER_MS, MAX_SURFACE_DISTANCE_KM)


class OctantCalibration:
    """Quasi-Octant's piecewise-linear max/min distance curves.

    The *max-distance* curve inverts the lower ("fast") convex-hull
    boundary of the scatter, built from points with delay up to the 50th
    percentile; the *min-distance* curve inverts the upper ("slow")
    boundary, built up to the 75th percentile.  Past the cutoffs, fixed
    empirical speeds extend the curves (the dashed lines in Figure 2).
    """

    #: Fixed empirical speeds past the hull cutoffs, km/ms.
    FAST_EXTENSION_SPEED = 150.0
    SLOW_EXTENSION_SPEED = 10.0

    def __init__(self, points: Sequence[CalibrationPoint],
                 fast_cutoff_quantile: float = 0.50,
                 slow_cutoff_quantile: float = 0.75):
        distances, delays = _validated(points)
        if not (0.0 < fast_cutoff_quantile <= slow_cutoff_quantile <= 1.0):
            raise ValueError("cutoff quantiles must satisfy 0 < fast <= slow <= 1")
        self.fast_cutoff_ms = float(np.quantile(delays, fast_cutoff_quantile))
        self.slow_cutoff_ms = float(np.quantile(delays, slow_cutoff_quantile))
        fast_points = [(d, t) for d, t in zip(distances, delays)
                       if t <= self.fast_cutoff_ms]
        slow_points = [(d, t) for d, t in zip(distances, delays)
                       if t <= self.slow_cutoff_ms]
        if len(fast_points) < 2 or len(slow_points) < 2:
            raise ValueError("not enough calibration points below the cutoffs")
        # Invert hulls into delay -> distance lookup tables.
        self._max_curve = self._monotone_inverse(lower_hull(fast_points))
        self._min_curve = self._monotone_inverse(upper_hull(slow_points))
        # Vertex arrays for the vectorised (searchsorted) lookups.
        self._max_ts = np.array([t for t, _ in self._max_curve])
        self._max_ds = np.array([d for _, d in self._max_curve])
        self._min_ts = np.array([t for t, _ in self._min_curve])
        self._min_ds = np.array([d for _, d in self._min_curve])

    @staticmethod
    def _monotone_inverse(hull: List[CalibrationPoint]) -> List[Tuple[float, float]]:
        """Hull vertices as (delay, distance), made non-decreasing in both."""
        pairs = sorted((t, d) for d, t in hull)
        result: List[Tuple[float, float]] = []
        running_max = 0.0
        for delay, distance in pairs:
            running_max = max(running_max, distance)
            result.append((delay, running_max))
        return result

    @staticmethod
    def _interpolate(curve: List[Tuple[float, float]], delay: float) -> Optional[float]:
        """Piecewise-linear lookup inside the curve's delay span, else None."""
        if delay < curve[0][0] or delay > curve[-1][0]:
            return None
        for (t0, d0), (t1, d1) in zip(curve, curve[1:]):
            if t0 <= delay <= t1:
                if t1 == t0:
                    return max(d0, d1)
                fraction = (delay - t0) / (t1 - t0)
                return d0 + fraction * (d1 - d0)
        return curve[-1][1]

    def max_distance_km(self, one_way_ms: float) -> float:
        """Upper distance bound (outer ring radius) for a one-way delay."""
        if one_way_ms < 0:
            raise ValueError(f"negative delay: {one_way_ms!r}")
        inside = self._interpolate(self._max_curve, one_way_ms)
        if inside is not None:
            return min(inside, MAX_SURFACE_DISTANCE_KM)
        if one_way_ms < self._max_curve[0][0]:
            # Below calibrated range: scale the first vertex proportionally.
            t0, d0 = self._max_curve[0]
            return d0 * (one_way_ms / t0) if t0 > 0 else d0
        # Beyond the cutoff: extend at the fixed empirical fast speed.
        t_end, d_end = self._max_curve[-1]
        extension = (one_way_ms - t_end) * self.FAST_EXTENSION_SPEED
        return min(d_end + extension, MAX_SURFACE_DISTANCE_KM)

    def min_distance_km(self, one_way_ms: float) -> float:
        """Lower distance bound (inner ring radius) for a one-way delay."""
        if one_way_ms < 0:
            raise ValueError(f"negative delay: {one_way_ms!r}")
        inside = self._interpolate(self._min_curve, one_way_ms)
        if inside is not None:
            value = inside
        elif one_way_ms < self._min_curve[0][0]:
            value = 0.0
        else:
            t_end, d_end = self._min_curve[-1]
            value = d_end + (one_way_ms - t_end) * self.SLOW_EXTENSION_SPEED
        # The minimum bound can never exceed the maximum bound.
        return min(value, self.max_distance_km(one_way_ms))

    @staticmethod
    def _interpolate_vec(ts: np.ndarray, ds: np.ndarray,
                         delays: np.ndarray) -> np.ndarray:
        """Batched in-span curve lookup; positions out of span are garbage.

        ``searchsorted(ts[1:], delay, side='left')`` lands on the first
        segment whose end delay reaches the query — exactly the segment
        the scalar scan in :meth:`_interpolate` stops at — and the
        arithmetic mirrors the scalar expression operation for
        operation, so in-span results are bit-identical.
        """
        j = np.searchsorted(ts[1:], delays, side="left")
        j = np.minimum(j, len(ts) - 2)      # out-of-span queries: harmless
        t0, t1 = ts[j], ts[j + 1]
        d0, d1 = ds[j], ds[j + 1]
        span = t1 - t0
        tie = span == 0.0
        fraction = (delays - t0) / np.where(tie, 1.0, span)
        value = d0 + fraction * (d1 - d0)
        return np.where(tie, np.maximum(d0, d1), value)

    def max_distance_km_vec(self, one_way_ms: np.ndarray) -> np.ndarray:
        """Batched :meth:`max_distance_km`; bit-identical element-wise."""
        delays = np.asarray(one_way_ms, dtype=float)
        if (delays < 0).any():
            raise ValueError("negative delay in batch")
        ts, ds = self._max_ts, self._max_ds
        inside = np.minimum(self._interpolate_vec(ts, ds, delays),
                            MAX_SURFACE_DISTANCE_KM)
        below = (ds[0] * (delays / ts[0])) if ts[0] > 0 else np.full_like(
            delays, ds[0])
        above = np.minimum(
            ds[-1] + (delays - ts[-1]) * self.FAST_EXTENSION_SPEED,
            MAX_SURFACE_DISTANCE_KM)
        return np.where(delays < ts[0], below,
                        np.where(delays > ts[-1], above, inside))

    def min_distance_km_vec(self, one_way_ms: np.ndarray) -> np.ndarray:
        """Batched :meth:`min_distance_km`; bit-identical element-wise."""
        delays = np.asarray(one_way_ms, dtype=float)
        if (delays < 0).any():
            raise ValueError("negative delay in batch")
        ts, ds = self._min_ts, self._min_ds
        inside = self._interpolate_vec(ts, ds, delays)
        above = ds[-1] + (delays - ts[-1]) * self.SLOW_EXTENSION_SPEED
        value = np.where(delays < ts[0], 0.0,
                         np.where(delays > ts[-1], above, inside))
        return np.minimum(value, self.max_distance_km_vec(one_way_ms))


class SpotterCalibration:
    """Spotter's global Gaussian delay model.

    Distance given delay is modelled as N(μ(t), σ(t)) with μ and σ cubic
    polynomials in t, fitted by least squares to per-bin means and
    standard deviations and then projected to be non-decreasing (the
    paper: "constrain each curve to be increasing everywhere; anything
    more flexible led to severe overfitting").
    """

    N_BINS = 40

    def __init__(self, points: Sequence[CalibrationPoint]):
        distances, delays = _validated(points)
        order = np.argsort(delays)
        delays = delays[order]
        distances = distances[order]
        edges = np.quantile(delays, np.linspace(0.0, 1.0, self.N_BINS + 1))
        bin_centers: List[float] = []
        bin_means: List[float] = []
        bin_stds: List[float] = []
        for left, right in zip(edges, edges[1:]):
            mask = (delays >= left) & (delays <= right)
            if mask.sum() < 3:
                continue
            bin_centers.append(float(delays[mask].mean()))
            bin_means.append(float(distances[mask].mean()))
            bin_stds.append(float(distances[mask].std(ddof=1)))
        if len(bin_centers) < 4:
            raise ValueError("not enough populated delay bins for a cubic fit")
        self._delay_grid = np.linspace(0.0, float(delays.max()) * 1.5, 512)
        self._mu_curve = self._monotone_cubic(bin_centers, bin_means)
        self._sigma_curve = self._monotone_cubic(bin_centers, bin_stds)
        self.max_calibrated_delay_ms = float(delays.max())

    def _monotone_cubic(self, x: List[float], y: List[float]) -> np.ndarray:
        """Cubic least-squares fit, evaluated on the grid, made monotone."""
        coefficients = np.polyfit(np.asarray(x), np.asarray(y), deg=3)
        values = np.polyval(coefficients, self._delay_grid)
        values = np.maximum.accumulate(values)     # non-decreasing projection
        return np.maximum(values, 0.0)             # distances are non-negative

    def mu_sigma(self, one_way_ms: float) -> Tuple[float, float]:
        """(μ, σ) of the distance distribution for a one-way delay, km."""
        if one_way_ms < 0:
            raise ValueError(f"negative delay: {one_way_ms!r}")
        t = min(one_way_ms, float(self._delay_grid[-1]))
        mu = float(np.interp(t, self._delay_grid, self._mu_curve))
        sigma = float(np.interp(t, self._delay_grid, self._sigma_curve))
        # A floor keeps the Gaussian ring from degenerating to zero width.
        return min(mu, MAX_SURFACE_DISTANCE_KM), max(sigma, 50.0)
