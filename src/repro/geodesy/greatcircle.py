"""Great-circle geometry on a spherical Earth.

Scalar helpers operate on single coordinate pairs; the ``*_vec`` variants
accept NumPy arrays and broadcast, which is what the grid-based region
machinery uses (computing the distance from one landmark to every cell of
the analysis grid in one call).

Latitudes and longitudes are degrees; distances are kilometres; bearings
are degrees clockwise from true north.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .constants import DEG_TO_RAD, EARTH_RADIUS_KM, RAD_TO_DEG


def validate_latlon(lat: float, lon: float) -> None:
    """Raise ``ValueError`` unless ``(lat, lon)`` is a plausible coordinate."""
    if not (-90.0 <= lat <= 90.0):
        raise ValueError(f"latitude out of range [-90, 90]: {lat!r}")
    if not (-180.0 <= lon <= 360.0):
        raise ValueError(f"longitude out of range [-180, 360]: {lon!r}")


def normalize_lon(lon: float) -> float:
    """Map a longitude into the half-open interval [-180, 180)."""
    lon = math.fmod(lon + 180.0, 360.0)
    if lon < 0:
        lon += 360.0
    return lon - 180.0


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points, km (haversine formula).

    The haversine form is numerically stable for small separations, which
    matters when comparing proxies that share a data centre.
    """
    phi1 = lat1 * DEG_TO_RAD
    phi2 = lat2 * DEG_TO_RAD
    dphi = (lat2 - lat1) * DEG_TO_RAD
    dlam = (lon2 - lon1) * DEG_TO_RAD
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    a = min(1.0, max(0.0, a))
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def haversine_km_select(lat1: float, lon1: float,
                        lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Distances from one point to many, for *selection* (argmin/argsort).

    Replicates :func:`haversine_km`'s operation order element-wise, so the
    ordering of candidates matches the scalar loop everywhere except exact
    float ties (NumPy's SIMD ``sin``/``cos`` can differ from ``math.sin``/
    ``math.cos`` in the last ulp).  Distinct coordinates essentially never
    tie at that precision, but callers that need the *value* — not just
    which candidate wins — must recompute it with :func:`haversine_km`.
    """
    phi1 = lat1 * DEG_TO_RAD
    phi2 = lats * DEG_TO_RAD
    dphi = (lats - lat1) * DEG_TO_RAD
    dlam = (lons - lon1) * DEG_TO_RAD
    a = (np.sin(dphi / 2.0) ** 2
         + math.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2)
    a = np.minimum(1.0, np.maximum(0.0, a))
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def haversine_km_vec(lat1: "np.ndarray | float", lon1: "np.ndarray | float",
                     lat2: "np.ndarray | float", lon2: "np.ndarray | float") -> np.ndarray:
    """Vectorised haversine distance; broadcasts like NumPy arithmetic."""
    phi1 = np.radians(np.asarray(lat1, dtype=float))
    phi2 = np.radians(np.asarray(lat2, dtype=float))
    dphi = phi2 - phi1
    dlam = np.radians(np.asarray(lon2, dtype=float) - np.asarray(lon1, dtype=float))
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    a = np.clip(a, 0.0, 1.0)
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def haversine_term_km(a: np.ndarray,
                      out: "np.ndarray | None" = None) -> np.ndarray:
    """Great-circle km from an array of haversine terms ``a``, into
    ``out`` if given: :func:`haversine_km_vec`'s tail (clip to [0, 1],
    sqrt, arcsin, scale), the same ufuncs in the same order.

    Every step is monotone non-decreasing, so the smallest (largest)
    distance over a set of terms is the distance of the smallest
    (largest) term — what the separable distance fills rely on to
    reduce before converting.
    """
    km: np.ndarray = np.clip(a, 0.0, 1.0, out=out)
    np.sqrt(km, out=km)
    np.arcsin(km, out=km)
    km *= 2.0 * EARTH_RADIUS_KM
    return km


def initial_bearing_deg(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Initial bearing (forward azimuth) from point 1 to point 2, degrees in [0, 360)."""
    phi1 = lat1 * DEG_TO_RAD
    phi2 = lat2 * DEG_TO_RAD
    dlam = (lon2 - lon1) * DEG_TO_RAD
    y = math.sin(dlam) * math.cos(phi2)
    x = math.cos(phi1) * math.sin(phi2) - math.sin(phi1) * math.cos(phi2) * math.cos(dlam)
    theta = math.atan2(y, x) * RAD_TO_DEG
    return theta % 360.0


def destination_point(lat: float, lon: float, bearing_deg: float, distance_km: float) -> Tuple[float, float]:
    """Point reached travelling ``distance_km`` from ``(lat, lon)`` on ``bearing_deg``.

    Returns ``(lat, lon)`` with longitude normalised into [-180, 180).
    """
    delta = distance_km / EARTH_RADIUS_KM
    theta = bearing_deg * DEG_TO_RAD
    phi1 = lat * DEG_TO_RAD
    lam1 = lon * DEG_TO_RAD
    sin_phi2 = math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    sin_phi2 = min(1.0, max(-1.0, sin_phi2))
    phi2 = math.asin(sin_phi2)
    y = math.sin(theta) * math.sin(delta) * math.cos(phi1)
    x = math.cos(delta) - math.sin(phi1) * sin_phi2
    lam2 = lam1 + math.atan2(y, x)
    return phi2 * RAD_TO_DEG, normalize_lon(lam2 * RAD_TO_DEG)


def midpoint(lat1: float, lon1: float, lat2: float, lon2: float) -> Tuple[float, float]:
    """Midpoint of the great-circle arc between two points."""
    phi1 = lat1 * DEG_TO_RAD
    phi2 = lat2 * DEG_TO_RAD
    lam1 = lon1 * DEG_TO_RAD
    dlam = (lon2 - lon1) * DEG_TO_RAD
    bx = math.cos(phi2) * math.cos(dlam)
    by = math.cos(phi2) * math.sin(dlam)
    phi_m = math.atan2(math.sin(phi1) + math.sin(phi2),
                       math.sqrt((math.cos(phi1) + bx) ** 2 + by ** 2))
    lam_m = lam1 + math.atan2(by, math.cos(phi1) + bx)
    return phi_m * RAD_TO_DEG, normalize_lon(lam_m * RAD_TO_DEG)


def interpolate(lat1: float, lon1: float, lat2: float, lon2: float, fraction: float) -> Tuple[float, float]:
    """Point a given fraction of the way along the great circle from 1 to 2.

    ``fraction`` 0 returns point 1, 1 returns point 2.  Used by the routing
    substrate to place intermediate waypoints on long-haul links.
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must be in [0, 1]: {fraction!r}")
    d = haversine_km(lat1, lon1, lat2, lon2) / EARTH_RADIUS_KM
    if d < 1e-12:
        return lat1, normalize_lon(lon1)
    a = math.sin((1 - fraction) * d) / math.sin(d)
    b = math.sin(fraction * d) / math.sin(d)
    phi1, lam1 = lat1 * DEG_TO_RAD, lon1 * DEG_TO_RAD
    phi2, lam2 = lat2 * DEG_TO_RAD, lon2 * DEG_TO_RAD
    x = a * math.cos(phi1) * math.cos(lam1) + b * math.cos(phi2) * math.cos(lam2)
    y = a * math.cos(phi1) * math.sin(lam1) + b * math.cos(phi2) * math.sin(lam2)
    z = a * math.sin(phi1) + b * math.sin(phi2)
    phi = math.atan2(z, math.sqrt(x * x + y * y))
    lam = math.atan2(y, x)
    return phi * RAD_TO_DEG, normalize_lon(lam * RAD_TO_DEG)


def geodesic_path(
    lat1: float, lon1: float, lat2: float, lon2: float, n_points: int
) -> List[Tuple[float, float]]:
    """``n_points`` evenly spaced points along the great circle, inclusive of endpoints."""
    if n_points < 2:
        raise ValueError("need at least the two endpoints")
    return [interpolate(lat1, lon1, lat2, lon2, i / (n_points - 1)) for i in range(n_points)]
