"""Calibration management: lazily fitted, cached delay models per landmark.

The measurement server in the paper "updates a delay-distance model for
each landmark based on the most recent two weeks of ping measurements".
:class:`CalibrationSet` plays that role: it owns the mapping from landmark
names to fitted models, building each model on first use from the Atlas
mesh database and caching it.

Bestline fits outlive the process: :meth:`CalibrationSet.save_bestlines`
writes them beside the mesh archive, and the next process over the same
world adopts them on its first miss instead of refitting every landmark.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import sanitize
from ..atomicfile import load_snapshot, sample_rows, save_snapshot
from ..netsim.atlas import AtlasConstellation, Landmark
from .calibration import (
    CbgCalibration,
    Line,
    OctantCalibration,
    SpotterCalibration,
)

#: Bump when the way a bestline is fitted or stored changes: it is
#: hashed into every fits snapshot key.
FIT_FORMAT_VERSION = 1

#: Adopted fits refitted from the archive before a loaded file is trusted.
FIT_VERIFY_LANDMARKS = 8

#: The columns of a bestline snapshot file and their dtypes.
_FIT_COLUMNS = {"hosts": "int64", "slowline": "bool", "slopes": "float64",
                "intercepts": "float64", "n_points": "int64"}

#: A persisted bestline, keyed by ``(host id, apply_slowline)``.
_Fit = Tuple[float, float, int]


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
        #: Fits read from (or already written to) the snapshot, and fits
        #: made here since.
        self._adopted: Dict[Tuple[int, bool], _Fit] = {}
        self._fitted: Dict[Tuple[int, bool], _Fit] = {}
        #: The fits key when the snapshot was tried (None before).
        self._fits_key: Optional[str] = None
        #: Bestlines adopted from a snapshot / fitted from the archive in
        #: this process (a loaded file's verify sample included).
        self.bestlines_loaded = 0
        self.bestlines_fitted = 0

    def landmark(self, name: str) -> Landmark:
        try:
            return self._landmarks[name]
        except KeyError:
            raise KeyError(f"unknown landmark {name!r}") from None

    def _calibration_points(self, name: str):
        return self.atlas.calibration_data(self.landmark(name))

    def cbg(self, name: str, apply_slowline: bool = False) -> CbgCalibration:
        """The landmark's bestline model (slowline-constrained for CBG++)."""
        cache = self._cbg_slowline if apply_slowline else self._cbg
        model = cache.get(name)
        if model is None:
            if self._fits_key is None:
                self._load_bestlines()
            key = (self.landmark(name).host.host_id, apply_slowline)
            fit = self._adopted.get(key)
            if fit is None:
                model = self._fit(name, apply_slowline)
                self._fitted[key] = _fit_of(model)
            else:
                slope, intercept, n_points = fit
                model = CbgCalibration.adopted(Line(slope, intercept),
                                               n_points, apply_slowline)
                if sanitize.enabled():
                    self._check_adopted(name, model)
            cache[name] = model
        return model

    def fit_bestlines(self, apply_slowline: bool) -> None:
        """Fit every landmark's bestline now.

        Called in the set-up of an audit or service that forks workers:
        they inherit the fits and the mesh archive behind them
        copy-on-write, and the parent's :meth:`save_bestlines` and
        archive save persist both.
        """
        for name in self._landmarks:
            self.cbg(name, apply_slowline)

    # -- the persisted fits ---------------------------------------------------

    def _fit(self, name: str, apply_slowline: bool) -> CbgCalibration:
        self.bestlines_fitted += 1
        return CbgCalibration(self._calibration_points(name),
                              apply_slowline=apply_slowline)

    def fits_digest(self) -> str:
        """sha256 over everything a bestline fit reads.

        The mesh archive's digest (:meth:`AtlasConstellation.mesh_digest`),
        the anchors in peer order, every landmark's host id and reported
        coordinates, and the fit format.
        """
        atlas = self.atlas
        landmarks = sorted(atlas.all_landmarks(),
                           key=lambda lm: lm.host.host_id)
        hasher = hashlib.sha256(f"bestlines v{FIT_FORMAT_VERSION}\n".encode())
        hasher.update(atlas.mesh_digest().encode())
        hasher.update(np.array([lm.host.host_id for lm in atlas.anchors],
                               dtype=np.int64).tobytes())
        hasher.update(np.array([lm.host.host_id for lm in landmarks],
                               dtype=np.int64).tobytes())
        hasher.update(np.array([(lm.lat, lm.lon) for lm in landmarks],
                               dtype=np.float64).tobytes())
        return hasher.hexdigest()

    def _load_bestlines(self) -> None:
        """Adopt the persisted fits for this world if they verify.

        A file :func:`~repro.atomicfile.load_snapshot` rejects, or one
        where a digest-sampled fit does not refit to the same bits, is
        ignored: every bestline is fitted on demand and the next save
        overwrites the file.
        """
        self._fits_key = self.fits_digest()
        stored = load_snapshot("bestlines", self._fits_key, _FIT_COLUMNS)
        if stored is None:
            return
        fits = {(host, slowline): (slope, intercept, n_points)
                for host, slowline, slope, intercept, n_points in zip(
                    *(stored[name].tolist() for name in _FIT_COLUMNS))}
        names = {lm.host.host_id: name for name, lm in self._landmarks.items()}
        for at in sample_rows(stored["hosts"], FIT_VERIFY_LANDMARKS):
            host = int(stored["hosts"][at])
            slowline = bool(stored["slowline"][at])
            if (host not in names or _fit_of(self._fit(
                    names[host], slowline)) != fits[host, slowline]):
                return
        self._adopted = fits
        self.bestlines_loaded = len(fits)

    def _check_adopted(self, name: str, model: CbgCalibration) -> None:
        """Sanitizer: an adopted bestline must refit to the same bits.

        The check fit bypasses :meth:`_fit`, so ``bestlines_fitted``
        counts the same fits with the sanitizer armed or not.
        """
        refit = CbgCalibration(self._calibration_points(name),
                               apply_slowline=model.apply_slowline)
        if _fit_of(refit) != _fit_of(model):
            raise sanitize.SanitizerError(
                f"persisted bestline of {name!r} (slowline="
                f"{model.apply_slowline}) is {_fit_of(model)!r}; refitting "
                f"the mesh archive gives {_fit_of(refit)!r}")

    def save_bestlines(self) -> Optional[str]:
        """Persist every bestline known here if this process fitted new ones.

        Written whole under :meth:`fits_digest` through
        :func:`~repro.atomicfile.save_snapshot`, beside the mesh archive.
        Returns the path written, or None when nothing new was fitted,
        the world changed since the fits were read, or the directory is
        not writable (persistence never fails the caller).
        """
        if not self._fitted or self._fits_key != self.fits_digest():
            return None
        fits = sorted({**self._adopted, **self._fitted}.items())
        path = save_snapshot("bestlines", self._fits_key, {
            "hosts": np.array([host for (host, _), _ in fits], np.int64),
            "slowline": np.array([slow for (_, slow), _ in fits], bool),
            "slopes": np.array([fit[0] for _, fit in fits], np.float64),
            "intercepts": np.array([fit[1] for _, fit in fits], np.float64),
            "n_points": np.array([fit[2] for _, fit in fits], np.int64)})
        if path is not None:
            self._adopted.update(self._fitted)
            self._fitted.clear()
        return path

    # -- the other model families -------------------------------------------

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


def _fit_of(model: CbgCalibration) -> _Fit:
    return (model.bestline.slope, model.bestline.intercept, model.n_points)
