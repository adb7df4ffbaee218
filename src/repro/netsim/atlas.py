"""A RIPE-Atlas-like measurement constellation.

Roughly 250 "anchors" and a larger population of "probes", placed with the
same continental skew as the real RIPE Atlas (Figure 3 of the paper:
most anchors in Europe, North America well represented, a handful in
Africa).  Anchors continuously ping each other; the resulting full-mesh
database is what the geolocation algorithms calibrate their per-landmark
delay–distance models from, exactly as the paper does with RIPE's public
measurement archive.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .. import config
from ..geodesy.greatcircle import haversine_km
from .cities import City
from .hosts import Host, HostFactory
from .network import Network

#: Bump when the snapshot layout or the way a mesh value is derived
#: changes: it is hashed into every snapshot key.
MESH_FORMAT_VERSION = 1

#: Archived pairs recomputed through the scalar sampler before a loaded
#: snapshot is trusted.
MESH_VERIFY_PAIRS = 16

#: Target anchor counts per continent, mirroring the paper's Figure 3 skew.
ANCHOR_QUOTAS: Dict[str, int] = {
    "EU": 118, "NA": 55, "AS": 28, "SA": 14, "AF": 12, "OC": 10, "AU": 8, "CA": 5,
}

#: Probe counts per continent (probes are also skewed, but less so).
PROBE_QUOTAS: Dict[str, int] = {
    "EU": 300, "NA": 180, "AS": 120, "SA": 60, "AF": 50, "OC": 40, "AU": 30, "CA": 25,
}


@dataclass(frozen=True)
class Landmark:
    """A constellation host usable as a geolocation landmark.

    ``reported_lat/lon`` model RIPE's user-supplied probe locations: for a
    small fraction of probes they are wrong, and the geolocation pipeline
    (which can only see the reported coordinates) inherits that error.
    Anchors' documented locations are accurate.
    """

    host: Host
    kind: str  # "anchor" or "probe"
    reported_lat: Optional[float] = None
    reported_lon: Optional[float] = None

    @property
    def lat(self) -> float:
        """The location the pipeline believes — reported, not true."""
        return self.reported_lat if self.reported_lat is not None else self.host.lat

    @property
    def lon(self) -> float:
        return self.reported_lon if self.reported_lon is not None else self.host.lon

    @property
    def location_is_wrong(self) -> bool:
        return (self.reported_lat is not None
                and (abs(self.reported_lat - self.host.lat) > 0.5
                     or abs(self.reported_lon - self.host.lon) > 0.5))

    @property
    def name(self) -> str:
        return self.host.name


def _pair_keys(ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
    """One int64 per unordered host pair: the lower id in the high half."""
    return (np.minimum(ids_a, ids_b) << 32) | np.maximum(ids_a, ids_b)


class MeshArchive:
    """One-way delay per unordered landmark pair: the archived mesh pings.

    A snapshot load adopts two sorted arrays (pair keys, delays), so even
    a 232k-pair archive costs one file read and no per-pair Python
    objects; values computed in this process collect in a dict keyed by
    the same packed ints until :meth:`arrays` merges both for a save.
    Lookups and inserts take packed keys (:func:`_pair_keys`); ``get``
    and ``pop`` accept a ``(host_id, host_id)`` pair in either order.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty(0, dtype=np.float64)
        self._fresh: Dict[int, float] = {}

    @staticmethod
    def _key(pair: Tuple[int, int]) -> int:
        low, high = sorted(pair)
        return (low << 32) | high

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Delays for packed pair keys; NaN where a pair is not archived."""
        out = np.full(keys.shape, np.nan)
        if self._keys.size:
            at = np.minimum(np.searchsorted(self._keys, keys),
                            self._keys.size - 1)
            found = self._keys[at] == keys
            out[found] = self._values[at[found]]
        if self._fresh:
            absent = np.flatnonzero(np.isnan(out))
            if absent.size:
                get = self._fresh.get
                out[absent] = [get(key, np.nan)
                               for key in keys[absent].tolist()]
        return out

    def get(self, pair: Tuple[int, int]) -> Optional[float]:
        value = float(self.lookup(np.array([self._key(pair)]))[0])
        return None if np.isnan(value) else value

    def pop(self, pair: Tuple[int, int]) -> float:
        """Forget one pair (it is recomputed on its next lookup)."""
        key = self._key(pair)
        if key in self._fresh:
            return self._fresh.pop(key)
        at = int(np.searchsorted(self._keys, key))
        if at < self._keys.size and self._keys[at] == key \
                and not np.isnan(self._values[at]):
            value = float(self._values[at])
            self._values[at] = np.nan
            return value
        raise KeyError(pair)

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        self._fresh.update(zip(keys.tolist(), values.tolist()))

    def adopt(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Take sorted loaded arrays as the base, before any insert."""
        assert not self._fresh, "a snapshot is adopted before any compute"
        self._keys, self._values = keys, values

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every archived pair as sorted ``(keys, delays)`` arrays."""
        live = ~np.isnan(self._values)
        keys = np.concatenate([
            self._keys[live],
            np.fromiter(self._fresh, np.int64, len(self._fresh))])
        values = np.concatenate([
            self._values[live],
            np.fromiter(self._fresh.values(), np.float64, len(self._fresh))])
        order = np.argsort(keys)
        return keys[order], values[order]


def _checksum(keys: np.ndarray, delays: np.ndarray) -> bytes:
    return hashlib.sha256(keys.tobytes() + delays.tobytes()).digest()


class AtlasConstellation:
    """Anchors + probes + the mesh-ping database they continuously produce."""

    #: Ping samples per landmark pair in the "two-week" calibration window.
    CALIBRATION_SAMPLES = 8

    #: Fraction of probes whose user-reported location is wrong (shifted by
    #: hundreds of km).  Zero for anchors.
    PROBE_LOCATION_ERROR_RATE = 0.03

    def __init__(self, network: Network, factory: HostFactory, seed: int = 0,
                 anchor_quotas: Optional[Dict[str, int]] = None,
                 probe_quotas: Optional[Dict[str, int]] = None):
        self.network = network
        self._rng = np.random.default_rng(seed)
        self._factory = factory
        self.anchors: List[Landmark] = []
        self.probes: List[Landmark] = []
        self.decommissioned: List[Landmark] = []
        self._mesh_cache = MeshArchive()
        #: Pairs adopted from a snapshot / computed in this process.
        self.mesh_loaded = 0
        self.mesh_computed = 0
        self._snapshot_tried = False
        self._mesh_dirty = False
        # topology.version every archived value was derived under (None
        # before the first; -1 once two versions mixed: never saved).
        self._mesh_version: Optional[int] = None
        self._churn_counter = 0
        self._place(factory, anchor_quotas or ANCHOR_QUOTAS,
                    probe_quotas or PROBE_QUOTAS)

    # -- placement ----------------------------------------------------------

    def _eligible_cities(self, continent: str, for_anchors: bool) -> List[City]:
        cities = [c for c in self.network.topology.cities
                  if c.continent == continent and not c.satellite_only]
        if for_anchors:
            # Anchors live in well-connected facilities; prefer hubs but
            # fall back to any city on sparse continents.
            hubs = [c for c in cities if c.is_hub]
            return hubs if hubs else cities
        return cities

    def _place_cohort(self, factory: HostFactory, quotas: Dict[str, int],
                      kind: str) -> List[Landmark]:
        cohort: List[Landmark] = []
        for continent, quota in sorted(quotas.items()):
            cities = self._eligible_cities(continent, for_anchors=(kind == "anchor"))
            if not cities:
                continue
            for i in range(quota):
                city = cities[int(self._rng.integers(len(cities)))]
                # Jitter within ~30 km of the city centre.
                lat = city.lat + float(self._rng.normal(0.0, 0.15))
                lon = city.lon + float(self._rng.normal(0.0, 0.15))
                lat = max(-89.9, min(89.9, lat))
                lon = max(-179.9, min(179.9, lon))
                host = factory.create(
                    lat, lon, name=f"{kind}-{continent}-{i}",
                    os="linux",
                    responds_to_ping=True,
                    listens_on_port_80=bool(self._rng.random() < 0.5),
                    city_id=city.city_id)
                reported_lat = reported_lon = None
                if (kind == "probe"
                        and self._rng.random() < self.PROBE_LOCATION_ERROR_RATE):
                    # User typo / stale registration: off by 200-1500 km.
                    reported_lat = max(-89.9, min(89.9, lat + float(
                        self._rng.uniform(-8.0, 8.0))))
                    reported_lon = max(-179.9, min(179.9, lon + float(
                        self._rng.uniform(-12.0, 12.0))))
                cohort.append(Landmark(host=host, kind=kind,
                                       reported_lat=reported_lat,
                                       reported_lon=reported_lon))
        return cohort

    def _place(self, factory: HostFactory, anchor_quotas: Dict[str, int],
               probe_quotas: Dict[str, int]) -> None:
        self.anchors = self._place_cohort(factory, anchor_quotas, "anchor")
        self.probes = self._place_cohort(factory, probe_quotas, "probe")

    # -- mesh database --------------------------------------------------------

    def all_landmarks(self) -> List[Landmark]:
        return self.anchors + self.probes

    def min_one_way_ms(self, a: Landmark, b: Landmark) -> float:
        """Minimum observed one-way delay between two landmarks, ms.

        Models the paper's use of two weeks of archived mesh pings: the
        reported value is half the minimum of several RTT samples, seeded
        deterministically per pair so the "database" is stable.  A miss
        goes through :meth:`ensure_mesh`, so the value never depends on
        which path, or which direction, materialised it.
        """
        cached = self._mesh_cache.get((a.host.host_id, b.host.host_id))
        if cached is not None:
            return cached
        return float(self.ensure_mesh([(a, b)])[0])

    def ensure_mesh(self, pairs: Iterable[Tuple[Landmark, Landmark]]
                    ) -> np.ndarray:
        """The archived one-way delays of landmark pairs, in order, ms.

        Pairs missing from the archive are materialised in one batch:
        the first miss of the process adopts the persisted snapshot
        (:meth:`save_mesh_archive`) if one verifies, and whatever is
        still missing comes from one :meth:`Network.min_rtt_pairs_ms`
        call, each pair drawing from its own ``(lower id, higher id)``
        seeded generator on the fault-free substrate.  Every value is
        computed lower host id first, so it is a function of the
        unordered pair alone: which landmark was calibrated first, or
        which process archived the pair, cannot change a bit of it.
        """
        pairs = list(pairs)
        ids = np.empty((len(pairs), 2), dtype=np.int64)
        ids[:, 0] = [a.host.host_id for a, _ in pairs]
        ids[:, 1] = [b.host.host_id for _, b in pairs]
        if (ids[:, 0] == ids[:, 1]).any():
            raise ValueError("a landmark has no mesh ping to itself")
        keys = _pair_keys(ids[:, 0], ids[:, 1])
        values = self._mesh_cache.lookup(keys)
        missing = np.isnan(values)
        if missing.any() and not self._snapshot_tried:
            self._snapshot_tried = True
            self._load_snapshot()
            values = self._mesh_cache.lookup(keys)
            missing = np.isnan(values)
        if not missing.any():
            return values
        absent = np.flatnonzero(missing)
        _, first = np.unique(keys[absent], return_index=True)
        todo = absent[np.sort(first)]           # caller order, no repeats
        swapped = (ids[todo, 0] > ids[todo, 1]).tolist()
        lower = [pairs[at][flip].host for at, flip in zip(todo, swapped)]
        higher = [pairs[at][not flip].host for at, flip in zip(todo, swapped)]
        seeds = [(low.host_id, high.host_id)
                 for low, high in zip(lower, higher)]
        # Archived data: even when materialised mid-audit, the pings come
        # from the pristine substrate, or a value would depend on whose
        # measurement epoch happened to trigger it.
        with self.network.fault_free():
            delays = self.network.min_rtt_pairs_ms(
                lower, higher, seeds, self.CALIBRATION_SAMPLES) / 2.0
        self._mesh_cache.insert(keys[todo], delays)
        self._note_mesh_version()
        self._mesh_dirty = True
        self.mesh_computed += len(todo)
        values[absent] = self._mesh_cache.lookup(keys[absent])
        return values

    # -- the persisted archive ------------------------------------------------

    def _note_mesh_version(self) -> None:
        version = self.network.topology.version
        if self._mesh_version is None:
            self._mesh_version = version
        elif self._mesh_version != version:
            self._mesh_version = -1

    def mesh_digest(self) -> str:
        """sha256 over everything an archived value depends on.

        The routed topology, each landmark's host id, router, last-mile
        delay and city congestion scale (decommissioned ones too: their
        pings stay archived), the samples per pair, and the format.
        """
        landmarks = sorted(self.all_landmarks() + self.decommissioned,
                           key=lambda lm: lm.host.host_id)
        topology = self.network.topology
        ids = np.array([(lm.host.host_id,) + tuple(lm.host.router)
                        for lm in landmarks], dtype=np.int64)
        delays = np.array(
            [(lm.host.last_mile_ms,
              topology.city(lm.host.city_id).congestion_scale_ms)
             for lm in landmarks], dtype=np.float64)
        hasher = hashlib.sha256(
            f"atlas-mesh v{MESH_FORMAT_VERSION} "
            f"n={self.CALIBRATION_SAMPLES}\n".encode())
        hasher.update(self.network.topology_digest().encode())
        hasher.update(ids.tobytes())
        hasher.update(delays.tobytes())
        return hasher.hexdigest()

    @staticmethod
    def _snapshot_path(directory: str, digest: str) -> str:
        return os.path.join(directory, f"atlas-mesh-{digest[:32]}.npz")

    def _load_snapshot(self) -> None:
        """Adopt the persisted archive for this world if it verifies.

        A missing, unreadable, truncated, bit-flipped, mis-shaped or
        mis-keyed file, or one whose sampled pairs do not recompute to
        the same bits, is ignored: the values are recomputed and the
        next save overwrites it.
        """
        digest = self.mesh_digest()
        path = self._snapshot_path(config.snapshot_dir(), digest)
        try:
            with open(path, "rb") as handle, \
                    np.load(handle, allow_pickle=False) as stored:
                key = stored["key"]
                keys = stored["pairs"]
                delays = stored["delays"]
                checksum = stored["checksum"]
        except Exception:  # noqa: BLE001 - a missing file, or outside
            return         # input that does not parse: either way, recompute
        if (key.dtype != np.uint8 or key.tobytes() != bytes.fromhex(digest)
                or keys.dtype != np.int64 or keys.ndim != 1
                or delays.dtype != np.float64 or delays.shape != keys.shape
                or checksum.dtype != np.uint8
                or checksum.tobytes() != _checksum(keys, delays)
                or not keys.size or (np.diff(keys) <= 0).any()
                or not self._verify_sample(keys, delays)):
            return
        self._mesh_cache.adopt(keys, delays)
        self._note_mesh_version()
        self.mesh_loaded = len(keys)

    def _verify_sample(self, keys: np.ndarray, delays: np.ndarray) -> bool:
        """Recompute digest-sampled pairs through ``Network.min_rtt_ms``."""
        hosts = {lm.host.host_id: lm.host
                 for lm in self.all_landmarks() + self.decommissioned}
        draws = np.frombuffer(hashlib.sha512(keys.tobytes()).digest(),
                              dtype="<u4")[:MESH_VERIFY_PAIRS]
        for at in sorted(set((draws % keys.size).tolist())):
            low, high = divmod(int(keys[at]), 1 << 32)
            if low not in hosts or high not in hosts:
                return False
            with self.network.fault_free():
                rtt = self.network.min_rtt_ms(
                    hosts[low], hosts[high], n=self.CALIBRATION_SAMPLES,
                    rng=np.random.default_rng((low, high)))
            if rtt / 2.0 != float(delays[at]):
                return False
        return True

    def save_mesh_archive(self) -> Optional[str]:
        """Persist the archive to the snapshot directory if it grew.

        Written whole and atomically (unique temporary file, fsync,
        ``os.replace``, directory fsync) under :meth:`mesh_digest`, so a
        concurrent reader sees the old file or the new one, never a mix.
        Returns the path written, or None when there was nothing to save,
        the topology changed under the archived values, or the directory
        is not writable (persistence never fails the caller).
        """
        if (not self._mesh_dirty
                or self._mesh_version != self.network.topology.version):
            return None
        keys, delays = self._mesh_cache.arrays()
        digest = self.mesh_digest()
        directory = config.snapshot_dir()
        path = self._snapshot_path(directory, digest)
        tmp_path = None
        try:
            os.makedirs(directory, exist_ok=True)
            handle, tmp_path = tempfile.mkstemp(
                dir=directory, prefix=".atlas-mesh-", suffix=".tmp")
            with os.fdopen(handle, "wb") as stream:
                np.savez(stream,
                         key=np.frombuffer(bytes.fromhex(digest), np.uint8),
                         pairs=keys, delays=delays,
                         checksum=np.frombuffer(_checksum(keys, delays),
                                                np.uint8))
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp_path, path)
            tmp_path = None
            flags = getattr(os, "O_DIRECTORY", 0)
            dir_fd = os.open(directory, os.O_RDONLY | flags)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:
            return None
        finally:
            if tmp_path is not None and os.path.exists(tmp_path):
                os.unlink(tmp_path)
        self._mesh_dirty = False
        return path

    def calibration_data(self, landmark: Landmark,
                         peers: Optional[Sequence[Landmark]] = None
                         ) -> List[Tuple[float, float]]:
        """(distance_km, min_one_way_ms) pairs for fitting a delay model.

        By default a landmark is calibrated against every *anchor* (probes
        do not ping the full mesh), excluding itself.
        """
        peers = peers if peers is not None else self.anchors
        others = [peer for peer in peers
                  if peer.host.host_id != landmark.host.host_id]
        delays = self.ensure_mesh([(landmark, peer) for peer in others])
        # Distances are computed from *reported* coordinates — the
        # pipeline cannot know a probe's registration is wrong.
        data: List[Tuple[float, float]] = [
            (haversine_km(landmark.lat, landmark.lon, peer.lat, peer.lon),
             delay) for peer, delay in zip(others, delays.tolist())]
        if len(data) < 2:
            raise ValueError(
                f"not enough peers to calibrate {landmark.name!r}")
        return data

    def apply_churn(self, n_decommission: int = 0, n_add: int = 0,
                    rng: Optional[np.random.Generator] = None) -> None:
        """Simulate constellation churn over a measurement campaign.

        The paper (section 4): "At the time we began our experiments ...
        there were 207 usable anchors; during the course of the
        experiment, 12 were decommissioned and another 61 were added."
        Decommissioned anchors stop being selectable as landmarks (their
        archived mesh pings remain in the cache, as RIPE's archive does);
        added anchors appear at hub cities like the originals.

        Calibration sets built before churn keep working for surviving
        landmarks; rebuild :class:`~repro.core.calibrationset.CalibrationSet`
        to pick up the newcomers.
        """
        rng = rng if rng is not None else self._rng
        if n_decommission > len(self.anchors) - 8:
            raise ValueError("cannot decommission nearly the whole constellation")
        for _ in range(n_decommission):
            index = int(rng.integers(len(self.anchors)))
            self.decommissioned.append(self.anchors.pop(index))
        for i in range(n_add):
            continent = ("EU", "NA", "AS")[int(rng.integers(3))]
            cities = self._eligible_cities(continent, for_anchors=True)
            city = cities[int(rng.integers(len(cities)))]
            self._churn_counter += 1
            host = self._factory.create(
                city.lat + float(rng.normal(0.0, 0.15)),
                city.lon + float(rng.normal(0.0, 0.15)),
                name=f"anchor-new-{self._churn_counter}",
                os="linux", responds_to_ping=True,
                listens_on_port_80=bool(rng.random() < 0.5),
                city_id=city.city_id)
            self.anchors.append(Landmark(host=host, kind="anchor"))

    def landmarks_on_continent(self, continent: str) -> List[Landmark]:
        """Anchors and stable probes located on a continent."""
        topology = self.network.topology
        return [lm for lm in self.all_landmarks()
                if topology.city(lm.host.city_id).continent == continent]

    def anchors_on_continent(self, continent: str) -> List[Landmark]:
        topology = self.network.topology
        return [lm for lm in self.anchors
                if topology.city(lm.host.city_id).continent == continent]
