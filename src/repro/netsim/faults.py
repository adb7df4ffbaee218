"""Seeded fault injection for the network simulator.

The paper's measurements contend with an unreliable substrate: probes are
lost, landmarks die mid-campaign (§4: 12 anchors decommissioned during the
experiment), VPN tunnels drop and reconnect, and transient congestion
inflates RTT floors (§4.3 discards unstable calibration hosts).  The
simulator's perfect delivery makes none of the pipeline's failure handling
exercisable; this module restores the failure modes, deterministically.

Design constraints, in order of importance:

1. **The zero-fault path is byte-identical to the fault-free simulator.**
   When no profile is active the injector consumes *no* random draws and
   touches no sample, so audits with and without the fault layer compiled
   in produce the same records bit for bit.
2. **Faults are order-independent.**  Scheduled faults (outages, tunnel
   drops, a server's position in campaign time) are pure functions of
   ``(fault seed, host id)``; per-probe faults (loss, congestion) draw from
   the caller's measurement stream, which audits key by
   ``(seed, host_id)`` — so serial, parallel, and resumed-from-checkpoint
   runs all see identical faults.
3. **Faults only afflict live measurements.**  The mesh-ping archive the
   algorithms calibrate from is two weeks of *already collected* data; the
   :class:`~repro.netsim.network.Network` applies the injector only inside
   an explicit measurement epoch (see ``Network.measurement_epoch_for``),
   leaving calibration and diagnostic paths untouched.

Lost probes surface as ``NaN`` samples; a burst that loses everything makes
:meth:`Network.min_rtt_ms` raise :class:`MeasurementFailed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np


class MeasurementFailed(Exception):
    """Every probe of a measurement burst was lost or timed out."""


@dataclass(frozen=True)
class FaultProfile:
    """One named bundle of fault rates — the unit of configuration.

    ``loss_rate``
        Per-probe packet-loss probability on every measured link.
    ``timeout_ms``
        Probe timeout: samples slower than this are reported lost (the
        measuring tool gives up), not merely slow.
    ``n_landmark_outages``
        How many landmarks get a scheduled down window during the
        campaign (dead anchors, §4's decommissioning).
    ``outage_fraction``
        Fraction of the campaign each outage window covers.
    ``tunnel_drop_rate``
        Probability that a given proxy's VPN tunnel drops once mid-audit
        (and reconnects on retry).
    ``congestion_rate``
        Probability that a probe burst lands in a transient congestion
        episode, which inflates the whole burst's RTT floor.
    ``congestion_extra_ms``
        Mean floor inflation during a congestion episode.
    """

    name: str
    loss_rate: float = 0.0
    timeout_ms: float = math.inf
    n_landmark_outages: int = 0
    outage_fraction: float = 0.25
    tunnel_drop_rate: float = 0.0
    congestion_rate: float = 0.0
    congestion_extra_ms: float = 40.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.loss_rate < 1.0) and self.loss_rate != 1.0:
            raise ValueError(f"loss_rate out of [0, 1]: {self.loss_rate!r}")
        if self.timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be positive: {self.timeout_ms!r}")
        if not (0.0 <= self.outage_fraction < 1.0):
            raise ValueError(
                f"outage_fraction out of [0, 1): {self.outage_fraction!r}")

    @property
    def is_null(self) -> bool:
        """True when the profile injects nothing at all."""
        return (self.loss_rate == 0.0
                and math.isinf(self.timeout_ms)
                and self.n_landmark_outages == 0
                and self.tunnel_drop_rate == 0.0
                and self.congestion_rate == 0.0)


#: The named profiles the CLI exposes via ``--fault-profile``.
FAULT_PROFILES: Dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    # A long-haul consumer path: 5 % probe loss, two landmarks dead for
    # part of the campaign, the occasional tunnel drop and congestion
    # episode.  The acceptance profile for the resilient pipeline.
    "lossy-wan": FaultProfile(
        name="lossy-wan",
        loss_rate=0.05,
        timeout_ms=800.0,
        n_landmark_outages=2,
        outage_fraction=0.3,
        tunnel_drop_rate=0.02,
        congestion_rate=0.02,
        congestion_extra_ms=40.0,
    ),
    # A flaky VPN fleet: tunnels drop often, loss is heavy, and more of
    # the constellation goes dark.
    "flaky-vpn": FaultProfile(
        name="flaky-vpn",
        loss_rate=0.12,
        timeout_ms=600.0,
        n_landmark_outages=5,
        outage_fraction=0.4,
        tunnel_drop_rate=0.15,
        congestion_rate=0.05,
        congestion_extra_ms=60.0,
    ),
    # Total blackout — every probe lost.  Exercises the pipeline's
    # last-ditch paths: every server must still yield a (degraded,
    # unlocatable) record instead of an exception.
    "blackout": FaultProfile(name="blackout", loss_rate=1.0),
}


def resolve_fault_profile(profile) -> Optional[FaultProfile]:
    """Accept a profile, a profile name, or None; normalise nulls to None."""
    if profile is None:
        return None
    if isinstance(profile, str):
        try:
            profile = FAULT_PROFILES[profile]
        except KeyError:
            raise KeyError(
                f"unknown fault profile {profile!r}; "
                f"known: {sorted(FAULT_PROFILES)}") from None
    if not isinstance(profile, FaultProfile):
        raise TypeError(f"not a fault profile: {profile!r}")
    return None if profile.is_null else profile


class FaultInjector:
    """Applies one :class:`FaultProfile` to measurement sample streams.

    Scheduled state (outage windows, campaign times, tunnel drops) comes
    from private RNG streams keyed by ``(seed, tag, host_id)`` so it never
    perturbs — and is never perturbed by — the measurement noise streams.
    """

    #: Stream tags for the private RNG families (arbitrary, fixed).
    _TAG_OUTAGE = 0xFA01
    _TAG_CLOCK = 0xFA02
    _TAG_TUNNEL = 0xFA03

    def __init__(self, profile: FaultProfile, seed: int = 0):
        self.profile = profile
        self.seed = seed
        #: host_id -> (window_start, window_end) in campaign time [0, 1).
        self._outages: Dict[int, Tuple[float, float]] = {}

    # -- scheduled faults (pure functions of seed + host id) ----------------

    def schedule_outages(self, host_ids: Sequence[int]) -> None:
        """Pick which landmarks get a down window, and when.

        Deterministic in ``(seed, profile)`` and in the *set* of host ids
        (they are sorted first), not in the order they are supplied.
        """
        self._outages.clear()
        count = min(self.profile.n_landmark_outages, len(host_ids))
        if count == 0:
            return
        ordered = sorted(set(host_ids))
        rng = np.random.default_rng((self.seed, self._TAG_OUTAGE))
        chosen = rng.choice(len(ordered), size=count, replace=False)
        for index in sorted(int(i) for i in chosen):
            start = float(rng.uniform(0.0, 1.0 - self.profile.outage_fraction))
            self._outages[ordered[index]] = (
                start, start + self.profile.outage_fraction)

    def campaign_time(self, host_id: int) -> float:
        """When (in [0, 1) campaign time) this target's audit happens.

        A pure function of ``(seed, host_id)``, so a server is measured at
        the same logical instant no matter which worker audits it or in
        what order — the property that keeps serial, parallel, and resumed
        audits bit-identical.
        """
        return float(np.random.default_rng(
            (self.seed, self._TAG_CLOCK, host_id)).random())

    def landmark_down(self, host_id: int, t: float) -> bool:
        """Is this landmark inside its scheduled outage window at time t?"""
        window = self._outages.get(host_id)
        return window is not None and window[0] <= t < window[1]

    def tunnel_drop_point(self, proxy_host_id: int) -> Optional[float]:
        """Where in a proxy's first phase-2 burst its tunnel drops.

        Returns a fraction in (0, 1) — probes from that point on in the
        burst are lost until the measurer retries (the reconnect) — or
        None when this proxy's tunnel holds for the whole audit.
        """
        if self.profile.tunnel_drop_rate == 0.0:
            return None
        rng = np.random.default_rng(
            (self.seed, self._TAG_TUNNEL, proxy_host_id))
        if rng.random() >= self.profile.tunnel_drop_rate:
            return None
        return float(rng.uniform(0.1, 0.9))

    # -- per-probe faults (draw from the caller's measurement stream) --------

    def afflict_burst(self, samples: np.ndarray, down: bool,
                      rng: np.random.Generator) -> np.ndarray:
        """Apply faults to one ``(n,)`` burst of RTT samples, in place.

        Draw order is fixed (congestion, then loss) so a given stream
        position always produces the same afflicted burst.
        """
        if down:
            samples[:] = np.nan
            return samples
        p = self.profile
        if p.congestion_rate and rng.random() < p.congestion_rate:
            samples += float(rng.exponential(p.congestion_extra_ms))
        if p.loss_rate:
            samples[rng.random(samples.shape[0]) < p.loss_rate] = np.nan
        if not math.isinf(p.timeout_ms):
            samples[samples > p.timeout_ms] = np.nan
        return samples

    def afflict_matrix(self, samples: np.ndarray, down_rows: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
        """Apply faults to a ``(k, n)`` measurement panel, in place.

        ``down_rows`` flags rows whose target landmark is inside an outage
        window: every probe to it is lost.  Congestion episodes strike
        whole rows (a burst to one landmark shares a path and a moment in
        time); loss strikes individual probes.
        """
        k, _ = samples.shape
        p = self.profile
        if p.congestion_rate:
            episodes = rng.random(k) < p.congestion_rate
            n_episodes = int(episodes.sum())
            if n_episodes:
                samples[episodes] += rng.exponential(
                    p.congestion_extra_ms, size=n_episodes)[:, None]
        if p.loss_rate:
            samples[rng.random(samples.shape) < p.loss_rate] = np.nan
        if not math.isinf(p.timeout_ms):
            samples[samples > p.timeout_ms] = np.nan
        if down_rows.any():
            samples[down_rows] = np.nan
        return samples
