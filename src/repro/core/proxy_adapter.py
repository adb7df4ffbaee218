"""Adapting RTT measurement to targets behind proxies (section 5.3).

A measurement through a VPN tunnel observes client→proxy→landmark time.
To isolate the proxy→landmark component the client pings *itself through
the tunnel* — a packet that traverses the client→proxy path twice — and
subtracts η times that self-ping from every tunnelled measurement, where
η is the empirically fitted ratio between direct and indirect proxy RTTs
(≈ 0.49 in the paper, Figure 13, after Castelluccia et al.).

Under fault injection (see :mod:`repro.netsim.faults`) probes come back
as NaN; the measurer retries failed bursts with exponential backoff,
quarantines landmarks that keep eating probes, and raises
:class:`~repro.netsim.faults.MeasurementFailed` only when the tunnel
itself is unreachable after every retry.  With no faults active none of
the retry machinery runs and the measurement stream is byte-identical to
the fault-free pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..netsim.atlas import Landmark
from ..netsim.faults import MeasurementFailed
from ..netsim.hosts import Host
from ..netsim.network import Network
from ..netsim.proxies import ProxiedClient, ProxyServer
from ..stats.regression import LinearFit, theil_sen_fit
from .observations import RttObservation
from .resilience import (CAMPAIGN_BUDGET_MS, MAX_ATTEMPTS,
                         LandmarkHealthTracker, backoff_ms)

#: Default direct/indirect ratio when no pingable proxies are available to
#: fit one.  Theory says exactly 1/2 (the path is traversed twice).
DEFAULT_ETA = 0.5

#: The paper's fitted ratio (Figure 13) — the prior the pipeline falls
#: back on when the calibration burst degrades below the minimum sample
#: count and a fresh fit would be untrustworthy.
PAPER_ETA = 0.49

#: Valid (indirect, direct) sample pairs a proxy must contribute before
#: its pair enters the η fit; partially lost bursts below this are
#: discarded as unstable (the paper's §4.3 treatment).
MIN_ETA_SAMPLES_PER_PROXY = 2


@dataclass(frozen=True)
class EtaEstimate:
    """The fitted direct-vs-indirect RTT relationship."""

    eta: float
    r_squared: float
    n_proxies: int
    fit: Optional[LinearFit] = None
    #: Valid RTT samples that survived loss filtering, across all proxies.
    n_samples: int = 0
    #: True when the estimate fell back to the paper's prior because too
    #: few proxies (or samples) survived the measurement faults.
    degraded: bool = False


def _eta_pairs_with_stats(network: Network, client: Host,
                          proxies: Sequence[ProxyServer],
                          rng: Optional[np.random.Generator],
                          samples_per_proxy: int
                          ) -> Tuple[List[Tuple[float, float]], int]:
    """(indirect, direct) pairs plus the count of valid samples used."""
    rng = rng if rng is not None else np.random.default_rng(0)
    pairs: List[Tuple[float, float]] = []
    n_samples = 0
    pingable = [proxy for proxy in proxies if proxy.responds_to_ping]
    if not pingable:
        return pairs, n_samples
    # One batched shortest-path call resolves every proxy's direct-leg
    # floor; the per-proxy loop below then only draws noise.  The sweep
    # keeps the shared sequential RNG stream byte-identical: `base` skips
    # no draws, and the loop visits proxies in the original order.
    bases = network.base_rtt_pairs([client] * len(pingable),
                                   [proxy.host for proxy in pingable])
    for proxy, base in zip(pingable, bases):
        with network.measurement_epoch_for(proxy.host):
            tunnel = ProxiedClient(network, client, proxy,
                                   seed=proxy.host.host_id)
            direct_samples = network.rtt_samples_ms(
                client, proxy.host, samples_per_proxy, rng,
                base=float(base))
            indirect_samples = tunnel.self_ping_through_proxy_samples_ms(
                samples_per_proxy, rng)
        direct_ok = direct_samples[np.isfinite(direct_samples)]
        indirect_ok = indirect_samples[np.isfinite(indirect_samples)]
        if (direct_ok.size < MIN_ETA_SAMPLES_PER_PROXY
                or indirect_ok.size < MIN_ETA_SAMPLES_PER_PROXY):
            # The burst partially failed: too few samples to trust a
            # minimum from.  Drop the proxy rather than fit on noise.
            continue
        n_samples += int(direct_ok.size + indirect_ok.size)
        pairs.append((float(indirect_ok.min()), float(direct_ok.min())))
    return pairs, n_samples


def collect_eta_data(network: Network, client: Host,
                     proxies: Sequence[ProxyServer],
                     rng: Optional[np.random.Generator] = None,
                     samples_per_proxy: int = 3
                     ) -> List[Tuple[float, float]]:
    """(indirect, direct) RTT pairs for every proxy that answers pings."""
    pairs, _ = _eta_pairs_with_stats(network, client, proxies, rng,
                                     samples_per_proxy)
    return pairs


def estimate_eta(network: Network, client: Host,
                 proxies: Sequence[ProxyServer],
                 rng: Optional[np.random.Generator] = None,
                 samples_per_proxy: int = 3) -> EtaEstimate:
    """Fit η by robust regression of direct on indirect RTTs.

    Falls back to the paper's η = 0.49 prior — flagged ``degraded`` —
    when fewer than three proxies survive ping filtering and loss, rather
    than fitting a line through too little data.
    """
    pairs, n_samples = _eta_pairs_with_stats(network, client, proxies, rng,
                                             samples_per_proxy)
    if len(pairs) < 3:
        return EtaEstimate(eta=PAPER_ETA, r_squared=0.0,
                           n_proxies=len(pairs), n_samples=n_samples,
                           degraded=True)
    indirect = [p[0] for p in pairs]
    direct = [p[1] for p in pairs]
    fit = theil_sen_fit(indirect, direct)
    return EtaEstimate(eta=fit.slope, r_squared=fit.r_squared,
                       n_proxies=len(pairs), fit=fit, n_samples=n_samples)


class ProxyMeasurer:
    """Produces landmark observations for a target behind one proxy.

    Every tunnelled RTT has η × self-ping subtracted to remove the
    client→proxy leg; the remainder, halved, is the one-way proxy→landmark
    delay the geolocation algorithms consume.  Small negative remainders
    (noise on short paths) are clamped to a floor rather than discarded —
    a zero-ish delay is itself informative.

    Lost probes (NaN samples under fault injection) are retried with
    :func:`~repro.core.resilience.backoff_ms`; landmarks that keep
    absorbing probes are quarantined for the rest of this target's audit
    via ``health``.
    """

    ONE_WAY_FLOOR_MS = 0.05

    #: The subtracted client leg is scaled down by this factor.  Queueing
    #: noise makes even the best self-ping an *over*-estimate of the
    #: client→proxy floor; subtracting slightly less biases the residual
    #: error toward overestimation — which only widens the region, whereas
    #: under-estimation can make the region miss the proxy entirely (the
    #: paper's stated priority is never to do that).
    CLIENT_LEG_SAFETY = 0.95

    def __init__(self, network: Network, client: Host, proxy: ProxyServer,
                 eta: float = DEFAULT_ETA, seed: int = 0):
        if not (0.0 < eta < 1.0):
            raise ValueError(f"eta must be in (0, 1): {eta!r}")
        self.tunnel = ProxiedClient(network, client, proxy, seed=seed)
        self.proxy = proxy
        self.eta = eta
        self.health = LandmarkHealthTracker()
        self.elapsed_ms = 0.0
        self._rng = np.random.default_rng(seed + 1)

    def _spend(self, delay_ms: float) -> bool:
        """Account a simulated backoff delay; False when over budget."""
        if self.elapsed_ms + delay_ms > CAMPAIGN_BUDGET_MS:
            return False
        self.elapsed_ms += delay_ms
        return True

    #: Independent self-ping bursts per client-leg estimate when faults
    #: are active.  A transient congestion episode inflates a *whole*
    #: burst's floor; an inflated self-ping over-subtracts the client leg
    #: — the one error direction that can shrink the region off the true
    #: location.  Congestion strikes bursts independently, so the min
    #: over a few bursts escapes the episode.  Fault-free runs take one
    #: burst, keeping the measurement stream byte-identical to the seed
    #: pipeline.
    CLIENT_LEG_BURSTS = 3

    def client_leg_ms(self, rng: Optional[np.random.Generator] = None,
                      samples: int = 5) -> float:
        """Estimated client→proxy RTT: η × (best self-ping), scaled safe.

        Retries a fully lost self-ping round with backoff; raises
        :class:`MeasurementFailed` when the tunnel never answers — the
        proxy has genuinely disappeared.
        """
        rng = rng if rng is not None else self._rng
        faulty = self.tunnel.network.active_faults() is not None
        bursts = self.CLIENT_LEG_BURSTS if faulty else 1
        best = np.inf
        for attempt in range(1, MAX_ATTEMPTS + 1):
            for _ in range(bursts):
                pings = self.tunnel.self_ping_through_proxy_samples_ms(
                    samples, rng)
                finite = pings[np.isfinite(pings)]
                if finite.size:
                    best = min(best, float(finite.min()))
            if np.isfinite(best):
                return self.CLIENT_LEG_SAFETY * self.eta * best
            if attempt == MAX_ATTEMPTS:
                break
            if not self._spend(backoff_ms(attempt, rng)):
                break
        raise MeasurementFailed(
            f"tunnel to {self.proxy.hostname} unreachable: every self-ping "
            f"of {MAX_ATTEMPTS} rounds was lost")

    def observe(self, landmarks: Sequence[Landmark],
                rng: Optional[np.random.Generator] = None,
                samples_per_landmark: int = 3) -> List[RttObservation]:
        """Measure every landmark through the tunnel and adapt the RTTs.

        Landmarks whose bursts are entirely lost are retried (with
        backoff) as a batch; those still silent after the retry budget —
        or already quarantined — yield no observation, and callers see a
        shorter list than they asked for.
        """
        rng = rng if rng is not None else self._rng
        client_leg = self.client_leg_ms(rng)
        landmarks = list(landmarks)
        if not landmarks:
            return []
        faulty = self.tunnel.network.active_faults() is not None
        best = np.full(len(landmarks), np.inf)
        pending = [(index, lm) for index, lm in enumerate(landmarks)
                   if not self.health.quarantined(lm.name)]
        for attempt in range(1, MAX_ATTEMPTS + 1):
            if not pending:
                break
            rtts = self.tunnel.rtt_through_proxy_matrix_ms(
                [lm for _, lm in pending], samples_per_landmark, rng)
            masked = np.where(np.isfinite(rtts), rtts, np.inf)
            row_best = masked.min(axis=1)
            failed = []
            for row, (index, lm) in enumerate(pending):
                if faulty:
                    n_lost = samples_per_landmark - int(
                        np.isfinite(rtts[row]).sum())
                    self.health.record(lm.name, samples_per_landmark, n_lost)
                if np.isfinite(row_best[row]):
                    best[index] = row_best[row]
                elif not self.health.quarantined(lm.name):
                    failed.append((index, lm))
            pending = failed
            if not pending or attempt == MAX_ATTEMPTS:
                break
            if not self._spend(backoff_ms(attempt, rng)):
                break
        observed = np.isfinite(best)
        adapted = np.maximum(best - client_leg, 2.0 * self.ONE_WAY_FLOOR_MS)
        return [RttObservation(
            landmark_name=landmark.name,
            lat=landmark.lat,
            lon=landmark.lon,
            one_way_ms=float(adapted[index]) / 2.0,
        ) for index, landmark in enumerate(landmarks) if observed[index]]
