"""Adversarial proxies that manipulate round-trip times (paper §8).

The paper's discussion: a VPN operator who knows it is being actively
geolocated can fight back.  Being *in the middle* it can

* **selectively delay** packets — possible for any target, but delay can
  only be *added*, so measurements can only overestimate distance; and
* **forge early SYN-ACKs** — it sees the client's SYNs, so unlike the
  end-host attacker of Abdou et al. it needs no sequence-number guessing,
  and can make any landmark appear arbitrarily *close*.

:class:`AdversarialTunnel` wraps the honest tunnel with either strategy,
aiming measurements at a *pretended location*.  The companion experiment
(`experiments.ext_adversary`, checked by the claim
`tests/test_paper_claims.py::test_claim[ext_adversary]`) reproduces the
qualitative claims: delay-adding cannot evict the true location from
CBG-family regions (disks only grow), while it freely displaces the
minimum-distance models; SYN-ACK forgery defeats everything.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..geodesy.constants import BASELINE_SPEED_KM_PER_MS
from ..geodesy.greatcircle import haversine_km, validate_latlon
from .atlas import Landmark
from .hosts import Host
from .network import Network
from .proxies import ProxiedClient, ProxyServer

STRATEGIES = ("add-delay", "forge-synack")


class AdversarialTunnel(ProxiedClient):
    """A tunnel whose proxy fakes being at ``pretend_location``.

    The proxy computes, per landmark, the round-trip time a server at the
    pretended location would plausibly exhibit (great-circle distance at
    an assumed effective speed, plus a base overhead), and shapes its
    responses toward it:

    * ``add-delay`` — responses are held back until at least the target
      time has elapsed; they can never arrive earlier than the real path
      allows.
    * ``forge-synack`` — the proxy answers the client's SYN itself with a
      forged SYN-ACK timed to the target value, even when that is faster
      than the real landmark exchange.
    """

    #: Effective speed the adversary assumes when faking distances, km/ms.
    #: A real operator would calibrate this; half the fibre speed mimics
    #: typical Internet path inflation.
    FAKE_SPEED_KM_PER_MS = BASELINE_SPEED_KM_PER_MS / 2.0

    #: Base round-trip overhead the adversary adds to its fakes, ms.
    FAKE_BASE_RTT_MS = 6.0

    def __init__(self, network: Network, client: Host, proxy: ProxyServer,
                 pretend_location: Tuple[float, float],
                 strategy: str = "add-delay", seed: int = 0):
        super().__init__(network, client, proxy, seed=seed)
        validate_latlon(*pretend_location)
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        self.pretend_location = pretend_location
        self.strategy = strategy

    def _target_proxy_leg_ms(self, landmark: Landmark) -> float:
        """The proxy→landmark RTT the adversary wants observed."""
        distance = haversine_km(*self.pretend_location,
                                landmark.lat, landmark.lon)
        return 2.0 * distance / self.FAKE_SPEED_KM_PER_MS + self.FAKE_BASE_RTT_MS

    def rtt_through_proxy_ms(self, landmark: Landmark,
                             rng: Optional[np.random.Generator] = None) -> float:
        rng = rng if rng is not None else self._rng
        leg_client = self.network.rtt_sample_ms(self.client, self.proxy.host,
                                                rng)
        real_leg = (self.network.rtt_sample_ms(self.proxy.host, landmark.host,
                                               rng) + self._overhead(rng))
        target_leg = self._target_proxy_leg_ms(landmark) + float(
            rng.uniform(0.0, 2.0))
        if self.strategy == "add-delay":
            # Delay can only be added: the response is held until the
            # later of the real arrival and the target time.
            shaped = max(real_leg, target_leg)
        else:
            # Forged SYN-ACK: the proxy answers by itself at the target
            # time, regardless of the real landmark round trip.
            shaped = target_leg
        return leg_client + shaped

    # Self-pings pass through unshaped here, but only because that attack
    # is not modelled yet.  A self-ping is addressed to the client itself,
    # so the proxy can single it out; delaying it inflates η × self-ping,
    # which over-subtracts from every landmark RTT and shrinks every disk
    # (see ProxyMeasurer.CLIENT_LEG_BURSTS).  This delay-only attack fits
    # the adversary model of Abdou & van Oorschot; ROADMAP item 2
    # measures it.
