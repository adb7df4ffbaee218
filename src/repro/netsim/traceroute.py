"""Traceroute simulation and the measurement-channel survey (paper §4.2).

The paper could not use ICMP or traceroute against commercial proxies:
"roughly 90 % ignore ICMP ping requests", "90 % of the default gateways
… ignore ping requests and do not send time-exceeded packets", and
"roughly a third of the servers discard all time-exceeded packets, so it
is not possible to traceroute through them at all".  That filtering is
what forces the TCP-connect-to-port-80 measurement design.

This module reproduces the situation: a router-level traceroute over the
simulated topology, the proxies' filtering behaviour applied to it, and
:func:`survey_measurement_channels`, which re-derives the paper's
percentages from the simulated fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .hosts import Host
from .network import Network, Unreachable
from .proxies import ProxyServer
from .topology import RouterId


@dataclass(frozen=True)
class Hop:
    """One traceroute hop: the router, and its RTT if it answered."""

    index: int
    router: Optional[RouterId]      # None when the hop stayed silent
    rtt_ms: Optional[float]

    @property
    def responded(self) -> bool:
        return self.router is not None


@dataclass
class TracerouteResult:
    """A (possibly truncated) traceroute."""

    hops: List[Hop]
    reached_destination: bool


#: Fraction of transit routers that answer time-exceeded probes at all.
ROUTER_RESPONSE_RATE = 0.85


def traceroute(network: Network, source: Host, destination: Host,
               rng: Optional[np.random.Generator] = None) -> TracerouteResult:
    """Plain traceroute between two directly reachable hosts."""
    rng = rng if rng is not None else np.random.default_rng(
        (source.host_id, destination.host_id))
    path = network.route(source.router, destination.router)
    hops: List[Hop] = []
    cumulative = source.last_mile_ms
    for index, router in enumerate(path, start=1):
        if index > 1:
            cumulative += float(
                network.topology.graph[path[index - 2]][router]["latency_ms"])
        if rng.random() < ROUTER_RESPONSE_RATE:
            rtt = 2.0 * cumulative + float(rng.exponential(1.0))
            hops.append(Hop(index=index, router=router, rtt_ms=rtt))
        else:
            hops.append(Hop(index=index, router=None, rtt_ms=None))
    reached = destination.responds_to_ping
    return TracerouteResult(hops=hops, reached_destination=reached)


def traceroute_through_proxy(network: Network, client: Host,
                             proxy: ProxyServer, destination: Host,
                             rng: Optional[np.random.Generator] = None
                             ) -> TracerouteResult:
    """Traceroute tunnelled through a proxy, with its filtering applied.

    A proxy that discards time-exceeded packets makes every hop beyond
    it invisible; a silent default gateway hides the first hop even when
    the rest of the path answers.
    """
    rng = rng if rng is not None else np.random.default_rng(
        (client.host_id, proxy.host.host_id, destination.host_id))
    if not proxy.allows_traceroute:
        # All time-exceeded responses are discarded inside the tunnel.
        return TracerouteResult(hops=[], reached_destination=False)
    inner = traceroute(network, proxy.host, destination, rng)
    hops = list(inner.hops)
    if hops and not proxy.gateway_responds:
        first = hops[0]
        hops[0] = Hop(index=first.index, router=None, rtt_ms=None)
    return TracerouteResult(hops=hops,
                            reached_destination=inner.reached_destination)


def survey_measurement_channels(network: Network,
                                servers: Sequence[ProxyServer],
                                probe_target: Host,
                                rng: Optional[np.random.Generator] = None
                                ) -> Dict[str, float]:
    """Re-derive the paper's §4.2 channel statistics for a fleet.

    Returns fractions of the fleet that: answer ICMP directly, have a
    visible default gateway, permit traceroute through the tunnel, and —
    always — accept a TCP connection on port 80 (the one channel that
    reliably works, hence the paper's measurement design).
    """
    servers = list(servers)
    if not servers:
        raise ValueError("no servers supplied")
    rng = rng if rng is not None else np.random.default_rng(0)
    pingable = sum(1 for s in servers if s.responds_to_ping)
    gateway_visible = sum(1 for s in servers if s.gateway_responds)
    tracerouteable = 0
    for server in servers:
        result = traceroute_through_proxy(network, probe_target, server,
                                          probe_target, rng)
        if result.hops:
            tracerouteable += 1
    tcp_port_80 = sum(1 for s in servers if s.host.listens_on_port_80)
    n = len(servers)
    return {
        "icmp_ping": pingable / n,
        "gateway_visible": gateway_visible / n,
        "traceroute_through": tracerouteable / n,
        "tcp_port_80": tcp_port_80 / n,
    }
