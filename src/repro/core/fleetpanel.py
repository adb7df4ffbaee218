"""Fleet observation panels: stacked matrix views of per-server panels.

A fleet audit holds one observation panel per server — a ragged list of
:class:`~repro.core.observations.RttObservation` whose landmark sets
heavily overlap across servers (the two-phase driver draws them from the
same atlas).  The :class:`~repro.geo.bank.DistanceBank` mask kernels
want the whole audit as dense ``(n_servers, k_max)`` matrices instead:
one bank row index and one radius per (server, landmark-slot), so a
single sweep over the block aggregates settles every server at once.

The padding convention that makes ragged fleets rectangular without any
masking logic: absent slots repeat the server's *first* bank row (always
a valid row) and carry ``+inf`` radii.  A disk of infinite radius covers
every cell, so it never constrains an AND; an infinite ring covers no
cell, so it never adds a vote.  Either way the padded slot is inert and
the fleet result is bit-identical, server for server, to running each
panel alone as a fleet of one.

Bank row indices are only stable until the next eviction, so a panel
must be consumed promptly: resolve, sweep, discard.  The builders here
resolve all rows with a single :meth:`~repro.geo.bank.DistanceBank.rows`
call, which also batches any cache fills into one haversine sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..geo.bank import DistanceBank
from .observations import RttObservation

__all__ = ["FleetPanel", "build_fleet_panel"]


@dataclass(frozen=True)
class FleetPanel:
    """Dense matrix view over one fleet's per-server observation panels.

    ``rows[s, i]`` is the bank row of server ``s``'s ``i``-th landmark
    for ``i < counts[s]``, and a repeat of ``rows[s, 0]`` beyond (pair it
    with ``+inf`` via :meth:`pad_radii` so the slot is inert).
    """

    observations: Tuple[Tuple[RttObservation, ...], ...]
    rows: np.ndarray        # (n_servers, k_max) intp bank row indices
    counts: np.ndarray      # (n_servers,) panel lengths
    k_max: int

    @property
    def n_servers(self) -> int:
        return len(self.observations)

    def pad_radii(self, per_server: Sequence[np.ndarray],
                  fill: float = np.inf) -> np.ndarray:
        """Stack ragged per-server radius vectors into ``(n_servers,
        k_max)`` float32, padding absent slots with ``fill``."""
        if len(per_server) != self.n_servers:
            raise ValueError(
                f"{len(per_server)} radius vectors for "
                f"{self.n_servers} servers")
        out = np.full((self.n_servers, self.k_max), fill, dtype=np.float32)
        for s, radii in enumerate(per_server):
            if len(radii) != int(self.counts[s]):
                raise ValueError(
                    f"server {s}: {len(radii)} radii for "
                    f"{int(self.counts[s])} observations")
            out[s, :len(radii)] = radii
        return out


def build_fleet_panel(bank: DistanceBank,
                      per_server: Sequence[Sequence[RttObservation]]
                      ) -> FleetPanel:
    """Assemble a :class:`FleetPanel` from per-server observation panels.

    Every panel must be non-empty — callers route observation-starved
    (degraded) servers through the scalar pipeline, which is the one
    place that knows how to report them.
    """
    panels = tuple(tuple(obs) for obs in per_server)
    counts = np.array([len(panel) for panel in panels], dtype=np.intp)
    if len(panels) == 0:
        raise ValueError("empty fleet")
    if (counts == 0).any():
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(
            f"server {empty} has no observations; degraded servers "
            "belong on the per-server path")
    k_max = int(counts.max())
    lats: List[float] = []
    lons: List[float] = []
    for panel in panels:
        lats.extend(obs.lat for obs in panel)
        lons.extend(obs.lon for obs in panel)
    flat_rows = bank.rows(lats, lons)
    rows = np.empty((len(panels), k_max), dtype=np.intp)
    offset = 0
    for s, count in enumerate(counts):
        server_rows = flat_rows[offset:offset + count]
        rows[s, :count] = server_rows
        rows[s, count:] = server_rows[0]
        offset += int(count)
    return FleetPanel(observations=panels, rows=rows,
                      counts=counts, k_max=k_max)
