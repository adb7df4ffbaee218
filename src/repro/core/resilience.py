"""Resilience primitives for the measurement pipeline.

The paper's campaign ran for weeks against an unreliable substrate; its
pipeline retried lost probes, dropped unstable vantage points (§4.3), and
kept going when proxies disappeared mid-campaign (§6).  This module holds
the two policies the measurement pipeline shares:

* the retry policy — exponential backoff with jitter (:func:`backoff_ms`)
  under a per-target *simulated-time* budget.  The simulator has no wall
  clock; delays are accounted, not slept, so retry behaviour is exactly
  reproducible.
* :class:`LandmarkHealthTracker` — per-measurement-session loss
  accounting that quarantines vantage points whose loss fraction exceeds
  a threshold.  Trackers are scoped to one target's audit (one
  :class:`~repro.core.proxy_adapter.ProxyMeasurer`), which keeps
  quarantine decisions independent of fleet order — a shared tracker
  would make parallel audits diverge from serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

#: Total attempts per failed measurement (first try included).
MAX_ATTEMPTS = 3

#: Backoff before retry k (1-based) is ``base * factor**(k-1)``, scaled
#: by a uniform jitter in ``[1-jitter, 1+jitter]``.
BACKOFF_BASE_MS = 200.0
BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.25

#: Budget for everything one target's audit spends on retries.
CAMPAIGN_BUDGET_MS = 60_000.0

#: A landmark is quarantined once it has absorbed at least
#: ``MIN_PROBES`` probes of which more than ``LOSS_THRESHOLD`` were lost.
LOSS_THRESHOLD = 0.5
MIN_PROBES = 6


def backoff_ms(attempt: int, rng: np.random.Generator) -> float:
    """Simulated delay before retry ``attempt`` (1-based)."""
    if attempt < 1:
        raise ValueError(f"attempt is 1-based: {attempt!r}")
    delay = BACKOFF_BASE_MS * BACKOFF_FACTOR ** (attempt - 1)
    return delay * (1.0 + float(rng.uniform(-BACKOFF_JITTER, BACKOFF_JITTER)))


@dataclass
class LandmarkHealth:
    """Loss accounting for one vantage point within one session."""

    probes: int = 0
    losses: int = 0
    quarantined: bool = False

    @property
    def loss_fraction(self) -> float:
        return self.losses / self.probes if self.probes else 0.0


class LandmarkHealthTracker:
    """Quarantines vantage points that keep eating probes.

    A landmark is quarantined once it has absorbed at least
    ``MIN_PROBES`` probes of which more than ``LOSS_THRESHOLD`` were
    lost; the measurer stops retrying it (and stops probing it in later
    phases of the same audit).  Mirrors §4.3's removal of hosts whose
    calibration data was unstable.
    """

    def __init__(self) -> None:
        self._health: Dict[str, LandmarkHealth] = {}

    def record(self, name: str, probes: int, losses: int) -> None:
        """Account one burst's outcome for a landmark."""
        health = self._health.setdefault(name, LandmarkHealth())
        health.probes += probes
        health.losses += losses
        if (health.probes >= MIN_PROBES
                and health.loss_fraction > LOSS_THRESHOLD):
            health.quarantined = True

    def quarantined(self, name: str) -> bool:
        health = self._health.get(name)
        return health is not None and health.quarantined

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-landmark probe/loss/quarantine counts, for reporting."""
        return {name: {"probes": h.probes, "losses": h.losses,
                       "loss_fraction": h.loss_fraction,
                       "quarantined": h.quarantined}
                for name, h in sorted(self._health.items())}
