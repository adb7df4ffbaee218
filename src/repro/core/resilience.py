"""Resilience primitives for the measurement pipeline.

The paper's campaign ran for weeks against an unreliable substrate; its
pipeline retried lost probes, dropped unstable vantage points (§4.3), and
kept going when proxies disappeared mid-campaign (§6).  This module holds
the two policy objects the measurement drivers share:

* :class:`RetryPolicy` — exponential backoff with jitter plus per-probe
  and per-campaign *simulated-time* budgets.  The simulator has no wall
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


@dataclass(frozen=True)
class RetryPolicy:
    """Retry with exponential backoff + jitter, under time budgets."""

    #: Total attempts per failed measurement (first try included).
    max_attempts: int = 3
    #: Backoff before retry k (1-based) is ``base * factor**(k-1)``,
    #: scaled by a uniform jitter in ``[1-jitter, 1+jitter]``.
    backoff_base_ms: float = 200.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    #: Budget for one measurement burst including its retries.
    probe_budget_ms: float = 10_000.0
    #: Budget for everything one target's audit spends on retries.
    campaign_budget_ms: float = 60_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"need at least one attempt: {self.max_attempts!r}")
        if not (0.0 <= self.backoff_jitter < 1.0):
            raise ValueError(f"jitter out of [0, 1): {self.backoff_jitter!r}")

    def backoff_ms(self, attempt: int, rng: np.random.Generator) -> float:
        """Simulated delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based: {attempt!r}")
        delay = self.backoff_base_ms * self.backoff_factor ** (attempt - 1)
        if self.backoff_jitter:
            delay *= 1.0 + float(rng.uniform(-self.backoff_jitter,
                                             self.backoff_jitter))
        return delay


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
    ``min_probes`` probes of which more than ``loss_threshold`` were
    lost; the measurer stops retrying it (and stops probing it in later
    phases of the same audit).  Mirrors §4.3's removal of hosts whose
    calibration data was unstable.
    """

    def __init__(self, loss_threshold: float = 0.5, min_probes: int = 6):
        if not (0.0 < loss_threshold <= 1.0):
            raise ValueError(f"loss_threshold out of (0, 1]: {loss_threshold!r}")
        self.loss_threshold = loss_threshold
        self.min_probes = min_probes
        self._health: Dict[str, LandmarkHealth] = {}

    def record(self, name: str, probes: int, losses: int) -> None:
        """Account one burst's outcome for a landmark."""
        health = self._health.setdefault(name, LandmarkHealth())
        health.probes += probes
        health.losses += losses
        if (health.probes >= self.min_probes
                and health.loss_fraction > self.loss_threshold):
            health.quarantined = True

    def quarantined(self, name: str) -> bool:
        health = self._health.get(name)
        return health is not None and health.quarantined

    @property
    def quarantined_names(self) -> list:
        return sorted(name for name, h in self._health.items() if h.quarantined)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-landmark probe/loss/quarantine counts, for reporting."""
        return {name: {"probes": h.probes, "losses": h.losses,
                       "loss_fraction": h.loss_fraction,
                       "quarantined": h.quarantined}
                for name, h in sorted(self._health.items())}
