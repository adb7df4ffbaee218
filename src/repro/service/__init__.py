"""The always-on verdict service: one fleet audit, millions of verdicts.

The batch pipeline in :mod:`repro.experiments.audit` answers every
claim-credibility question by re-running measurement + multilateration;
this package decouples per-query cost from per-measurement cost.  A
:class:`VerdictService` holds the warmed topology (CSR rows, distance
bank, country words) once, snapshots that state under a
:class:`TopologyEpoch` content digest, and serves claim queries out of
epoch-keyed LRU caches — falling back to micro-batched
``predict_fleet`` sweeps only for genuinely uncached hosts.

The determinism contract of the audit pipeline carries over verbatim: a
cache-hit verdict is byte-identical to a cold recompute at the same
epoch, at any batch size, arrival order, or worker count.
"""

from .epoch import EpochRollStats, TopologyEpoch
from .frontend import FrontendStats, ServiceFrontend
from .verdict import CachedVerdict, VerdictResponse, VerdictService

__all__ = [
    "CachedVerdict",
    "EpochRollStats",
    "FrontendStats",
    "ServiceFrontend",
    "TopologyEpoch",
    "VerdictResponse",
    "VerdictService",
]
