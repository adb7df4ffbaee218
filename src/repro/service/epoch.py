"""Topology epochs: content digests over the warmed measurement state.

Every artifact the verdict service caches is keyed by the digest of the
state that produced it, so invalidation is automatic: if anything a
verdict depends on changes — router graph, landmark constellation,
measurement seed, fault profile, grid resolution, or the quarantine
set — the digest changes and stale entries simply stop matching.

The digest is split in two layers because the two kinds of change have
very different blast radii:

* ``substrate_digest`` covers the *shared* measurement substrate
  (topology, landmark identities, seed, profile, grid).  Any change
  here can move every server's panel — phase-2 selection draws from
  pool-size-dependent ``rng.choice`` — so it invalidates everything.
* ``digest`` additionally folds in the sorted quarantine set.  A
  quarantine change is a *measure-time filter* (panels are selected
  first, quarantined names dropped at probe time), so it only affects
  servers whose requested panel intersects the changed names —
  :meth:`TopologyEpoch.quarantine_delta` gives the roll machinery
  exactly that set, and everything else carries forward byte-identical.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # import-free at runtime: epoch loads before verdict
    from ..experiments.scenario import Scenario


@dataclass(frozen=True)
class TopologyEpoch:
    """One snapshot of everything a cached verdict depends on."""

    #: Digest of the shared substrate: topology, landmarks, seed,
    #: profile, grid.  Two epochs with equal substrates differ at most
    #: in their quarantine sets.
    substrate_digest: str
    #: Full epoch digest (substrate + quarantine set): the cache key.
    digest: str
    #: Landmark names excluded from measurement during this epoch.
    quarantined: FrozenSet[str]
    seed: int
    profile_name: Optional[str]

    @classmethod
    def capture(cls, scenario: "Scenario", seed: int = 0,
                profile_name: Optional[str] = None,
                quarantined: Iterable[str] = ()) -> "TopologyEpoch":
        """Digest a scenario's current measurement substrate.

        ``profile_name`` names the resolved fault profile the service
        measures under (see
        :func:`~repro.experiments.audit.fault_environment`; None is
        fault-free); ``quarantined`` is the measure-time exclusion set
        this epoch serves under.
        """
        hasher = hashlib.sha256()
        hasher.update(scenario.network.topology_digest().encode())
        landmarks = sorted(
            (lm.name, lm.host.host_id, float(lm.lat), float(lm.lon))
            for lm in scenario.atlas.all_landmarks())
        for identity in landmarks:
            hasher.update(repr(identity).encode())
        hasher.update(repr((seed, profile_name,
                            scenario.grid.n_cells)).encode())
        substrate = hasher.hexdigest()
        names = frozenset(quarantined)
        overlay = hashlib.sha256()
        overlay.update(substrate.encode())
        overlay.update(repr(sorted(names)).encode())
        return cls(substrate_digest=substrate,
                   digest=overlay.hexdigest(),
                   quarantined=names,
                   seed=seed,
                   profile_name=profile_name)

    def quarantine_delta(self, other: "TopologyEpoch"
                         ) -> Optional[FrozenSet[str]]:
        """Landmark names whose quarantine status differs, or None.

        ``None`` means the substrates diverged — panel selection itself
        may have moved for every server, so nothing can carry forward.
        An empty frozenset means the epochs are measurement-identical.
        """
        if self.substrate_digest != other.substrate_digest:
            return None
        return self.quarantined ^ other.quarantined


@dataclass
class EpochRollStats:
    """What one :meth:`VerdictService.roll_epoch` actually did."""

    old_digest: str
    new_digest: str
    #: The epochs were identical; nothing moved.
    unchanged: bool = False
    #: The substrate changed: every cached entry was flushed.
    full_invalidation: bool = False
    #: Cached measurements re-keyed to the new epoch untouched.
    carried_forward: int = 0
    #: Cached measurements dropped because they depended on the delta.
    flushed: int = 0
    #: Hosts re-measured during the roll.
    reevaluated: int = 0
    #: Host ids whose verdicts were re-evaluated, ascending.
    reevaluated_hosts: List[int] = field(default_factory=list)
    #: Landmark names whose quarantine status changed this roll.
    delta: Tuple[str, ...] = ()
