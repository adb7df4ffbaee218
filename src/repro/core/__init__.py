"""The paper's contribution: active-geolocation algorithms and the audit
machinery around them.

Algorithms
----------
:class:`CBG`
    Constraint-Based Geolocation (Gueye et al. 2004): bestline disks,
    hard intersection.
:class:`QuasiOctant`
    Octant (Wong et al. 2007) minus its traceroute features: convex-hull
    rings.
:class:`Spotter`
    Laki et al. 2011: global cubic Gaussian delay model, Bayesian rings.
:class:`OctantSpotterHybrid`
    Spotter's model inside Quasi-Octant's ring votes.
:class:`CBGPlusPlus`
    The paper's CBG++: slowline + two-tier largest-consistent-subset
    multilateration.
:class:`IclabChecker`
    ICLab's speed-limit country disproof, the comparison baseline.
"""

from .assessment import (
    ClaimAssessment,
    ContinentVerdict,
    Verdict,
    assess_claim,
    tally_categories,
    tally_verdicts,
)
from .base import GeolocationAlgorithm, Prediction
from .calibration import (
    BASELINE,
    SLOWLINE,
    CbgCalibration,
    Line,
    OctantCalibration,
    SpotterCalibration,
)
from .calibrationset import CalibrationSet
from .cbg import CBG
from .cbgpp import CBGPlusPlus
from .colocation import (
    LAN_RTT_THRESHOLD_MS,
    ColocationGroup,
    detect_colocation,
    proxy_pair_rtt_ms,
)
from .disambiguation import (
    AuditRecord,
    Disambiguator,
    disambiguate_by_datacenters,
    group_by_metadata,
    metadata_group_key,
    refine_assessments,
)
from .hybrid import OctantSpotterHybrid
from .iclab import IclabChecker, IclabVerdict
from .multilateration import (
    DiskConstraint,
    GaussianRing,
    RingConstraint,
    bayesian_region,
    intersect_disks,
    largest_consistent_subset,
)
from .observations import RttObservation, merge_min, require_observations
from .octant import QuasiOctant
from .refinement import IterativeRefiner, RefinementResult, RefinementRound
from .proxy_adapter import (
    DEFAULT_ETA,
    PAPER_ETA,
    EtaEstimate,
    ProxyMeasurer,
    collect_eta_data,
    estimate_eta,
)
from .resilience import LandmarkHealthTracker
from .spotter import Spotter
from .twophase import (
    CONTINENT_ADJACENCY,
    NoLandmarksAvailable,
    TwoPhaseDriver,
    TwoPhaseResult,
    TwoPhaseSelector,
)

__all__ = [
    "BASELINE",
    "CBG",
    "CBGPlusPlus",
    "CalibrationSet",
    "ColocationGroup",
    "IterativeRefiner",
    "LAN_RTT_THRESHOLD_MS",
    "RefinementResult",
    "RefinementRound",
    "CbgCalibration",
    "CONTINENT_ADJACENCY",
    "ClaimAssessment",
    "ContinentVerdict",
    "DEFAULT_ETA",
    "PAPER_ETA",
    "LandmarkHealthTracker",
    "NoLandmarksAvailable",
    "DiskConstraint",
    "EtaEstimate",
    "GaussianRing",
    "GeolocationAlgorithm",
    "IclabChecker",
    "IclabVerdict",
    "Line",
    "OctantCalibration",
    "OctantSpotterHybrid",
    "Prediction",
    "ProxyMeasurer",
    "QuasiOctant",
    "RingConstraint",
    "RttObservation",
    "SLOWLINE",
    "Spotter",
    "SpotterCalibration",
    "TwoPhaseDriver",
    "TwoPhaseResult",
    "TwoPhaseSelector",
    "Verdict",
    "AuditRecord",
    "assess_claim",
    "bayesian_region",
    "collect_eta_data",
    "Disambiguator",
    "disambiguate_by_datacenters",
    "estimate_eta",
    "group_by_metadata",
    "intersect_disks",
    "largest_consistent_subset",
    "detect_colocation",
    "merge_min",
    "proxy_pair_rtt_ms",
    "metadata_group_key",
    "refine_assessments",
    "require_observations",
    "tally_categories",
    "tally_verdicts",
]
