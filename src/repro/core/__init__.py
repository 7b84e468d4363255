"""Core of the reproduction: intervals, Marzullo fusion, detection, bounds.

The public names re-exported here form the stable core API:

* :class:`~repro.core.interval.Interval` / :class:`~repro.core.interval.IntervalSet`
* :func:`~repro.core.marzullo.fuse` and friends
* :func:`~repro.core.detection.detect`
* the theoretical bounds of :mod:`repro.core.bounds`
* the worst-case search of :mod:`repro.core.worst_case`
"""

from repro.core.baselines import BrooksIyengarResult, brooks_iyengar, mean_fusion, median_fusion
from repro.core.bounds import (
    marzullo_regime,
    satisfies_marzullo_n2_bound,
    satisfies_marzullo_n3_bound,
    satisfies_theorem2,
    theorem2_bound,
    two_largest_widths,
)
from repro.core.detection import DetectionResult, detect, is_stealthy_against
from repro.core.exceptions import (
    AttackError,
    EmptyFusionError,
    EmptyIntersectionError,
    ExperimentError,
    FaultBoundError,
    FusionError,
    IntervalError,
    ReproError,
    ScheduleError,
    SensorError,
    StealthViolationError,
    VehicleError,
)
from repro.core.interval import Interval, IntervalSet, convex_hull, intersect_all
from repro.core.marzullo import (
    CoverageSegment,
    coverage_profile,
    fuse,
    fuse_or_none,
    kth_largest_upper_bound,
    kth_smallest_lower_bound,
    max_coverage,
    max_safe_fault_bound,
    validate_fault_bound,
)
from repro.core.windowed import WindowedDetector, WindowedFusionPipeline, WindowedRoundOutcome
from repro.core.worst_case import (
    WorstCaseResult,
    worst_case_no_attack,
    worst_case_over_attacked_sets,
    worst_case_with_attack,
)

__all__ = [
    # interval
    "Interval",
    "IntervalSet",
    "convex_hull",
    "intersect_all",
    # marzullo
    "fuse",
    "fuse_or_none",
    "coverage_profile",
    "max_coverage",
    "max_safe_fault_bound",
    "validate_fault_bound",
    "kth_smallest_lower_bound",
    "kth_largest_upper_bound",
    "CoverageSegment",
    # detection
    "DetectionResult",
    "detect",
    "is_stealthy_against",
    # bounds
    "marzullo_regime",
    "theorem2_bound",
    "two_largest_widths",
    "satisfies_theorem2",
    "satisfies_marzullo_n3_bound",
    "satisfies_marzullo_n2_bound",
    # baseline fusion schemes
    "BrooksIyengarResult",
    "brooks_iyengar",
    "mean_fusion",
    "median_fusion",
    # windowed detection (paper's footnote-1 extension)
    "WindowedDetector",
    "WindowedFusionPipeline",
    "WindowedRoundOutcome",
    # worst case
    "WorstCaseResult",
    "worst_case_no_attack",
    "worst_case_with_attack",
    "worst_case_over_attacked_sets",
    # exceptions
    "ReproError",
    "IntervalError",
    "EmptyIntersectionError",
    "FusionError",
    "FaultBoundError",
    "EmptyFusionError",
    "AttackError",
    "StealthViolationError",
    "ScheduleError",
    "SensorError",
    "VehicleError",
    "ExperimentError",
]
