"""Core of the reproduction: intervals, Marzullo fusion, detection, bounds.

The public names re-exported here form the stable core API:

* :class:`~repro.core.interval.Interval` / :class:`~repro.core.interval.IntervalSet`
* :func:`~repro.core.marzullo.fuse` and friends
* :func:`~repro.core.detection.detect`
* the theoretical bounds of :mod:`repro.core.bounds`
* the worst-case search of :mod:`repro.core.worst_case`
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "baselines": ("BrooksIyengarResult", "brooks_iyengar", "mean_fusion", "median_fusion"),
        "bounds": (
            "marzullo_regime",
            "satisfies_marzullo_n2_bound",
            "satisfies_marzullo_n3_bound",
            "satisfies_theorem2",
            "theorem2_bound",
            "two_largest_widths",
        ),
        "detection": ("DetectionResult", "detect", "is_stealthy_against"),
        "exceptions": (
            "AttackError",
            "EmptyFusionError",
            "EmptyIntersectionError",
            "ExperimentError",
            "FaultBoundError",
            "FusionError",
            "IntervalError",
            "ReproError",
            "ScheduleError",
            "SensorError",
            "VehicleError",
        ),
        "interval": ("Interval", "IntervalSet", "convex_hull", "intersect_all"),
        "marzullo": (
            "CoverageSegment",
            "coverage_profile",
            "fuse",
            "fuse_or_none",
            "kth_largest_upper_bound",
            "kth_smallest_lower_bound",
            "max_coverage",
            "max_safe_fault_bound",
            "validate_fault_bound",
        ),
        "windowed": ("WindowedDetector", "WindowedFusionPipeline", "WindowedRoundOutcome"),
        "worst_case": (
            "WorstCaseResult",
            "worst_case_no_attack",
            "worst_case_over_attacked_sets",
            "worst_case_with_attack",
        ),
    },
)
