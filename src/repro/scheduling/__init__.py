"""Communication schedules and the per-round / expected-width simulators."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "comparison": (
            "ScheduleComparison",
            "ScheduleComparisonConfig",
            "ScheduleRow",
            "compare_schedules",
            "default_attacked_indices",
            "expected_fusion_width_exhaustive",
        ),
        "enumeration": (
            "canonical_schedule",
            "correct_placement_grid",
            "count_combinations",
            "count_distinct_schedules",
            "enumerate_combinations",
            "enumerate_schedules",
            "schedule_equivalence_classes",
        ),
        "round": ("RoundConfig", "RoundResult", "run_round"),
        "schedule": (
            "AscendingSchedule",
            "DescendingSchedule",
            "FixedSchedule",
            "RandomSchedule",
            "Schedule",
            "TrustAwareSchedule",
            "schedule_by_name",
        ),
    },
)
