"""Communication schedules and the per-round / expected-width simulators."""

from repro.scheduling.comparison import (
    ScheduleComparison,
    ScheduleComparisonConfig,
    ScheduleRow,
    compare_schedules,
    default_attacked_indices,
    expected_fusion_width_exhaustive,
)
from repro.scheduling.enumeration import (
    canonical_schedule,
    correct_placement_grid,
    count_combinations,
    count_distinct_schedules,
    enumerate_combinations,
    enumerate_schedules,
    schedule_equivalence_classes,
)
from repro.scheduling.round import RoundConfig, RoundResult, run_round
from repro.scheduling.schedule import (
    AscendingSchedule,
    DescendingSchedule,
    FixedSchedule,
    RandomSchedule,
    Schedule,
    TrustAwareSchedule,
    schedule_by_name,
)

__all__ = [
    "Schedule",
    "AscendingSchedule",
    "DescendingSchedule",
    "RandomSchedule",
    "FixedSchedule",
    "TrustAwareSchedule",
    "schedule_by_name",
    "RoundConfig",
    "RoundResult",
    "run_round",
    "correct_placement_grid",
    "enumerate_combinations",
    "count_combinations",
    "schedule_equivalence_classes",
    "canonical_schedule",
    "enumerate_schedules",
    "count_distinct_schedules",
    "ScheduleComparisonConfig",
    "ScheduleRow",
    "ScheduleComparison",
    "compare_schedules",
    "default_attacked_indices",
    "expected_fusion_width_exhaustive",
]
