"""repro — a reproduction of "Attack-Resilient Sensor Fusion" (DATE 2014).

The library implements Marzullo-style interval fusion for abstract sensors,
the paper's attacker model (stealth constraints, partial-information and
omniscient attack policies), communication schedules over a shared broadcast
bus, and the LandShark platoon case study, together with the machinery that
regenerates every table and figure of the paper's evaluation.

Quick start::

    from repro import Interval, fuse

    intervals = [Interval(0.0, 2.0), Interval(1.0, 3.0), Interval(1.5, 4.0)]
    fusion = fuse(intervals, f=1)

See ``README.md`` for the architecture overview and ``EXPERIMENTS.md`` for
the paper-versus-measured comparison of every experiment.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core": (
            "DetectionResult",
            "Interval",
            "IntervalSet",
            "convex_hull",
            "detect",
            "fuse",
            "fuse_or_none",
            "intersect_all",
            "max_safe_fault_bound",
        ),
        "attack": (
            "AttackContext",
            "AttackPolicy",
            "ExpectationPolicy",
            "OmniscientPolicy",
            "RandomAdmissiblePolicy",
            "TruthfulPolicy",
            "optimal_attack",
            "optimal_fusion_width",
        ),
        "scheduling": (
            "AscendingSchedule",
            "DescendingSchedule",
            "FixedSchedule",
            "RandomSchedule",
            "RoundConfig",
            "RoundResult",
            "Schedule",
            "ScheduleComparisonConfig",
            "compare_schedules",
            "run_round",
        ),
        "sensors": ("Sensor", "SensorSpec", "SensorSuite", "landshark_specs", "sensors_from_widths"),
        "vehicle": ("CaseStudyConfig", "Platoon", "PlatoonConfig"),
        "engine": (
            "BatchEngine",
            "Engine",
            "RoundsResult",
            "ScalarEngine",
            "available_engines",
            "get_engine",
            "register_engine",
        ),
        "runner": ("ArtifactStore", "ScenarioRun", "default_store", "run_scenario"),
        "scenarios": (
            "CaseStudyScenario",
            "ComparisonCase",
            "ComparisonScenario",
            "FigureScenario",
            "ScenarioSpec",
            "available_scenarios",
            "get_scenario",
            "list_scenarios",
            "register_scenario",
            "spec_key",
        ),
    },
)
__all__.append("__version__")
