"""Vehicle substrate: dynamics, control, supervision, platoon and case study."""

from repro._lazy import lazy_exports

__all__ = [
    "VehicleParameters",
    "VehicleState",
    "LongitudinalVehicle",
    "SpeedController",
    "SafetyLimits",
    "SafetySupervisor",
    "SupervisorDecision",
    "LandShark",
    "StepRecord",
    "landshark_suite",
    "Platoon",
    "PlatoonConfig",
    "PlatoonStep",
    "CaseStudyConfig",
    "ViolationStats",
    "default_attack_policy",
    "run_case_study_for_schedule",
    "AttackedSensorSelector",
    "NoAttackSelector",
    "FixedSelector",
    "MostPreciseSelector",
    "RandomSensorSelector",
    "selector_from_spec",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "case_study": (
            "CaseStudyConfig",
            "ViolationStats",
            "default_attack_policy",
            "run_case_study_for_schedule",
        ),
        "controller": ("SpeedController",),
        "dynamics": ("LongitudinalVehicle", "VehicleParameters", "VehicleState"),
        "landshark": ("LandShark", "StepRecord", "landshark_suite"),
        "platoon": ("Platoon", "PlatoonConfig", "PlatoonStep"),
        "selection": (
            "AttackedSensorSelector",
            "FixedSelector",
            "MostPreciseSelector",
            "NoAttackSelector",
            "RandomSensorSelector",
            "selector_from_spec",
        ),
        "supervisor": ("SafetyLimits", "SafetySupervisor", "SupervisorDecision"),
    },
)
