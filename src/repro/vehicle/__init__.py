"""Vehicle substrate: dynamics, control, supervision, platoon and case study."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
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
