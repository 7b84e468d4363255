"""Vehicle substrate: dynamics, control, supervision, platoon and case study."""

from repro.vehicle.case_study import (
    CaseStudyConfig,
    ViolationStats,
    default_attack_policy,
    run_case_study_for_schedule,
)
from repro.vehicle.controller import SpeedController
from repro.vehicle.dynamics import LongitudinalVehicle, VehicleParameters, VehicleState
from repro.vehicle.landshark import LandShark, StepRecord, landshark_suite
from repro.vehicle.platoon import Platoon, PlatoonConfig, PlatoonStep
from repro.vehicle.selection import (
    AttackedSensorSelector,
    FixedSelector,
    MostPreciseSelector,
    NoAttackSelector,
    RandomSensorSelector,
    selector_from_spec,
)
from repro.vehicle.supervisor import SafetyLimits, SafetySupervisor, SupervisorDecision

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
