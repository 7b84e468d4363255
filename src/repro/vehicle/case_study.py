"""The Table II case study: critical speed violations per schedule.

Three LandSharks drive in a platoon at a target speed of ``v = 10`` mph with
safety margins ``δ1 = δ2 = 0.5`` mph.  At most one sensor is attacked at any
time; the attacker forges that sensor's interval (stealthily) to maximise the
fusion interval, and the case study counts how often the fusion interval's
bounds cross the critical speeds — the events that force the high-level
safety algorithm to preempt the controller:

* percentage of fusion rounds with the upper bound above 10.5 mph,
* percentage of fusion rounds with the lower bound below 9.5 mph,

for the Ascending, Descending and Random schedules (Table II of the paper).

Which sensor is attacked is configurable:

* ``"random"`` (default) — a uniformly random sensor each fusion round; this
  matches the paper's assumption that "any sensor can be attacked";
* ``"most_precise"`` — the attacker always compromises one of the wheel
  encoders, the strongest choice by Theorem 4 (roughly doubles the violation
  rates; used by the ablation benchmark);
* an integer index — a fixed sensor.

:func:`run_case_study_for_schedule` is the scalar reference driver and
:func:`repro.batch.case_study.batch_case_study_for_schedule` its vectorized
counterpart.  The full experiment is a catalogue scenario:
``api.run(get_scenario("table2-scalar"))`` steps the per-vehicle object
stack, ``table2-proxy`` and ``table2-exact`` run the batched stepper
(10⁴+ platoon rounds per schedule in seconds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.attack.expectation import ExpectationPolicy
from repro.attack.policy import AttackPolicy
from repro.core.exceptions import ExperimentError
from repro.scheduling.schedule import Schedule
from repro.utils.seeding import ensure_rng
from repro.vehicle.platoon import Platoon, PlatoonConfig
from repro.vehicle.selection import AttackedSensorSelector, selector_from_spec

__all__ = [
    "CaseStudyConfig",
    "ViolationStats",
    "default_attack_policy",
    "run_case_study_for_schedule",
]


def default_attack_policy() -> AttackPolicy:
    """The attacker used by the case study: expectation-maximising, coarse grid.

    The coarse discretisation keeps a multi-thousand-round platoon simulation
    tractable while preserving the attacker's qualitative behaviour (attack
    towards whichever side the seen intervals leave room for).
    """
    return ExpectationPolicy(true_value_positions=2, placement_positions=2, grid_positions=7)


@dataclass(frozen=True)
class CaseStudyConfig:
    """Configuration of the Table II experiment.

    Attributes
    ----------
    target_speed / delta_upper / delta_lower:
        The platoon speed envelope (10 ± 0.5 mph in the paper).
    n_vehicles:
        Platoon size (three in the paper).
    n_steps:
        Number of control periods simulated per schedule.
    attacked_sensor:
        ``"most_precise"``, ``"random"`` or an explicit sensor index.
    seed:
        Base RNG seed; each schedule derives its own stream from it.
    """

    target_speed: float = 10.0
    delta_upper: float = 0.5
    delta_lower: float = 0.5
    n_vehicles: int = 3
    n_steps: int = 200
    attacked_sensor: str | int = "random"
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.n_steps <= 0:
            raise ExperimentError(f"n_steps must be positive, got {self.n_steps}")
        # Validate the attacked-sensor specification eagerly so that typos
        # fail at configuration time rather than mid-simulation.
        self.attacked_selector()

    def attacked_selector(self) -> AttackedSensorSelector:
        """The attacked-sensor selection strategy implied by the config."""
        return selector_from_spec(self.attacked_sensor)

    def platoon_config(self) -> PlatoonConfig:
        """Build the platoon configuration (attacked set is chosen per round)."""
        return PlatoonConfig(
            target_speed=self.target_speed,
            delta_upper=self.delta_upper,
            delta_lower=self.delta_lower,
            n_vehicles=self.n_vehicles,
        )


@dataclass(frozen=True)
class ViolationStats:
    """Violation percentages for one schedule (one row pair of Table II)."""

    schedule_name: str
    rounds: int
    upper_violations: int
    lower_violations: int

    @property
    def upper_percentage(self) -> float:
        """Percentage of rounds with the fusion upper bound above ``v + δ1``."""
        return 100.0 * self.upper_violations / self.rounds if self.rounds else 0.0

    @property
    def lower_percentage(self) -> float:
        """Percentage of rounds with the fusion lower bound below ``v - δ2``."""
        return 100.0 * self.lower_violations / self.rounds if self.rounds else 0.0


def run_case_study_for_schedule(
    config: CaseStudyConfig,
    schedule: Schedule,
    policy_factory: Callable[[], AttackPolicy] = default_attack_policy,
    rng: np.random.Generator | None = None,
) -> ViolationStats:
    """Run the platoon under one schedule and count critical speed violations.

    This is the scalar reference driver (one Python call per control period
    and vehicle); the vectorized counterpart is
    :func:`repro.batch.case_study.batch_case_study_for_schedule`.
    """
    rng = ensure_rng(rng, config.seed)
    platoon = Platoon(
        config.platoon_config(),
        schedule,
        policy_factory(),
        attacked_selector=config.attacked_selector(),
    )
    upper = 0
    lower = 0
    rounds = 0
    for _ in range(config.n_steps):
        step = platoon.step(rng)
        for record in step.records:
            rounds += 1
            if record.upper_violation:
                upper += 1
            if record.lower_violation:
                lower += 1
    return ViolationStats(
        schedule_name=schedule.name,
        rounds=rounds,
        upper_violations=upper,
        lower_violations=lower,
    )
