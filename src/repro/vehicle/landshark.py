"""LandShark vehicle assembly: dynamics + sensors + fusion round + control.

A :class:`LandShark` bundles everything one vehicle of the platoon needs:

* the longitudinal dynamics (the "plant"),
* the four-sensor speed suite of the case study (GPS, camera, two encoders),
* the communication schedule and fault bound of its fusion round,
* the attacked-sensor selector and attack policy (if this vehicle is under
  attack),
* the PI speed controller and the safety supervisor.

One call to :meth:`step` performs a full control period: pick the attacked
sensors, measure, run one fusion round
(:func:`~repro.scheduling.round.run_round`: broadcast according to the
schedule with the attacker forging her slots, fuse, detect), review against
the safety envelope, and advance the dynamics with the applied command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.policy import AttackPolicy, TruthfulPolicy
from repro.core.exceptions import VehicleError
from repro.core.interval import Interval
from repro.core.marzullo import validate_fault_bound
from repro.sensors.library import landshark_specs, make_sensor
from repro.sensors.noise import NoiseModel, UniformNoise
from repro.sensors.suite import SensorSuite
from repro.scheduling.round import RoundConfig, RoundResult, run_round
from repro.scheduling.schedule import Schedule
from repro.vehicle.controller import SpeedController
from repro.vehicle.dynamics import LongitudinalVehicle, VehicleParameters, VehicleState
from repro.vehicle.selection import AttackedSensorSelector, FixedSelector
from repro.vehicle.supervisor import SafetyLimits, SafetySupervisor, SupervisorDecision

__all__ = ["landshark_suite", "StepRecord", "LandShark"]


def landshark_suite(noise: NoiseModel | None = None) -> SensorSuite:
    """The case study's four-sensor speed suite (widths 0.2, 0.2, 1.0, 2.0 mph)."""
    noise = noise if noise is not None else UniformNoise()
    return SensorSuite(make_sensor(spec, noise) for spec in landshark_specs())


@dataclass(frozen=True)
class StepRecord:
    """Everything recorded about one control period of one vehicle."""

    step_index: int
    true_speed: float
    fusion: Interval
    estimate: float
    decision: SupervisorDecision
    round_result: RoundResult

    @property
    def upper_violation(self) -> bool:
        """Fusion upper bound exceeded ``v + δ1`` this step."""
        return self.decision.upper_violation

    @property
    def lower_violation(self) -> bool:
        """Fusion lower bound fell below ``v - δ2`` this step."""
        return self.decision.lower_violation


class LandShark:
    """One LandShark vehicle of the platoon."""

    def __init__(
        self,
        name: str,
        schedule: Schedule,
        limits: SafetyLimits,
        attacked_indices: tuple[int, ...] = (),
        attack_policy: AttackPolicy | None = None,
        attacked_selector: AttackedSensorSelector | None = None,
        suite: SensorSuite | None = None,
        parameters: VehicleParameters | None = None,
        initial_speed: float | None = None,
        initial_position: float = 0.0,
        f: int | None = None,
    ) -> None:
        if not name:
            raise VehicleError("a LandShark needs a non-empty name")
        self.name = name
        self._limits = limits
        self._suite = suite if suite is not None else landshark_suite()
        initial = VehicleState(
            speed=limits.target_speed if initial_speed is None else initial_speed,
            position=initial_position,
        )
        self._vehicle = LongitudinalVehicle(parameters, initial)
        self._controller = SpeedController()
        self._supervisor = SafetySupervisor(limits)
        self._attacked_selector = (
            attacked_selector
            if attacked_selector is not None
            else FixedSelector(indices=tuple(attacked_indices))
        )
        self._schedule = schedule
        self._policy = attack_policy if attack_policy is not None else TruthfulPolicy()
        if f is not None:
            validate_fault_bound(len(self._suite), f)
        self._f = f
        self._step_index = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def suite(self) -> SensorSuite:
        """The vehicle's sensor suite."""
        return self._suite

    @property
    def supervisor(self) -> SafetySupervisor:
        """The vehicle's safety supervisor (holds the violation counters)."""
        return self._supervisor

    @property
    def true_speed(self) -> float:
        """Current true speed of the vehicle."""
        return self._vehicle.speed

    @property
    def position(self) -> float:
        """Current position of the vehicle."""
        return self._vehicle.position

    @property
    def target_speed(self) -> float:
        """The platoon target speed this vehicle regulates to."""
        return self._limits.target_speed

    # ------------------------------------------------------------------
    # One control period
    # ------------------------------------------------------------------
    def step(self, rng: np.random.Generator) -> StepRecord:
        """Run one full control period and advance the dynamics."""
        true_speed = self._vehicle.speed
        attacked = self._attacked_selector.select(self._suite, rng)
        readings = self._suite.measure_all(true_speed, rng)
        round_result = run_round(
            [r.interval for r in readings],
            RoundConfig(self._schedule, attacked, self._policy, self._f),
            rng,
        )
        estimate = round_result.fusion.center
        command = self._controller.command(
            self._limits.target_speed, estimate, self._vehicle.parameters.dt
        )
        decision = self._supervisor.review(round_result.fusion, command)
        self._vehicle.step(decision.command, rng)
        record = StepRecord(
            step_index=self._step_index,
            true_speed=true_speed,
            fusion=round_result.fusion,
            estimate=estimate,
            decision=decision,
            round_result=round_result,
        )
        self._step_index += 1
        return record
