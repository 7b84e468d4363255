"""The three-vehicle platoon of the case study.

Three LandSharks move away from enemy territory in a platoon; the leader sets
a target speed ``v`` for all three, and each vehicle regulates its own speed
with its own sensors, fusion round and supervisor.  The platoon layer tracks
positions so that inter-vehicle gaps (the physical quantity the safety
envelope protects) can be inspected, and aggregates the per-vehicle violation
statistics that Table II reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.attack.policy import AttackPolicy
from repro.core.exceptions import VehicleError
from repro.scheduling.schedule import Schedule
from repro.vehicle.landshark import LandShark, StepRecord
from repro.vehicle.selection import AttackedSensorSelector
from repro.vehicle.supervisor import SafetyLimits

__all__ = ["PlatoonConfig", "PlatoonStep", "Platoon"]


@dataclass(frozen=True)
class PlatoonConfig:
    """Configuration of the platoon simulation.

    Attributes
    ----------
    target_speed:
        Leader-assigned target ``v`` (10 mph in the paper).
    delta_upper / delta_lower:
        The safety margins ``δ1`` and ``δ2`` (0.5 mph each in the paper).
    n_vehicles:
        Number of LandSharks in the platoon (three in the paper).
    initial_gap:
        Initial spacing between consecutive vehicles (in position units).
    attacked_indices:
        Sensor indices under attack on each vehicle (at most one sensor can be
        attacked at any time in the case study).
    """

    target_speed: float = 10.0
    delta_upper: float = 0.5
    delta_lower: float = 0.5
    n_vehicles: int = 3
    initial_gap: float = 5.0
    attacked_indices: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.n_vehicles < 1:
            raise VehicleError(f"a platoon needs at least one vehicle, got {self.n_vehicles}")
        if self.initial_gap <= 0:
            raise VehicleError(f"initial gap must be positive, got {self.initial_gap}")
        if len(self.attacked_indices) > 1:
            raise VehicleError(
                "the case study assumes at most one sensor is attacked at any given time"
            )

    def limits(self) -> SafetyLimits:
        """The safety envelope shared by every vehicle of the platoon."""
        return SafetyLimits(
            target_speed=self.target_speed,
            delta_upper=self.delta_upper,
            delta_lower=self.delta_lower,
        )


@dataclass(frozen=True)
class PlatoonStep:
    """One synchronous step of the whole platoon."""

    step_index: int
    records: tuple[StepRecord, ...]
    gaps: tuple[float, ...]

    @property
    def any_upper_violation(self) -> bool:
        """``True`` if any vehicle saw an upper-bound violation this step."""
        return any(r.upper_violation for r in self.records)

    @property
    def any_lower_violation(self) -> bool:
        """``True`` if any vehicle saw a lower-bound violation this step."""
        return any(r.lower_violation for r in self.records)

    @property
    def min_gap(self) -> float:
        """Smallest inter-vehicle gap after this step (∞ for a single vehicle)."""
        return min(self.gaps) if self.gaps else float("inf")


class Platoon:
    """A platoon of LandSharks sharing one schedule and attack configuration."""

    def __init__(
        self,
        config: PlatoonConfig,
        schedule: Schedule,
        attack_policy: AttackPolicy | None = None,
        attacked_selector: AttackedSensorSelector | None = None,
    ) -> None:
        self._config = config
        limits = config.limits()
        self._vehicles: list[LandShark] = []
        for index in range(config.n_vehicles):
            # The leader is at the largest position; followers start behind it
            # with the configured gap.
            position = -config.initial_gap * index
            self._vehicles.append(
                LandShark(
                    name=f"landshark-{index}",
                    schedule=schedule,
                    limits=limits,
                    attacked_indices=config.attacked_indices,
                    attack_policy=attack_policy,
                    attacked_selector=attacked_selector,
                    initial_position=position,
                )
            )
        self._step_index = 0

    @property
    def vehicles(self) -> Sequence[LandShark]:
        """The platoon members, leader first."""
        return tuple(self._vehicles)

    @property
    def config(self) -> PlatoonConfig:
        """The platoon configuration."""
        return self._config

    def gaps(self) -> tuple[float, ...]:
        """Current gaps between consecutive vehicles (leader to tail)."""
        positions = [vehicle.position for vehicle in self._vehicles]
        return tuple(positions[i] - positions[i + 1] for i in range(len(positions) - 1))

    def step(self, rng: np.random.Generator) -> PlatoonStep:
        """Advance every vehicle by one control period."""
        records = tuple(vehicle.step(rng) for vehicle in self._vehicles)
        result = PlatoonStep(step_index=self._step_index, records=records, gaps=self.gaps())
        self._step_index += 1
        return result

    def run(self, n_steps: int, rng: np.random.Generator) -> list[PlatoonStep]:
        """Run ``n_steps`` synchronous platoon steps."""
        if n_steps <= 0:
            raise VehicleError(f"need a positive number of steps, got {n_steps}")
        return [self.step(rng) for _ in range(n_steps)]
