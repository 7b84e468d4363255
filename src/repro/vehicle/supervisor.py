"""High-level safety supervisor of the platoon case study.

The case study encodes two safety restrictions into the *fusion interval*
rather than the point estimate: the speed must not exceed ``v + δ1`` (risk of
rear-ending the vehicle in front or being unable to stop) and must not drop
below ``v - δ2`` (risk of being rear-ended by the vehicle behind).  Whenever
the fusion interval's upper bound exceeds ``v + δ1`` or its lower bound falls
below ``v - δ2``, a high-level algorithm preempts the low-level controller.

The supervisor below records those events (they are exactly what Table II
counts) and, when preempting, replaces the controller command with a
conservative one computed from the violated bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import VehicleError
from repro.core.interval import Interval

__all__ = ["PREEMPT_GAIN", "SafetyLimits", "SupervisorDecision", "SafetySupervisor"]

#: Gain of the conservative command the supervisor substitutes when it
#: preempts: proportional to how far the violated fusion bound overshoots the
#: envelope.  The vectorized case study (:mod:`repro.batch.case_study`) uses
#: the same constant.
PREEMPT_GAIN = 2.0


@dataclass(frozen=True)
class SafetyLimits:
    """The platoon's speed envelope around the target ``v``.

    Attributes
    ----------
    target_speed:
        The leader-assigned target ``v`` (10 mph in the paper).
    delta_upper:
        Allowed excess over the target (``δ1``, 0.5 mph in the paper).
    delta_lower:
        Allowed deficit below the target (``δ2``, 0.5 mph in the paper).
    """

    target_speed: float
    delta_upper: float = 0.5
    delta_lower: float = 0.5

    def __post_init__(self) -> None:
        if self.target_speed <= 0:
            raise VehicleError(f"target speed must be positive, got {self.target_speed}")
        if self.delta_upper <= 0 or self.delta_lower <= 0:
            raise VehicleError("safety margins must be positive")

    @property
    def upper_limit(self) -> float:
        """Speed above which the platoon is unsafe (``v + δ1``)."""
        return self.target_speed + self.delta_upper

    @property
    def lower_limit(self) -> float:
        """Speed below which the platoon is unsafe (``v - δ2``)."""
        return self.target_speed - self.delta_lower


@dataclass(frozen=True)
class SupervisorDecision:
    """Outcome of one supervisor check.

    Attributes
    ----------
    upper_violation:
        ``True`` if the fusion interval's upper bound exceeded ``v + δ1``.
    lower_violation:
        ``True`` if the fusion interval's lower bound fell below ``v - δ2``.
    preempted:
        ``True`` if the supervisor overrode the low-level controller.
    command:
        The acceleration command to apply this step (the controller's command
        when not preempted, the supervisor's conservative command otherwise).
    """

    upper_violation: bool
    lower_violation: bool
    preempted: bool
    command: float

    @property
    def any_violation(self) -> bool:
        """``True`` if either safety bound was violated."""
        return self.upper_violation or self.lower_violation


class SafetySupervisor:
    """Checks the fusion interval against the platoon's speed envelope."""

    def __init__(self, limits: SafetyLimits) -> None:
        self._limits = limits
        self._upper_violations = 0
        self._lower_violations = 0
        self._checks = 0

    @property
    def limits(self) -> SafetyLimits:
        """The configured safety envelope."""
        return self._limits

    @property
    def checks(self) -> int:
        """Number of supervisor checks performed so far."""
        return self._checks

    @property
    def upper_violations(self) -> int:
        """Number of checks with the fusion upper bound above ``v + δ1``."""
        return self._upper_violations

    @property
    def lower_violations(self) -> int:
        """Number of checks with the fusion lower bound below ``v - δ2``."""
        return self._lower_violations

    def reset(self) -> None:
        """Clear the violation counters."""
        self._upper_violations = 0
        self._lower_violations = 0
        self._checks = 0

    def review(self, fusion: Interval, controller_command: float) -> SupervisorDecision:
        """Check one round's fusion interval and decide the applied command."""
        self._checks += 1
        upper_violation = fusion.hi > self._limits.upper_limit
        lower_violation = fusion.lo < self._limits.lower_limit
        if upper_violation:
            self._upper_violations += 1
        if lower_violation:
            self._lower_violations += 1
        if not (upper_violation or lower_violation):
            return SupervisorDecision(
                upper_violation=False,
                lower_violation=False,
                preempted=False,
                command=controller_command,
            )
        # Preempt: steer the worst-case speed back inside the envelope.  When
        # the upper bound is violated the vehicle might be too fast, so brake
        # proportionally to the overshoot; symmetrically accelerate when the
        # lower bound is violated.  If both are violated (a very wide fusion
        # interval) braking wins — collisions with the front vehicle or an
        # obstacle are the more severe hazard in the case study.
        if upper_violation:
            command = -PREEMPT_GAIN * (fusion.hi - self._limits.upper_limit)
        else:
            command = PREEMPT_GAIN * (self._limits.lower_limit - fusion.lo)
        return SupervisorDecision(
            upper_violation=upper_violation,
            lower_violation=lower_violation,
            preempted=True,
            command=command,
        )
