"""Unit tests for the safety supervisor and limits."""

import pytest

from repro.core import Interval, VehicleError
from repro.vehicle import SafetyLimits, SafetySupervisor
from repro.vehicle.supervisor import PREEMPT_GAIN


class TestSafetyLimits:
    def test_limits_derive_from_target_and_margins(self):
        limits = SafetyLimits(target_speed=10.0, delta_upper=0.5, delta_lower=0.5)
        assert limits.upper_limit == pytest.approx(10.5)
        assert limits.lower_limit == pytest.approx(9.5)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(VehicleError):
            SafetyLimits(target_speed=0.0)
        with pytest.raises(VehicleError):
            SafetyLimits(target_speed=10.0, delta_upper=0.0)
        with pytest.raises(VehicleError):
            SafetyLimits(target_speed=10.0, delta_lower=-0.5)


class TestSafetySupervisor:
    def setup_method(self):
        self.limits = SafetyLimits(target_speed=10.0)
        self.supervisor = SafetySupervisor(self.limits)

    def test_no_violation_passes_controller_command(self):
        decision = self.supervisor.review(Interval(9.8, 10.2), controller_command=0.7)
        assert not decision.any_violation
        assert not decision.preempted
        assert decision.command == pytest.approx(0.7)

    def test_upper_violation_preempts_with_braking(self):
        decision = self.supervisor.review(Interval(9.9, 10.8), controller_command=0.7)
        assert decision.upper_violation
        assert not decision.lower_violation
        assert decision.preempted
        assert decision.command < 0.0

    def test_lower_violation_preempts_with_acceleration(self):
        decision = self.supervisor.review(Interval(9.2, 10.1), controller_command=-0.7)
        assert decision.lower_violation
        assert decision.preempted
        assert decision.command > 0.0

    def test_double_violation_prefers_braking(self):
        decision = self.supervisor.review(Interval(9.0, 11.0), controller_command=0.0)
        assert decision.upper_violation and decision.lower_violation
        assert decision.command < 0.0

    def test_counters_accumulate(self):
        self.supervisor.review(Interval(9.8, 10.2), 0.0)
        self.supervisor.review(Interval(9.0, 10.2), 0.0)
        self.supervisor.review(Interval(9.8, 11.0), 0.0)
        assert self.supervisor.checks == 3
        assert self.supervisor.lower_violations == 1
        assert self.supervisor.upper_violations == 1

    def test_reset_clears_counters(self):
        self.supervisor.review(Interval(9.0, 11.0), 0.0)
        self.supervisor.reset()
        assert self.supervisor.checks == 0
        assert self.supervisor.upper_violations == 0
        assert self.supervisor.lower_violations == 0

    def test_boundary_is_not_a_violation(self):
        decision = self.supervisor.review(Interval(9.5, 10.5), 0.0)
        assert not decision.any_violation

    def test_braking_command_scales_with_the_upper_overshoot(self):
        decision = self.supervisor.review(Interval(9.9, 10.8), controller_command=0.7)
        assert decision.command == pytest.approx(-PREEMPT_GAIN * (10.8 - self.limits.upper_limit))

    def test_acceleration_command_scales_with_the_lower_shortfall(self):
        decision = self.supervisor.review(Interval(9.2, 10.1), controller_command=-0.7)
        assert decision.command == pytest.approx(PREEMPT_GAIN * (self.limits.lower_limit - 9.2))
