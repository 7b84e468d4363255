"""Unit tests for the LandShark vehicle assembly."""

import tracemalloc

import numpy as np
import pytest

from repro.attack import ActiveStretchPolicy, ExpectationPolicy, TruthfulPolicy
from repro.core import FaultBoundError, VehicleError
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    RandomSchedule,
    RoundConfig,
    RoundResult,
    run_round,
)
from repro.vehicle import FixedSelector, LandShark, RandomSensorSelector, SafetyLimits


def make_landshark(**kwargs) -> LandShark:
    defaults = dict(
        name="shark",
        schedule=AscendingSchedule(),
        limits=SafetyLimits(target_speed=10.0),
    )
    defaults.update(kwargs)
    return LandShark(**defaults)


class TestLandSharkConstruction:
    def test_needs_name(self):
        with pytest.raises(VehicleError):
            make_landshark(name="")

    def test_default_suite_is_the_case_study_suite(self):
        shark = make_landshark()
        assert sorted(shark.suite.widths) == pytest.approx([0.2, 0.2, 1.0, 2.0])

    def test_initial_speed_defaults_to_target(self):
        assert make_landshark().true_speed == pytest.approx(10.0)

    def test_initial_position(self):
        assert make_landshark(initial_position=-5.0).position == pytest.approx(-5.0)

    def test_unsafe_fault_bound_rejected_at_construction(self):
        # Four sensors tolerate at most f = 1.
        with pytest.raises(FaultBoundError):
            make_landshark(f=2)


class TestLandSharkStepping:
    def test_step_without_attack_never_violates(self):
        rng = np.random.default_rng(0)
        shark = make_landshark()
        for _ in range(50):
            record = shark.step(rng)
            assert not record.upper_violation
            assert not record.lower_violation
            assert record.fusion.contains(record.true_speed)

    def test_speed_stays_near_target_without_attack(self):
        rng = np.random.default_rng(1)
        shark = make_landshark()
        for _ in range(200):
            shark.step(rng)
        assert shark.true_speed == pytest.approx(10.0, abs=0.3)

    def test_step_records_increment(self):
        rng = np.random.default_rng(2)
        shark = make_landshark()
        records = [shark.step(rng) for _ in range(3)]
        assert [r.step_index for r in records] == [0, 1, 2]

    def test_attacked_descending_can_violate(self):
        rng = np.random.default_rng(3)
        shark = make_landshark(
            schedule=DescendingSchedule(),
            attacked_selector=FixedSelector((0,)),
            attack_policy=ExpectationPolicy(true_value_positions=2, placement_positions=2),
        )
        violations = sum(
            1 for _ in range(120) if (lambda r: r.upper_violation or r.lower_violation)(shark.step(rng))
        )
        assert violations > 0

    def test_attacked_ascending_never_violates(self):
        rng = np.random.default_rng(4)
        shark = make_landshark(
            schedule=AscendingSchedule(),
            attacked_selector=FixedSelector((0,)),
            attack_policy=ExpectationPolicy(true_value_positions=2, placement_positions=2),
        )
        for _ in range(120):
            record = shark.step(rng)
            assert not record.upper_violation
            assert not record.lower_violation

    def test_fusion_contains_true_speed_even_under_attack(self):
        rng = np.random.default_rng(5)
        shark = make_landshark(
            schedule=DescendingSchedule(),
            attacked_selector=FixedSelector((0,)),
            attack_policy=ExpectationPolicy(true_value_positions=2, placement_positions=2),
        )
        for _ in range(80):
            record = shark.step(rng)
            assert record.fusion.contains(record.true_speed)

    def test_supervisor_counters_match_records(self):
        rng = np.random.default_rng(6)
        shark = make_landshark(
            schedule=DescendingSchedule(),
            attacked_selector=FixedSelector((0,)),
            attack_policy=ExpectationPolicy(true_value_positions=2, placement_positions=2),
        )
        upper = lower = 0
        for _ in range(100):
            record = shark.step(rng)
            upper += record.upper_violation
            lower += record.lower_violation
        assert shark.supervisor.upper_violations == upper
        assert shark.supervisor.lower_violations == lower
        assert shark.supervisor.checks == 100


class TestLandSharkLongRun:
    def test_memory_stays_flat_over_many_steps(self):
        # A vehicle keeps no per-step history: after warm-up, 1,000 more
        # control periods may only grow traced memory by allocator noise.
        rng = np.random.default_rng(7)
        shark = make_landshark()
        for _ in range(200):
            shark.step(rng)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(1_000):
                shark.step(rng)
            growth = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert growth < 256 * 1024


POLICIES = {
    "truthful": TruthfulPolicy,
    "stretch": ActiveStretchPolicy,
    "expectation": lambda: ExpectationPolicy(true_value_positions=2, placement_positions=2),
}
SELECTORS = {
    "none": FixedSelector(()),
    "pair": FixedSelector((0, 1)),
    "random": RandomSensorSelector(1),
}


class TestLandSharkRound:
    @pytest.mark.parametrize(
        "schedule",
        [AscendingSchedule(), DescendingSchedule(), RandomSchedule()],
        ids=["ascending", "descending", "random"],
    )
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("selector", sorted(SELECTORS))
    def test_step_is_select_measure_run_round(self, schedule, policy, selector):
        # One control period is exactly three calls on one generator:
        # pick the attacked set, measure, run the fusion round.
        shark = make_landshark(
            schedule=schedule,
            attacked_selector=SELECTORS[selector],
            attack_policy=POLICIES[policy](),
        )
        replay_policy = POLICIES[policy]()
        rng = np.random.default_rng(2014)
        for _ in range(12):
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            true_speed = shark.true_speed
            record = shark.step(rng)
            attacked = SELECTORS[selector].select(shark.suite, twin)
            readings = shark.suite.measure_all(true_speed, twin)
            expected = run_round(
                [r.interval for r in readings],
                RoundConfig(schedule, attacked, replay_policy),
                twin,
            )
            assert isinstance(record.round_result, RoundResult)
            assert record.round_result == expected
            assert record.fusion == expected.fusion
            assert record.estimate == expected.fusion.center
