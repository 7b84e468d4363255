"""End-to-end integration tests across layers (sensors → round → fusion → control)."""

import numpy as np
import pytest

from repro.attack import ExpectationPolicy, TruthfulPolicy
from repro.core import detect, fuse, max_safe_fault_bound
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    RandomSchedule,
    RoundConfig,
    run_round,
)
from repro.sensors import SensorSuite, UniformNoise, sensors_from_widths
from repro.vehicle import FixedSelector, LandShark, SafetyLimits


class TestSensorsToFusionPipeline:
    def test_many_rounds_all_contain_truth(self):
        rng = np.random.default_rng(0)
        suite = SensorSuite(sensors_from_widths([0.5, 1.0, 2.0, 4.0], noise=UniformNoise()))
        f = max_safe_fault_bound(len(suite))
        for step in range(200):
            true_value = 5.0 + np.sin(step / 10.0)
            intervals = [r.interval for r in suite.measure_all(true_value, rng)]
            fusion = fuse(intervals, f)
            assert fusion.contains(true_value)
            assert not detect(intervals, fusion).any_flagged

    def test_fusion_estimate_tracks_truth_better_than_worst_sensor(self):
        rng = np.random.default_rng(1)
        suite = SensorSuite(sensors_from_widths([0.5, 1.0, 4.0], noise=UniformNoise()))
        fusion_errors = []
        worst_sensor_errors = []
        for _ in range(300):
            readings = suite.measure_all(10.0, rng)
            fusion = fuse([r.interval for r in readings], 1)
            fusion_errors.append(abs(fusion.center - 10.0))
            worst_sensor_errors.append(abs(readings[2].measurement - 10.0))
        assert np.mean(fusion_errors) < np.mean(worst_sensor_errors)


class TestAttackedRoundsOverTime:
    def test_expectation_attacker_stays_stealthy_over_time(self):
        rng = np.random.default_rng(3)
        suite = SensorSuite(sensors_from_widths([0.4, 1.0, 2.0], noise=UniformNoise()))
        config = RoundConfig(
            schedule=RandomSchedule(),
            attacked_indices=(0,),
            policy=ExpectationPolicy(true_value_positions=2, placement_positions=2),
            f=1,
        )
        for _ in range(40):
            intervals = [r.interval for r in suite.measure_all(3.0, rng)]
            result = run_round(intervals, config, rng)
            assert result.fusion.contains(3.0)
            assert not result.detection.any_flagged


class TestVehicleClosedLoop:
    def test_landshark_under_attack_stays_controllable(self):
        rng = np.random.default_rng(4)
        shark = LandShark(
            name="shark",
            schedule=DescendingSchedule(),
            limits=SafetyLimits(target_speed=10.0),
            attacked_selector=FixedSelector((0,)),
            attack_policy=ExpectationPolicy(true_value_positions=2, placement_positions=2),
        )
        speeds = [shark.step(rng).true_speed for _ in range(250)]
        # Even under persistent attack the supervisor + controller keep the
        # true speed within a sane envelope around the target.
        assert min(speeds) > 8.0
        assert max(speeds) < 12.0

    def test_truthful_attacker_is_equivalent_to_no_attack(self):
        limits = SafetyLimits(target_speed=10.0)
        results = []
        for policy in (None, TruthfulPolicy()):
            rng = np.random.default_rng(11)
            shark = LandShark(
                name="shark",
                schedule=AscendingSchedule(),
                limits=limits,
                attacked_selector=FixedSelector((0,)) if policy is not None else None,
                attack_policy=policy,
            )
            results.append([shark.step(rng).fusion.width for _ in range(50)])
        assert results[0] == pytest.approx(results[1])
