"""Unit tests for the single-round simulator."""

import numpy as np
import pytest

from repro.attack import ActiveStretchPolicy, AttackPolicy, ExpectationPolicy, TruthfulPolicy
from repro.core import Interval, ScheduleError, fuse
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    FixedSchedule,
    RandomSchedule,
    RoundConfig,
    run_round,
)
from repro.sensors import SensorSuite, UniformNoise, ZeroNoise, sensors_from_widths
from repro.vehicle import landshark_suite

CORRECT = [Interval(9.9, 10.1), Interval(9.7, 10.3), Interval(9.6, 10.6), Interval(9.2, 11.2)]


class TestRoundWithoutAttack:
    def test_fusion_matches_direct_marzullo(self):
        rng = np.random.default_rng(0)
        config = RoundConfig(schedule=AscendingSchedule(), f=1)
        result = run_round(CORRECT, config, rng)
        assert result.fusion == fuse(CORRECT, 1)

    def test_broadcast_equals_correct_without_attack(self):
        rng = np.random.default_rng(0)
        result = run_round(CORRECT, RoundConfig(schedule=DescendingSchedule(), f=1), rng)
        assert result.broadcast == tuple(CORRECT)
        assert result.attacked_indices == ()
        assert not result.attacker_detected

    def test_default_f_is_conservative(self):
        rng = np.random.default_rng(0)
        result = run_round(CORRECT, RoundConfig(schedule=AscendingSchedule()), rng)
        assert result.fusion == fuse(CORRECT, 1)

    def test_schedule_order_recorded(self):
        rng = np.random.default_rng(0)
        result = run_round(CORRECT, RoundConfig(schedule=AscendingSchedule(), f=1), rng)
        assert result.order == (0, 1, 2, 3)
        result = run_round(CORRECT, RoundConfig(schedule=DescendingSchedule(), f=1), rng)
        assert result.order == (3, 2, 1, 0)

    def test_empty_input_rejected(self):
        with pytest.raises(ScheduleError):
            run_round([], RoundConfig(schedule=AscendingSchedule()), np.random.default_rng(0))

    def test_invalid_attacked_index_rejected(self):
        config = RoundConfig(schedule=AscendingSchedule(), attacked_indices=(9,), f=1)
        with pytest.raises(ScheduleError):
            run_round(CORRECT, config, np.random.default_rng(0))


class TestRoundWithAttack:
    def test_truthful_attacker_equals_no_attack(self):
        rng = np.random.default_rng(0)
        attacked = run_round(
            CORRECT,
            RoundConfig(schedule=DescendingSchedule(), attacked_indices=(0,), policy=TruthfulPolicy(), f=1),
            rng,
        )
        clean = run_round(CORRECT, RoundConfig(schedule=DescendingSchedule(), f=1), rng)
        assert attacked.fusion == clean.fusion

    def test_attacker_modes_recorded(self):
        rng = np.random.default_rng(0)
        result = run_round(
            CORRECT,
            RoundConfig(
                schedule=DescendingSchedule(), attacked_indices=(0,), policy=ActiveStretchPolicy(), f=1
            ),
            rng,
        )
        assert set(result.attacker_modes.keys()) == {0}
        assert result.attacker_modes[0] is not None

    def test_attack_widens_or_preserves_fusion(self):
        rng = np.random.default_rng(0)
        clean = run_round(CORRECT, RoundConfig(schedule=DescendingSchedule(), f=1), rng)
        attacked = run_round(
            CORRECT,
            RoundConfig(
                schedule=DescendingSchedule(), attacked_indices=(0,), policy=ExpectationPolicy(), f=1
            ),
            rng,
        )
        assert attacked.fusion_width >= clean.fusion_width - 1e-9

    def test_is_attacked_helper(self):
        rng = np.random.default_rng(0)
        result = run_round(
            CORRECT,
            RoundConfig(schedule=AscendingSchedule(), attacked_indices=(1,), policy=TruthfulPolicy(), f=1),
            rng,
        )
        assert result.is_attacked(1)
        assert not result.is_attacked(0)

    def test_broadcast_keeps_sensor_order_under_any_schedule(self):
        rng = np.random.default_rng(0)
        for permutation in [(0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 0, 1)]:
            result = run_round(
                CORRECT,
                RoundConfig(schedule=FixedSchedule(permutation), attacked_indices=(), f=1),
                rng,
            )
            assert result.broadcast == tuple(CORRECT)

    def test_fusion_contains_true_value_under_stealthy_attack(self):
        rng = np.random.default_rng(1)
        for attacked in ((0,), (1,), (3,)):
            result = run_round(
                CORRECT,
                RoundConfig(
                    schedule=DescendingSchedule(),
                    attacked_indices=attacked,
                    policy=ExpectationPolicy(),
                    f=1,
                ),
                rng,
            )
            assert result.fusion.contains(10.0)
            assert not result.attacker_detected


class RecordingPolicy(AttackPolicy):
    """Forward to ``inner`` and keep every attack context the round built."""

    def __init__(self, inner: AttackPolicy | None = None) -> None:
        self.inner = inner if inner is not None else TruthfulPolicy()
        self.contexts = []

    def choose_interval(self, context, rng):
        self.contexts.append(context)
        return self.inner.choose_interval(context, rng)


ORDERS = [(0, 1, 2, 3), (3, 2, 1, 0), (3, 1, 0, 2)]


class TestSharedMediumView:
    """A compromised sensor sees every earlier transmission of its round."""

    @pytest.mark.parametrize("permutation", ORDERS, ids=lambda p: "".join(map(str, p)))
    @pytest.mark.parametrize("attacked", [(0,), (2,), (1, 3)], ids=lambda a: "+".join(map(str, a)))
    def test_attacker_context_is_the_bus_so_far(self, permutation, attacked):
        policy = RecordingPolicy(ActiveStretchPolicy())
        config = RoundConfig(
            schedule=FixedSchedule(permutation), attacked_indices=attacked, policy=policy, f=1
        )
        result = run_round(CORRECT, config, np.random.default_rng(0))
        delta = CORRECT[attacked[0]]
        for index in attacked[1:]:
            delta = delta.intersection(CORRECT[index])
        assert [c.sensor_index for c in policy.contexts] == [s for s in permutation if s in attacked]
        for context in policy.contexts:
            slot = context.slot_index
            earlier = permutation[:slot]
            later = permutation[slot + 1 :]
            assert permutation[slot] == context.sensor_index
            assert context.own_reading == CORRECT[context.sensor_index]
            assert context.delta == delta
            assert context.transmitted == tuple(result.broadcast[s] for s in earlier)
            assert context.transmitted_compromised == tuple(s in attacked for s in earlier)
            assert context.remaining_widths == tuple(CORRECT[s].width for s in later)
            assert context.remaining_compromised == tuple(s in attacked for s in later)
            assert context.n_hidden == 0

    def test_zero_noise_round_centres_every_broadcast_on_the_truth(self):
        suite = SensorSuite(sensors_from_widths([0.2, 1.0, 2.0], noise=ZeroNoise()))
        rng = np.random.default_rng(0)
        intervals = [r.interval for r in suite.measure_all(10.0, rng)]
        result = run_round(intervals, RoundConfig(schedule=AscendingSchedule()), rng)
        assert result.fusion.contains(10.0)
        assert not result.detection.any_flagged
        for interval in result.broadcast:
            assert interval.center == pytest.approx(10.0)

    def test_landshark_suite_round_contains_the_truth(self):
        rng = np.random.default_rng(0)
        intervals = [r.interval for r in landshark_suite().measure_all(10.0, rng)]
        result = run_round(intervals, RoundConfig(schedule=AscendingSchedule()), rng)
        assert len(result.order) == len(result.broadcast) == 4
        assert result.fusion.contains(10.0)
        assert not result.detection.any_flagged


class TestStealthyPoliciesStayUndetected:
    @pytest.mark.parametrize(
        "policy",
        [ExpectationPolicy(), ActiveStretchPolicy(), TruthfulPolicy()],
        ids=["expectation", "stretch", "truthful"],
    )
    @pytest.mark.parametrize(
        "schedule",
        [AscendingSchedule(), DescendingSchedule(), RandomSchedule()],
        ids=["ascending", "descending", "random"],
    )
    @pytest.mark.parametrize("attacked", [(0,), (2,)], ids=["precise", "coarse"])
    def test_no_flag_and_truth_kept_over_rounds(self, policy, schedule, attacked):
        suite = SensorSuite(sensors_from_widths([0.4, 1.0, 2.0], noise=UniformNoise()))
        rng = np.random.default_rng(5)
        config = RoundConfig(schedule=schedule, attacked_indices=attacked, policy=policy, f=1)
        for _ in range(15):
            intervals = [r.interval for r in suite.measure_all(3.0, rng)]
            result = run_round(intervals, config, rng)
            assert result.fusion.contains(3.0)
            assert not result.detection.any_flagged
            assert all(mode is not None for mode in result.attacker_modes.values())
