"""Integration tests encoding the paper's headline claims at reduced scale.

Each test here is a miniature version of one of the paper's experiments; the
full-scale versions are the catalogue scenarios (``table1-row*``,
``table1-expectation``, ``table2-*``, ``ablation-*``) that
``python -m repro run`` regenerates.  The assertions check the *shape* of
the results (orderings, zero/non-zero rates, bound satisfaction), which is
what the reproduction is expected to preserve.
"""

import math

import numpy as np
import pytest

from repro.analysis import TABLE1_CONFIGURATIONS, figure1_intervals
from repro.attack import ExpectationPolicy, optimal_fusion_width
from repro.core import Interval, fuse, theorem2_bound
from repro.core.worst_case import worst_case_no_attack, worst_case_with_attack
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    RoundConfig,
    ScheduleComparisonConfig,
    compare_schedules,
    run_round,
)
from repro.sensors import SensorSuite, UniformNoise, sensors_from_widths
from repro.vehicle import CaseStudyConfig, run_case_study


class TestFigure1:
    def test_fusion_interval_grows_with_f(self):
        intervals = figure1_intervals()
        fusions = [fuse(intervals, f) for f in (0, 1, 2)]
        assert fusions[0].width < fusions[1].width < fusions[2].width
        for smaller, larger in zip(fusions, fusions[1:]):
            assert larger.contains_interval(smaller)


class TestTheoremClaims:
    def test_theorem2_bound_for_optimal_attacks(self):
        correct = [Interval(-1, 1), Interval(-2, 1.5), Interval(-1.5, 3)]
        for width in (0.5, 2.0, 10.0):
            attacked_width = optimal_fusion_width(correct, [width], f=1)
            assert attacked_width <= theorem2_bound(correct) + 1e-9

    def test_theorem3_largest_interval_attack_changes_nothing(self):
        widths = [1.0, 3.0, 6.0]
        baseline = worst_case_no_attack(widths, f=1, resolution=0.5)
        attacked = worst_case_with_attack(widths, [2], f=1, resolution=0.5)
        assert attacked.width == pytest.approx(baseline.width, abs=1e-9)

    def test_theorem4_smallest_interval_attack_at_least_as_strong_as_any(self):
        widths = [1.0, 3.0, 6.0]
        smallest = worst_case_with_attack(widths, [0], f=1, resolution=0.5)
        for other in ([1], [2]):
            result = worst_case_with_attack(widths, other, f=1, resolution=0.5)
            assert smallest.width >= result.width - 1e-9


class TestTable1Shape:
    @pytest.mark.parametrize("entry", TABLE1_CONFIGURATIONS[:4], ids=lambda e: f"n{e.n}-fa{e.fa}")
    def test_descending_never_better_for_the_system(self, entry):
        config = ScheduleComparisonConfig(lengths=entry.lengths, fa=entry.fa, positions=3)
        comparison = compare_schedules(config, [AscendingSchedule(), DescendingSchedule()])
        assert (
            comparison.expected_width("descending")
            >= comparison.expected_width("ascending") - 1e-9
        )

    @pytest.mark.parametrize("conservative", [False, True], ids=["faithful", "conservative"])
    @pytest.mark.parametrize("entry", TABLE1_CONFIGURATIONS, ids=[f"row{i + 1}" for i in range(len(TABLE1_CONFIGURATIONS))])
    def test_descending_never_better_exhaustive_every_row(self, entry, conservative):
        # Both expectation-attacker variants on all eight rows, at the
        # coarsest exhaustive grid (two positions per sensor).
        comparison = compare_schedules(
            entry.comparison_config(positions=2),
            [AscendingSchedule(), DescendingSchedule()],
            policy_factory=lambda: ExpectationPolicy(conservative=conservative),
        )
        assert (
            comparison.expected_width("descending")
            >= comparison.expected_width("ascending") - 1e-9
        )

    @pytest.mark.parametrize("attack, samples", [("stretch", 2_000), ("expectation", 100)])
    def test_descending_never_better_monte_carlo_every_row(self, attack, samples):
        # Every row on the batch engine, under the greedy stretch attacker and
        # the exact problem (2) attacker: the shape holds up to a few standard
        # errors of Monte-Carlo noise (row 5's two schedules tie), and the
        # stealthy attacker is never detected.
        tolerance = max(0.05, 10.0 / math.sqrt(samples))
        for entry in TABLE1_CONFIGURATIONS:
            comparison = entry.engine_comparison(
                "batch", samples=samples, rng=np.random.default_rng(0), attack=attack
            )
            assert (
                comparison.expected_width("descending")
                >= comparison.expected_width("ascending") - tolerance
            )
            assert comparison.row("ascending").detected_fraction == 0.0
            assert comparison.row("descending").detected_fraction == 0.0

    def test_gap_widens_with_length_disparity(self):
        # The paper notes the two schedules are close for comparable lengths
        # and drift apart when lengths differ a lot.
        similar = ScheduleComparisonConfig(lengths=(5.0, 11.0, 11.0), fa=1, positions=3)
        disparate = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1, positions=3)
        schedules = [AscendingSchedule(), DescendingSchedule()]
        gap_similar = (
            compare_schedules(similar, schedules).expected_width("descending")
            - compare_schedules(similar, schedules).expected_width("ascending")
        )
        gap_disparate = (
            compare_schedules(disparate, schedules).expected_width("descending")
            - compare_schedules(disparate, schedules).expected_width("ascending")
        )
        assert gap_disparate >= gap_similar - 1e-9


class TestTable2Shape:
    def test_schedule_ordering_of_violations(self):
        config = CaseStudyConfig(n_steps=120, n_vehicles=2, seed=5)
        result = run_case_study(config)
        total = lambda name: (  # noqa: E731
            result.for_schedule(name).upper_violations + result.for_schedule(name).lower_violations
        )
        assert total("ascending") == 0
        assert total("descending") > 0
        assert total("descending") >= total("random") >= total("ascending")


class TestStealthInvariant:
    def test_expectation_attacker_is_never_detected_across_many_rounds(self):
        from repro.scheduling import RoundConfig, run_round

        rng = np.random.default_rng(0)
        policy = ExpectationPolicy(true_value_positions=2, placement_positions=2)
        for seed in range(30):
            local = np.random.default_rng(seed)
            true_value = float(local.uniform(-5, 5))
            widths = [0.5, 1.0, 2.0, 4.0]
            correct = []
            for width in widths:
                lo = true_value - width * float(local.uniform(0, 1))
                correct.append(Interval(lo, lo + width))
            # Ensure correctness (they all contain the true value by construction).
            assert all(s.contains(true_value) for s in correct)
            for schedule in (AscendingSchedule(), DescendingSchedule()):
                result = run_round(
                    correct,
                    RoundConfig(schedule=schedule, attacked_indices=(0,), policy=policy, f=1),
                    rng,
                )
                assert not result.attacker_detected
                assert result.fusion.contains(true_value)


class TestFaultBound:
    def test_larger_f_widens_fusion_and_keeps_the_true_value(self):
        # f = ceil(n/2) - 1 is the conservative choice: a larger f inflates
        # the fusion interval, and with f >= fa it always contains the truth.
        suite = SensorSuite(sensors_from_widths([0.5, 1.0, 2.0, 4.0, 8.0], noise=UniformNoise()))
        mean_width = {}
        for f in (0, 1, 2):
            rng = np.random.default_rng(f)
            attack_rng = np.random.default_rng(100 + f)
            widths = []
            for _ in range(100):
                correct = [reading.interval for reading in suite.measure_all(0.0, rng)]
                if f == 0:
                    # No tolerance for compromised sensors: fuse the raw readings.
                    fusion = fuse(correct, 0)
                else:
                    policy = ExpectationPolicy(true_value_positions=2, placement_positions=2)
                    config = RoundConfig(
                        schedule=DescendingSchedule(), attacked_indices=(0,), policy=policy, f=f
                    )
                    fusion = run_round(correct, config, attack_rng).fusion
                    assert fusion.contains(0.0)
                widths.append(fusion.width)
            mean_width[f] = float(np.mean(widths))
        assert mean_width[0] <= mean_width[1] <= mean_width[2] + 1e-9
