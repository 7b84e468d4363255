"""Unit tests for the Table I schedule-comparison machinery."""

import numpy as np
import pytest

from repro.attack import (
    ExpectationPolicy,
    GreedyExtendPolicy,
    OmniscientPolicy,
    RandomAdmissiblePolicy,
    TruthfulPolicy,
)
from repro.core import ExperimentError
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    ScheduleComparisonConfig,
    compare_schedules,
    default_attacked_indices,
    expected_fusion_width_exhaustive,
    expected_fusion_width_monte_carlo,
)


class TestConfig:
    def test_defaults(self):
        config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1)
        assert config.n == 3
        assert config.resolved_f == 1
        assert config.resolved_attacked == (0,)

    def test_attacked_defaults_to_most_precise(self):
        config = ScheduleComparisonConfig(lengths=(17.0, 5.0, 11.0, 5.0, 8.0), fa=2)
        assert config.resolved_attacked == (1, 3)

    def test_explicit_attacked_indices(self):
        config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1, attacked_indices=(2,))
        assert config.resolved_attacked == (2,)

    def test_fa_bounds_validated(self):
        with pytest.raises(ExperimentError):
            ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=2)

    def test_attacked_count_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1, attacked_indices=(0, 1))

    def test_empty_lengths_rejected(self):
        with pytest.raises(ExperimentError):
            ScheduleComparisonConfig(lengths=(), fa=0)

    def test_default_attacked_indices_helper(self):
        assert default_attacked_indices([3.0, 1.0, 2.0], 2) == (1, 2)


class TestEstimators:
    def setup_method(self):
        self.config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1, positions=3)

    def test_exhaustive_combination_count(self):
        row = expected_fusion_width_exhaustive(self.config, AscendingSchedule(), TruthfulPolicy())
        assert row.combinations == 27

    def test_truthful_attacker_schedule_invariant(self):
        asc = expected_fusion_width_exhaustive(self.config, AscendingSchedule(), TruthfulPolicy())
        desc = expected_fusion_width_exhaustive(self.config, DescendingSchedule(), TruthfulPolicy())
        assert asc.expected_width == pytest.approx(desc.expected_width)

    def test_attacker_never_detected(self):
        row = expected_fusion_width_exhaustive(self.config, DescendingSchedule(), GreedyExtendPolicy())
        assert row.detected_fraction == 0.0

    def test_monte_carlo_close_to_exhaustive_for_truthful(self):
        exhaustive = expected_fusion_width_exhaustive(self.config, AscendingSchedule(), TruthfulPolicy())
        monte_carlo = expected_fusion_width_monte_carlo(
            self.config, AscendingSchedule(), TruthfulPolicy(), samples=800, rng=np.random.default_rng(0)
        )
        assert monte_carlo.expected_width == pytest.approx(exhaustive.expected_width, rel=0.15)

    def test_attacker_strength_ordering(self):
        # Under Descending the attackers order from harmless to omniscient:
        # truthful <= greedy <= expectation (faithful) <= omniscient, the
        # conservative expectation attacker is no stronger than the faithful
        # one, and every stealthy attacker sits between the two extremes.
        config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1, positions=4)
        attackers = {
            "truthful": TruthfulPolicy(),
            "random": RandomAdmissiblePolicy(),
            "greedy": GreedyExtendPolicy(),
            "conservative": ExpectationPolicy(conservative=True),
            "faithful": ExpectationPolicy(),
            "omniscient": OmniscientPolicy(),
        }
        widths = {
            name: expected_fusion_width_exhaustive(
                config,
                DescendingSchedule(),
                policy,
                rng=np.random.default_rng(0),
                give_oracle=name == "omniscient",
            ).expected_width
            for name, policy in attackers.items()
        }
        assert widths["truthful"] <= widths["greedy"] + 1e-9
        assert widths["greedy"] <= widths["faithful"] + 1e-9
        assert widths["conservative"] <= widths["faithful"] + 1e-9
        assert widths["faithful"] <= widths["omniscient"] + 1e-6
        for name in ("random", "greedy", "faithful"):
            assert widths["truthful"] - 1e-9 <= widths[name] <= widths["omniscient"] + 1e-6

    def test_monte_carlo_needs_positive_samples(self):
        with pytest.raises(ExperimentError):
            expected_fusion_width_monte_carlo(self.config, AscendingSchedule(), TruthfulPolicy(), samples=0)


class TestCompareSchedules:
    def test_rows_and_lookup(self):
        config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1, positions=3)
        comparison = compare_schedules(config, [AscendingSchedule(), DescendingSchedule()])
        assert len(comparison.rows) == 2
        assert comparison.row("ascending").schedule_name == "ascending"
        with pytest.raises(ExperimentError):
            comparison.row("random")

    def test_descending_not_better_for_the_system(self):
        # The paper's Table I observation: the expected length under the
        # Descending schedule is never smaller than under Ascending.
        config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1, positions=3)
        comparison = compare_schedules(config, [AscendingSchedule(), DescendingSchedule()])
        assert comparison.expected_width("descending") >= comparison.expected_width("ascending") - 1e-9

    def test_unknown_method_rejected(self):
        config = ScheduleComparisonConfig(lengths=(5.0, 11.0), fa=0, positions=2)
        with pytest.raises(ExperimentError):
            compare_schedules(config, [AscendingSchedule()], method="magic")
