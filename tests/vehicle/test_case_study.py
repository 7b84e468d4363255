"""Unit tests for the Table II case-study driver (reduced scale for speed)."""

import numpy as np
import pytest

from repro.core import ExperimentError
from repro.scheduling import AscendingSchedule, DescendingSchedule
from repro.vehicle import (
    CaseStudyConfig,
    ViolationStats,
    landshark_suite,
    run_case_study,
    run_case_study_for_schedule,
)


class TestCaseStudyConfig:
    def test_defaults_match_paper(self):
        config = CaseStudyConfig()
        assert config.target_speed == 10.0
        assert config.delta_upper == 0.5
        assert config.delta_lower == 0.5
        assert config.n_vehicles == 3

    def test_invalid_steps_rejected(self):
        with pytest.raises(ExperimentError):
            CaseStudyConfig(n_steps=0)

    def test_invalid_attacked_sensor_rejected(self):
        with pytest.raises(ExperimentError):
            CaseStudyConfig(attacked_sensor="everything")

    def test_platoon_config(self):
        platoon_config = CaseStudyConfig().platoon_config()
        assert platoon_config.n_vehicles == 3
        assert platoon_config.target_speed == 10.0


class TestViolationStats:
    def test_percentages(self):
        stats = ViolationStats("descending", rounds=200, upper_violations=34, lower_violations=30)
        assert stats.upper_percentage == pytest.approx(17.0)
        assert stats.lower_percentage == pytest.approx(15.0)

    def test_zero_rounds(self):
        stats = ViolationStats("ascending", rounds=0, upper_violations=0, lower_violations=0)
        assert stats.upper_percentage == 0.0
        assert stats.lower_percentage == 0.0


class TestCaseStudyRuns:
    def small_config(self, **overrides) -> CaseStudyConfig:
        defaults = dict(n_steps=40, n_vehicles=2, seed=11)
        defaults.update(overrides)
        return CaseStudyConfig(**defaults)

    def test_ascending_has_zero_violations(self):
        stats = run_case_study_for_schedule(
            self.small_config(), AscendingSchedule(), rng=np.random.default_rng(0)
        )
        assert stats.upper_violations == 0
        assert stats.lower_violations == 0

    def test_descending_has_violations(self):
        stats = run_case_study_for_schedule(
            self.small_config(n_steps=60), DescendingSchedule(), rng=np.random.default_rng(0)
        )
        assert stats.upper_violations + stats.lower_violations > 0

    def test_rounds_counted_per_vehicle(self):
        config = self.small_config(n_steps=25, n_vehicles=3)
        stats = run_case_study_for_schedule(config, AscendingSchedule(), rng=np.random.default_rng(0))
        assert stats.rounds == 25 * 3

    def test_full_case_study_ordering(self):
        config = self.small_config(n_steps=80, n_vehicles=2)
        result = run_case_study(config)
        ascending = result.for_schedule("ascending")
        descending = result.for_schedule("descending")
        random_row = result.for_schedule("random")
        total = lambda row: row.upper_violations + row.lower_violations  # noqa: E731
        # Table II shape: Ascending is safest, Descending is worst, Random in between.
        assert total(ascending) == 0
        assert total(descending) > total(random_row) >= total(ascending)

    def test_unknown_schedule_lookup_rejected(self):
        result = run_case_study(self.small_config(n_steps=5, n_vehicles=1), schedules=(AscendingSchedule(),))
        with pytest.raises(ExperimentError):
            result.for_schedule("descending")

    def test_most_precise_attack_is_stronger_than_random(self):
        base = dict(n_steps=60, n_vehicles=2, seed=3)
        random_cfg = CaseStudyConfig(attacked_sensor="random", **base)
        precise_cfg = CaseStudyConfig(attacked_sensor="most_precise", **base)
        random_stats = run_case_study_for_schedule(
            random_cfg, DescendingSchedule(), rng=np.random.default_rng(1)
        )
        precise_stats = run_case_study_for_schedule(
            precise_cfg, DescendingSchedule(), rng=np.random.default_rng(1)
        )
        total = lambda row: row.upper_violations + row.lower_violations  # noqa: E731
        assert total(precise_stats) >= total(random_stats)

    def test_attacked_sensor_choice_orders_violations(self):
        # Theorems 3 and 4 at the platoon level under Descending: no attack is
        # harmless, the least precise sensor (camera) does least damage and
        # the most precise (an encoder) the most.
        def total(attacked_sensor) -> int:
            config = CaseStudyConfig(n_steps=150, n_vehicles=2, seed=99, attacked_sensor=attacked_sensor)
            stats = run_case_study_for_schedule(config, DescendingSchedule(), rng=np.random.default_rng(1))
            return stats.upper_violations + stats.lower_violations

        camera = landshark_suite().index_of("camera")
        totals = [total(choice) for choice in ("none", camera, "random", "most_precise")]
        assert totals[0] == 0
        assert totals[1] <= totals[2] <= totals[3]
        assert totals[3] > 0
