"""Unit tests for the trust-aware schedule (the paper's discussion section)."""

import numpy as np
import pytest

from repro.attack import ExpectationPolicy
from repro.core import ScheduleError
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    ScheduleComparisonConfig,
    TrustAwareSchedule,
    expected_fusion_width_exhaustive,
)

WIDTHS = [0.2, 0.2, 1.0, 2.0]  # encoder, encoder, GPS, camera


class TestTrustAwareSchedule:
    def test_most_spoofable_sensor_goes_first(self):
        # GPS and camera are easy to spoof, encoders are hard, and an IMU-like
        # hard-to-spoof sensor would be last.
        schedule = TrustAwareSchedule(spoofability=(0.1, 0.1, 1.0, 0.8))
        order = schedule.order(WIDTHS, np.random.default_rng(0))
        assert order[0] == 2  # GPS first (most spoofable)
        assert order[1] == 3  # camera next
        assert set(order[2:]) == {0, 1}  # trusted encoders last

    def test_uniform_spoofability_degenerates_to_ascending(self):
        schedule = TrustAwareSchedule(spoofability=(1.0, 1.0, 1.0, 1.0))
        rng = np.random.default_rng(0)
        assert schedule.order(WIDTHS, rng) == AscendingSchedule().order(WIDTHS, rng)

    def test_known_attacked_sensor_first(self):
        # "If it is known which sensor is being attacked then any schedule
        # that places that sensor first would result in a smaller fusion
        # interval" — give the suspected sensor the highest score.
        schedule = TrustAwareSchedule(spoofability=(5.0, 0.0, 0.0, 0.0))
        order = schedule.order(WIDTHS, np.random.default_rng(0))
        assert order[0] == 0

    def test_attacked_gps_first_beats_both_precision_orders(self):
        # The discussion section's advice with the GPS under attack: placing
        # the spoofable sensor first is never worse than either precision-only
        # order.  Ascending sends the GPS after both encoders, so it is the
        # attacker's best order here.
        config = ScheduleComparisonConfig(lengths=tuple(WIDTHS), fa=1, attacked_indices=(2,), positions=4)
        widths = {
            schedule.name: expected_fusion_width_exhaustive(
                config, schedule, ExpectationPolicy(), rng=np.random.default_rng(0)
            ).expected_width
            for schedule in (
                DescendingSchedule(),
                AscendingSchedule(),
                TrustAwareSchedule(spoofability=(0.1, 0.1, 1.0, 0.8)),
            )
        }
        assert widths["trust-aware"] <= widths["ascending"] + 1e-9
        assert widths["trust-aware"] <= widths["descending"] + 1e-9

    def test_is_a_permutation(self):
        schedule = TrustAwareSchedule(spoofability=(0.3, 0.9, 0.1, 0.5))
        order = schedule.order(WIDTHS, np.random.default_rng(0))
        assert sorted(order) == list(range(len(WIDTHS)))

    def test_length_mismatch_rejected(self):
        schedule = TrustAwareSchedule(spoofability=(1.0, 1.0))
        with pytest.raises(ScheduleError):
            schedule.order(WIDTHS, np.random.default_rng(0))

    def test_negative_scores_rejected(self):
        with pytest.raises(ScheduleError):
            TrustAwareSchedule(spoofability=(1.0, -0.1))

    def test_empty_scores_rejected(self):
        with pytest.raises(ScheduleError):
            TrustAwareSchedule(spoofability=())

    def test_name(self):
        assert TrustAwareSchedule(spoofability=(1.0,)).name == "trust-aware"
