"""Unit tests for windowed detection and the fault-tolerant pipeline."""

import numpy as np
import pytest

from repro.core import (
    FusionError,
    Interval,
    WindowedDetector,
    WindowedFusionPipeline,
)
from repro.sensors import FaultySensor, SensorSuite, TransientFaultModel, sensors_from_widths


class TestWindowedDetector:
    def test_parameter_validation(self):
        with pytest.raises(FusionError):
            WindowedDetector(0, 5, 1)
        with pytest.raises(FusionError):
            WindowedDetector(3, 0, 0)
        with pytest.raises(FusionError):
            WindowedDetector(3, 5, 6)

    def test_flag_length_validated(self):
        detector = WindowedDetector(3, 5, 1)
        with pytest.raises(FusionError):
            detector.update([True, False])

    def test_single_flag_within_budget_not_discarded(self):
        detector = WindowedDetector(2, window=5, max_flags=1)
        assert detector.update([True, False]) == frozenset()
        assert detector.flag_count(0) == 1

    def test_exceeding_budget_discards(self):
        detector = WindowedDetector(2, window=5, max_flags=1)
        detector.update([True, False])
        discarded = detector.update([True, False])
        assert discarded == frozenset({0})

    def test_flags_age_out_of_window(self):
        detector = WindowedDetector(1, window=3, max_flags=1)
        detector.update([True])
        detector.update([False])
        detector.update([False])
        # The original flag has aged out, so a new one stays within budget.
        assert detector.update([True]) == frozenset()

    def test_discard_is_permanent(self):
        detector = WindowedDetector(1, window=2, max_flags=0)
        assert detector.update([True]) == frozenset({0})
        # Later clean rounds do not rehabilitate the sensor.
        assert detector.update([False]) == frozenset({0})

    def test_zero_budget_discards_immediately(self):
        detector = WindowedDetector(3, window=4, max_flags=0)
        assert detector.update([False, True, False]) == frozenset({1})

    def test_reset(self):
        detector = WindowedDetector(1, window=2, max_flags=0)
        detector.update([True])
        detector.reset()
        assert detector.discarded == frozenset()
        assert detector.flag_count(0) == 0


class TestWindowedFusionPipeline:
    def _round(self, spoof: bool) -> list[Interval]:
        honest = [Interval(9.9, 10.1), Interval(9.7, 10.3), Interval(9.5, 10.5)]
        attacker = Interval(20.0, 21.0) if spoof else Interval(9.8, 10.2)
        return honest + [attacker]

    def test_input_length_validated(self):
        pipeline = WindowedFusionPipeline(4, window=3, max_flags=1)
        with pytest.raises(FusionError):
            pipeline.process_round([Interval(0, 1)])

    def test_clean_rounds_do_not_discard(self):
        pipeline = WindowedFusionPipeline(4, window=3, max_flags=1)
        for _ in range(5):
            outcome = pipeline.process_round(self._round(spoof=False))
            assert outcome.discarded_indices == ()
            assert outcome.fusion.contains(10.0)

    def test_persistent_spoofer_gets_discarded(self):
        pipeline = WindowedFusionPipeline(4, window=4, max_flags=1)
        outcomes = [pipeline.process_round(self._round(spoof=True)) for _ in range(3)]
        assert outcomes[-1].is_discarded(3)
        # Honest sensors are never discarded.
        assert all(not outcomes[-1].is_discarded(i) for i in range(3))

    def test_discarded_sensor_excluded_from_fusion(self):
        pipeline = WindowedFusionPipeline(4, window=4, max_flags=0)
        first = pipeline.process_round(self._round(spoof=True))
        assert first.is_discarded(3)
        second = pipeline.process_round(self._round(spoof=True))
        assert second.used_indices == (0, 1, 2)
        assert second.flagged_indices == ()

    def test_transient_fault_survives_window(self):
        pipeline = WindowedFusionPipeline(4, window=5, max_flags=2)
        pipeline.process_round(self._round(spoof=True))   # one glitch
        for _ in range(4):
            outcome = pipeline.process_round(self._round(spoof=False))
        assert outcome.discarded_indices == ()

    def test_too_few_remaining_sensors_is_an_error(self):
        pipeline = WindowedFusionPipeline(3, window=2, max_flags=0, min_sensors=3)
        honest = [Interval(9.9, 10.1), Interval(9.8, 10.2)]
        first = pipeline.process_round(honest + [Interval(30.0, 31.0)])
        assert first.is_discarded(2)
        # Only two sensors remain but the pipeline requires three.
        with pytest.raises(FusionError):
            pipeline.process_round(honest + [Interval(30.0, 31.0)])

    def test_fusion_widens_f_when_more_faults_than_assumed(self):
        # Two of four sensors glitch in the same round: the configured bound
        # (f = 1) leaves no point covered by three intervals, so the pipeline
        # widens the bound for that round instead of failing.
        pipeline = WindowedFusionPipeline(4, window=5, max_flags=2)
        outcome = pipeline.process_round(
            [Interval(9.9, 10.1), Interval(9.8, 10.2), Interval(20.0, 20.4), Interval(30.0, 30.4)]
        )
        assert outcome.effective_f == 2
        assert outcome.fusion.contains(10.0)
        assert outcome.flagged_indices == (2, 3)

    def test_effective_f_adapts_to_remaining_sensors(self):
        pipeline = WindowedFusionPipeline(5, window=2, max_flags=0, f=2)
        honest = [Interval(9.9, 10.1), Interval(9.8, 10.2), Interval(9.7, 10.3), Interval(9.6, 10.4)]
        spoof = Interval(30.0, 31.0)
        first = pipeline.process_round(honest + [spoof])
        assert first.is_discarded(4)
        # With only 4 sensors left the configured f=2 violates f < ceil(n/2);
        # the pipeline clamps it to 1 and keeps fusing.
        second = pipeline.process_round(honest + [spoof])
        assert second.fusion.contains(10.0)

    @staticmethod
    def _glitch_run(window: int, max_flags: int, rounds: int = 400) -> tuple[list[int], int | None]:
        """Honest sensors glitch with probability 2% per round; sensor 0
        persistently reports 10 above its reading.  Returns the honest
        sensors discarded and the round the spoofer was discarded in."""
        widths = [0.5, 1.0, 1.5, 2.0, 4.0]
        suite = SensorSuite(
            [FaultySensor(sensor, TransientFaultModel(probability=0.02)) for sensor in sensors_from_widths(widths)]
        )
        pipeline = WindowedFusionPipeline(len(widths), window=window, max_flags=max_flags)
        rng = np.random.default_rng(0)
        spoofer_discarded_at = None
        for round_index in range(rounds):
            intervals = [reading.interval for reading in suite.measure_all(10.0, rng)]
            intervals[0] = intervals[0].shift(10.0)
            outcome = pipeline.process_round(intervals)
            if spoofer_discarded_at is None and outcome.is_discarded(0):
                spoofer_discarded_at = round_index + 1
        return sorted(set(pipeline.detector.discarded) - {0}), spoofer_discarded_at

    def test_window_keeps_glitching_honest_sensors_and_catches_the_spoofer(self):
        # Memoryless detection (window 1, budget 0) discards honest sensors
        # after their first transient glitch; a window of 10 with budget 3
        # keeps them all.  Both catch the persistent spoofer quickly.
        memoryless_honest, memoryless_spoofer = self._glitch_run(window=1, max_flags=0)
        windowed_honest, windowed_spoofer = self._glitch_run(window=10, max_flags=3)
        assert memoryless_spoofer is not None and memoryless_spoofer <= 2
        assert windowed_spoofer is not None and windowed_spoofer <= 20
        assert len(memoryless_honest) > 0
        assert windowed_honest == []
