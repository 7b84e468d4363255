"""Unit tests for :func:`repro.engine.base.rounds_results`.

The builder is the result path of every engine: it splits one simulated
batch into a :class:`~repro.engine.base.RoundsResult` per budget, blanks the
broadcasts of empty-fusion rows and folds the run's counters into the live
telemetry scope.  These tests drive it on a hand-built
:class:`~repro.batch.rounds.BatchRoundResult`, so each rule is checked apart
from any simulation body.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.batch.fuse import BatchFusion
from repro.batch.rounds import BatchRoundConfig, BatchRoundResult, prepare_rounds
from repro.channel import ChannelSpec
from repro.channel.model import ChannelRealization
from repro.engine import RoundsResult
from repro.engine.base import rounds_results
from repro.scheduling.schedule import FixedSchedule

ROWS, SENSORS = 6, 3
#: Rows 1 and 4 lost their fusion; the rest are valid.
VALID = np.array([True, False, True, True, False, True])


def batch_result(valid=VALID, channel=None):
    lo = np.arange(ROWS, dtype=float)
    broadcast_lo = np.arange(ROWS * SENSORS, dtype=float).reshape(ROWS, SENSORS)
    flagged = np.zeros((ROWS, SENSORS), dtype=bool)
    flagged[2, 1] = flagged[5, 0] = True
    prepared = prepare_rounds(
        broadcast_lo,
        broadcast_lo + 1.0,
        BatchRoundConfig(schedule=FixedSchedule(tuple(range(SENSORS))), attacked_indices=(0,)),
        np.random.default_rng(0),
    )
    return BatchRoundResult(
        prepared=dataclasses.replace(prepared, channel=channel),
        broadcast_lo=broadcast_lo,
        broadcast_hi=broadcast_lo + 1.0,
        fusion=BatchFusion(
            lo=np.where(valid, lo, np.nan),
            hi=np.where(valid, lo + 0.5, np.nan),
            valid=np.asarray(valid, dtype=bool),
        ),
        flagged=flagged,
    )


def channel_realization():
    return ChannelRealization(
        spec=ChannelSpec(loss=0.1),
        lost=np.zeros((ROWS, SENSORS), dtype=bool),
        arrival=np.tile(np.arange(SENSORS), (ROWS, 1)),
        received=np.ones((ROWS, SENSORS), dtype=bool),
        dropped=np.array([0, 1, 2, 0, 1, 0]),
        retransmits=np.array([1, 0, 0, 2, 0, 1]),
    )


def counters(session):
    return {
        (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
        for row in session.snapshot()["metrics"]["counters"]
    }


class TestSplit:
    def test_budgets_take_consecutive_rows(self):
        result = batch_result()
        split = rounds_results("batch", "ascending", result, [2, 3, 1])
        assert [item.samples for item in split] == [2, 3, 1]
        np.testing.assert_array_equal(
            np.concatenate([item.fusion_lo for item in split]), result.fusion.lo
        )
        np.testing.assert_array_equal(split[1].valid, VALID[2:5])
        np.testing.assert_array_equal(split[2].flagged, result.flagged[5:])

    def test_every_item_carries_the_schedule_name(self):
        split = rounds_results("scalar", "descending", batch_result(), [4, 2])
        assert [item.schedule_name for item in split] == ["descending", "descending"]

    def test_one_budget_covers_the_whole_batch(self):
        result = batch_result()
        (item,) = rounds_results("batch", "ascending", result, [ROWS])
        np.testing.assert_array_equal(item.attacker_detected, result.attacker_detected)
        np.testing.assert_array_equal(item.flagged, result.flagged)
        assert item.samples == ROWS


class TestEmptyFusionRows:
    def test_invalid_rows_get_nan_broadcasts(self):
        result = batch_result()
        (item,) = rounds_results("batch", "ascending", result, [ROWS])
        assert np.isnan(item.broadcast_lo[~VALID]).all()
        assert np.isnan(item.broadcast_hi[~VALID]).all()
        np.testing.assert_array_equal(item.broadcast_lo[VALID], result.broadcast_lo[VALID])
        np.testing.assert_array_equal(item.broadcast_hi[VALID], result.broadcast_hi[VALID])

    def test_simulated_arrays_are_not_mutated(self):
        result = batch_result()
        before_lo, before_hi = result.broadcast_lo.copy(), result.broadcast_hi.copy()
        rounds_results("batch", "ascending", result, [3, 3])
        np.testing.assert_array_equal(result.broadcast_lo, before_lo)
        np.testing.assert_array_equal(result.broadcast_hi, before_hi)

    def test_all_valid_batch_keeps_every_broadcast(self):
        result = batch_result(valid=np.ones(ROWS, dtype=bool))
        split = rounds_results("batch", "ascending", result, [1, 5])
        assert not any(np.isnan(item.broadcast_lo).any() for item in split)
        np.testing.assert_array_equal(
            np.concatenate([item.broadcast_hi for item in split]), result.broadcast_hi
        )


class TestChannelCounts:
    def test_without_a_channel_the_counts_are_none(self):
        for item in rounds_results("batch", "ascending", batch_result(), [3, 3]):
            assert item.channel_dropped is None
            assert item.channel_retransmits is None

    def test_channel_counts_are_split_per_budget(self):
        channel = channel_realization()
        split = rounds_results("batch", "ascending", batch_result(channel=channel), [2, 4])
        np.testing.assert_array_equal(split[0].channel_dropped, channel.dropped[:2])
        np.testing.assert_array_equal(split[1].channel_retransmits, channel.retransmits[2:])


class TestTelemetry:
    def test_samples_and_channel_losses_are_counted(self):
        with obs.collect() as session:
            rounds_results("scalar", "ascending", batch_result(channel=channel_realization()), [2, 4])
        got = counters(session)
        engine = (("engine", "scalar"),)
        assert got[("repro_engine_samples_total", engine)] == ROWS
        assert got[("repro_channel_dropped_total", engine)] == 4
        assert got[("repro_channel_retransmits_total", engine)] == 4

    def test_memo_hits_are_counted_and_zero_tallies_skipped(self):
        class Memo:
            def stats(self):
                return {"hits": 5, "misses": 0, "entries": 1}

        with obs.collect() as session:
            rounds_results("scalar", "ascending", batch_result(), [ROWS], Memo())
        memo_rows = {
            labels: value
            for (name, labels), value in counters(session).items()
            if name == "repro_expectation_memo_total"
        }
        assert memo_rows == {(("outcome", "hit"),): 5}

    def test_memo_is_not_read_while_telemetry_is_off(self):
        class Memo:
            def stats(self):
                raise AssertionError("memo statistics read outside a collect scope")

        (item,) = rounds_results("scalar", "ascending", batch_result(), [ROWS], Memo())
        assert item.samples == ROWS


def test_rounds_result_requires_the_per_sensor_arrays():
    with pytest.raises(TypeError, match="broadcast_lo"):
        RoundsResult(
            schedule_name="ascending",
            fusion_lo=np.zeros(4),
            fusion_hi=np.ones(4),
            valid=np.ones(4, dtype=bool),
            attacker_detected=np.zeros(4, dtype=bool),
        )
