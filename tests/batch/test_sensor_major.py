"""Sensor-major round buffers and the column-wise reductions over them.

Both round programs keep the broadcasts in C-contiguous ``(n, B)`` buffers
and hand fusion, detection and the result their ``(B, n)`` ``.T`` views.
The per-round reductions on the shard path (``attacker_detected``, the Δ
prologue, the runner's stats row, bound validation) then run over whole
columns.  This module pins the layout and pins every reduction to the
row-wise formula it replaced, bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.batch.fuse as fuse_module
from repro.batch.fuse import _COUNTS_MIN_ROWS, batch_fuse
from repro.batch.rounds import (
    ActiveStretchBatchAttacker,
    BatchRoundConfig,
    BatchTransientFaults,
    TruthfulBatchAttacker,
    batch_rounds,
    prepare_rounds,
    sample_correct_bounds,
    slot_loop_rounds,
    transmission_rounds,
)
from repro.core.exceptions import FusionError
from repro.engine.base import rounds_results
from repro.runner.runner import comparison_stats_row
from repro.scheduling.schedule import AscendingSchedule, DescendingSchedule, RandomSchedule

SCHEDULES = (AscendingSchedule(), DescendingSchedule(), RandomSchedule())


@st.composite
def round_batches(draw):
    """A simulated batch: static sets or per-round masks, with or without faults."""
    n = draw(st.integers(2, 7))
    lengths = tuple(draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 5.0, 8.0]), min_size=n, max_size=n)))
    samples = draw(st.sampled_from([40, _COUNTS_MIN_ROWS + 16]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    per_round = draw(st.booleans())
    if per_round:
        mask = rng.random((samples, n)) < draw(st.sampled_from([0.0, 0.2, 0.4]))
        attacked = {"attacked_mask": mask}
    else:
        fa = draw(st.integers(0, (n - 1) // 2))
        attacked = {"attacked_indices": tuple(sorted(rng.choice(n, fa, replace=False).tolist()))}
    probability = draw(st.sampled_from([0.0, 0.3, 0.9]))
    config = BatchRoundConfig(
        schedule=draw(st.sampled_from(SCHEDULES)),
        attacker=draw(
            st.sampled_from(
                [ActiveStretchBatchAttacker(side=1), ActiveStretchBatchAttacker(side=-1), TruthfulBatchAttacker()]
            )
        ),
        faults=BatchTransientFaults(probability) if probability else None,
        **attacked,
    )
    lowers, uppers = sample_correct_bounds(lengths, 0.0, samples, rng)
    return batch_rounds(lowers, uppers, config, rng)


@given(round_batches())
@settings(max_examples=60, deadline=None)
def test_column_reductions_match_row_formulas(result):
    flagged = np.asarray(result.flagged)
    assert np.array_equal(
        result.attacker_detected, (flagged & result.attacked_mask).any(axis=1)
    )

    (rounds,) = rounds_results("batch", "schedule", result, [result.batch])
    valid = rounds.valid
    row = comparison_stats_row(rounds)
    assert row["flagged_counts"] == [int(count) for count in rounds.flagged[valid].sum(axis=0)]
    assert np.float64(row["width_sum"]).tobytes() == np.float64(rounds.widths[valid].sum()).tobytes()
    assert row["detected"] == int(np.count_nonzero((flagged & result.attacked_mask).any(axis=1)))


@given(st.integers(1, 9), st.data())
@settings(max_examples=40, deadline=None)
def test_attacker_detected_ors_every_attacked_column(n, data):
    """Arbitrary flags (the stretch attacker is rarely flagged, so the
    simulated property above seldom sees attacked sensors flagged)."""
    attacked = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), max_size=n))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    config = BatchRoundConfig(schedule=AscendingSchedule(), attacked_indices=attacked)
    lowers, uppers = sample_correct_bounds(np.arange(1.0, n + 1), 0.0, 64, rng)
    result = batch_rounds(lowers, uppers, config, rng)
    flagged = np.ascontiguousarray((rng.random((64, n)) < 0.2).T).T
    result = dataclasses.replace(result, flagged=flagged)
    assert np.array_equal(result.attacker_detected, (flagged & result.attacked_mask).any(axis=1))


def test_faults_leave_invalid_rows_for_the_property():
    """The fault strategy above does reach empty fusions (invalid rows)."""
    config = BatchRoundConfig(
        schedule=AscendingSchedule(),
        attacked_indices=(0,),
        attacker=ActiveStretchBatchAttacker(),
        faults=BatchTransientFaults(0.9),
    )
    rng = np.random.default_rng(5)
    result = batch_rounds(*sample_correct_bounds((1.0, 2.0, 3.0), 0.0, 400, rng), config, rng)
    assert 0 < np.count_nonzero(~result.fusion.valid) < result.batch


def test_prepare_takes_delta_over_the_attacked_columns():
    rng = np.random.default_rng(11)
    lowers, uppers = sample_correct_bounds((2.0, 3.0, 5.0, 8.0, 9.0), 0.0, 500, rng)
    attacked = (0, 2, 4)
    prepared = prepare_rounds(
        lowers, uppers, BatchRoundConfig(schedule=AscendingSchedule(), attacked_indices=attacked), rng
    )
    assert np.array_equal(prepared.delta_lo, lowers[:, list(attacked)].max(axis=1))
    assert np.array_equal(prepared.delta_hi, uppers[:, list(attacked)].min(axis=1))
    assert prepared.any_attacked.shape == (500,) and prepared.any_attacked.all()
    honest = prepare_rounds(lowers, uppers, BatchRoundConfig(schedule=AscendingSchedule()), rng)
    assert not honest.any_attacked.any()


class TestLayout:
    @pytest.fixture
    def counted_bounds(self, monkeypatch):
        """Record the wide bounds every counts-kernel call receives."""
        seen = []
        original = fuse_module.grid_extremes

        def spy(narrow_lo, narrow_hi, wide_lo, wide_hi, *args, **kwargs):
            seen.append((wide_lo, wide_hi))
            return original(narrow_lo, narrow_hi, wide_lo, wide_hi, *args, **kwargs)

        monkeypatch.setattr(fuse_module, "grid_extremes", spy)
        return seen

    @staticmethod
    def prepared(config, samples=2 * _COUNTS_MIN_ROWS):
        rng = np.random.default_rng(3)
        lowers, uppers = sample_correct_bounds((1.0, 2.0, 3.0, 4.0, 5.0), 0.0, samples, rng)
        return prepare_rounds(lowers, uppers, config, rng)

    @pytest.mark.parametrize("schedule", [AscendingSchedule(), DescendingSchedule()])
    def test_counts_kernel_reads_sensor_major_without_a_copy(self, counted_bounds, schedule):
        config = BatchRoundConfig(
            schedule=schedule, attacked_indices=(1, 3), attacker=ActiveStretchBatchAttacker()
        )
        prepared = self.prepared(config)
        transmission_rounds(prepared, config)
        fusion_calls = [bounds for bounds in counted_bounds if bounds[0].shape == (5, 1, prepared.shape[0])]
        assert len(fusion_calls) == 1
        for wide_lo, wide_hi in counted_bounds:
            assert wide_lo.flags.c_contiguous and wide_hi.flags.c_contiguous

    @pytest.mark.parametrize("program", ["transmission", "slot loop"])
    def test_results_are_views_of_sensor_major_buffers(self, program):
        config = BatchRoundConfig(
            schedule=AscendingSchedule(), attacked_indices=(0,), attacker=ActiveStretchBatchAttacker()
        )
        prepared = self.prepared(config)
        if program == "transmission":
            result = transmission_rounds(prepared, config)
        else:
            result = slot_loop_rounds(prepared, config, np.random.default_rng(0))
        for array in (result.broadcast_lo, result.broadcast_hi, result.flagged):
            assert array.shape == prepared.shape
            assert array.T.flags.c_contiguous


class TestValidateBounds:
    GOOD_LO = np.array([[0.0, 1.0, 2.0], [0.5, 0.5, -1.0]])
    GOOD_HI = np.array([[1.0, 1.0, 4.0], [2.0, 0.5, 1.0]])

    @pytest.mark.parametrize(
        "entry, value",
        [
            ("lo", np.nan),
            ("hi", np.nan),
            ("lo", np.inf),
            ("lo", -np.inf),
            ("hi", np.inf),
            ("hi", -np.inf),
            ("lo", 3.0),  # hi < lo
        ],
    )
    @pytest.mark.parametrize("layout", ["C", "sensor-major"])
    def test_bad_entries_are_rejected(self, entry, value, layout):
        lo, hi = self.GOOD_LO.copy(), self.GOOD_HI.copy()
        (lo if entry == "lo" else hi)[1, 1] = value
        if layout == "sensor-major":
            lo, hi = np.ascontiguousarray(lo.T).T, np.ascontiguousarray(hi.T).T
        with pytest.raises(FusionError, match="finite with uppers >= lowers"):
            batch_fuse(lo, hi, 0)

    def test_good_bounds_pass_in_both_layouts(self):
        row_major = batch_fuse(self.GOOD_LO, self.GOOD_HI, 1)
        lo, hi = np.ascontiguousarray(self.GOOD_LO.T).T, np.ascontiguousarray(self.GOOD_HI.T).T
        sensor_major = batch_fuse(lo, hi, 1)
        np.testing.assert_array_equal(row_major.lo, sensor_major.lo)
        np.testing.assert_array_equal(row_major.hi, sensor_major.hi)
