"""The batched round driver bit-matches the scalar round simulator.

The oracle is :func:`repro.scheduling.round.run_round` driving the scalar
:class:`repro.attack.stretch.ActiveStretchPolicy`; the batched path replays
identical correct readings through
:class:`repro.batch.rounds.ActiveStretchBatchAttacker` and must produce the
same broadcasts, fusion bounds, and detection flags for every round.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack import ActiveStretchPolicy
from repro.batch import (
    ActiveStretchBatchAttacker,
    BatchRoundConfig,
    BatchTransientFaults,
    TruthfulBatchAttacker,
    batch_orders,
    batch_rounds,
    sample_correct_bounds,
)
from repro.core import EmptyIntersectionError, Interval, ScheduleError, SensorError
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    FixedSchedule,
    RandomSchedule,
    RoundConfig,
    run_round,
)


def _sample_batch(lengths, batch, seed):
    rng = np.random.default_rng(seed)
    return sample_correct_bounds(lengths, 0.0, batch, rng)


def _assert_equivalent(lengths, schedule, attacked, f, side, batch=64, seed=11):
    lowers, uppers = _sample_batch(lengths, batch, seed)
    config = BatchRoundConfig(
        schedule=schedule,
        attacked_indices=attacked,
        attacker=ActiveStretchBatchAttacker(side=side),
        f=f,
    )
    result = batch_rounds(lowers, uppers, config, np.random.default_rng(0))
    n = len(lengths)
    for row in range(batch):
        intervals = [Interval(lowers[row, i], uppers[row, i]) for i in range(n)]
        scalar = run_round(
            intervals,
            RoundConfig(
                schedule=schedule,
                attacked_indices=attacked,
                policy=ActiveStretchPolicy(side=side),
                f=f,
            ),
            np.random.default_rng(0),
        )
        assert tuple(result.orders[row]) == scalar.order
        for i in range(n):
            assert result.broadcast_lo[row, i] == scalar.broadcast[i].lo
            assert result.broadcast_hi[row, i] == scalar.broadcast[i].hi
        assert result.fusion.valid[row]
        assert result.fusion.lo[row] == scalar.fusion.lo
        assert result.fusion.hi[row] == scalar.fusion.hi
        flagged_sensors = {scalar.order[slot] for slot in scalar.detection.flagged_indices}
        assert set(np.nonzero(result.flagged[row])[0]) == flagged_sensors
        assert bool(result.attacker_detected[row]) == scalar.attacker_detected


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize(
    "schedule",
    [AscendingSchedule(), DescendingSchedule(), FixedSchedule((2, 0, 3, 1, 4))],
    ids=lambda s: s.name,
)
def test_batch_rounds_bitmatch_scalar_fa1(schedule, side):
    _assert_equivalent((1.0, 2.0, 3.0, 4.0, 5.0), schedule, (0,), 2, side)


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize(
    "schedule",
    [AscendingSchedule(), DescendingSchedule(), FixedSchedule((2, 0, 3, 1, 4))],
    ids=lambda s: s.name,
)
def test_batch_rounds_bitmatch_scalar_fa2(schedule, side):
    _assert_equivalent((2.0, 3.0, 3.0, 6.0, 8.0), schedule, (0, 1), 2, side)


@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=3, max_size=7),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([1, -1]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_batch_rounds_bitmatch_scalar_random_configs(lengths, attacked_index, side, seed):
    lengths = tuple(lengths)
    n = len(lengths)
    attacked = (attacked_index % n,)
    schedule = AscendingSchedule() if seed % 2 else DescendingSchedule()
    _assert_equivalent(lengths, schedule, attacked, None, side, batch=8, seed=seed)


def test_truthful_attacker_and_no_attack_agree():
    lengths = (1.0, 2.0, 3.0)
    lowers, uppers = _sample_batch(lengths, 32, 5)
    rng = np.random.default_rng(0)
    truthful = batch_rounds(
        lowers,
        uppers,
        BatchRoundConfig(
            schedule=AscendingSchedule(), attacked_indices=(1,), attacker=TruthfulBatchAttacker()
        ),
        rng,
    )
    clean = batch_rounds(
        lowers, uppers, BatchRoundConfig(schedule=AscendingSchedule()), rng
    )
    np.testing.assert_array_equal(truthful.fusion.lo, clean.fusion.lo)
    np.testing.assert_array_equal(truthful.fusion.hi, clean.fusion.hi)
    assert not truthful.attacker_detected.any()
    assert not truthful.flagged.any()


def test_stretch_attacker_stays_undetected_under_random_schedule():
    lengths = (1.0, 2.0, 3.0, 4.0, 5.0)
    lowers, uppers = _sample_batch(lengths, 256, 9)
    config = BatchRoundConfig(
        schedule=RandomSchedule(),
        attacked_indices=(0, 1),
        attacker=ActiveStretchBatchAttacker(),
        f=2,
    )
    result = batch_rounds(lowers, uppers, config, np.random.default_rng(1))
    # Every order is a permutation and differs across rows with high probability.
    assert (np.sort(result.orders, axis=1) == np.arange(5)).all()
    assert len({tuple(row) for row in result.orders}) > 1
    assert result.fusion.valid.all()
    assert not result.attacker_detected.any()
    # The fusion still contains the true value: at most f sensors lie.
    assert (result.fusion.lo <= 0.0).all() and (result.fusion.hi >= 0.0).all()


def test_transient_faults_displace_and_get_flagged():
    lengths = (1.0, 1.0, 1.0, 1.0, 1.0)
    lowers, uppers = _sample_batch(lengths, 4000, 17)
    config = BatchRoundConfig(
        schedule=AscendingSchedule(),
        attacked_indices=(0,),
        attacker=TruthfulBatchAttacker(),
        f=2,
        faults=BatchTransientFaults(probability=0.1),
    )
    result = batch_rounds(lowers, uppers, config, np.random.default_rng(2))
    # Faults hit only honest sensors, at roughly the configured rate.
    assert not result.fault_mask[:, 0].any()
    rate = result.fault_mask[:, 1:].mean()
    assert 0.05 < rate < 0.15
    # A faulty interval never contains the truth; most get flagged.
    faulty_rows, faulty_cols = np.nonzero(result.fault_mask)
    assert (
        (result.broadcast_lo[faulty_rows, faulty_cols] > 0.0)
        | (result.broadcast_hi[faulty_rows, faulty_cols] < 0.0)
    ).all()
    assert result.fault_detected.any()
    # Rounds with at most f faults and a valid fusion still contain the truth.
    few_faults = result.fault_mask.sum(axis=1) <= 2
    ok = few_faults & result.fusion.valid
    assert (result.fusion.lo[ok] <= 0.0).all() and (result.fusion.hi[ok] >= 0.0).all()
    assert np.isfinite(result.estimates[result.fusion.valid]).all()


def test_sampled_rounds_contain_truth():
    config = BatchRoundConfig(schedule=DescendingSchedule())
    rng = np.random.default_rng(0)
    lowers, uppers = sample_correct_bounds((2.0, 3.0, 5.0), 7.5, 500, rng)
    result = batch_rounds(lowers, uppers, config, rng)
    assert result.batch == 500
    assert (result.correct_lo <= 7.5).all() and (result.correct_hi >= 7.5).all()
    assert result.fusion.valid.all()
    assert (result.fusion.lo <= 7.5).all() and (result.fusion.hi >= 7.5).all()
    assert not result.attacker_detected.any()


def test_batch_orders_fallback_for_custom_schedules():
    # A subclass overriding `order` must not be captured by the vectorized
    # ascending shortcut: exact type checks route it to the generic fallback.
    class ReversedSchedule(AscendingSchedule):
        def order(self, widths, rng):
            return tuple(reversed(range(len(widths))))

    widths = np.tile(np.array([1.0, 2.0, 3.0]), (4, 1))
    orders = batch_orders(ReversedSchedule(), widths, np.random.default_rng(0))
    assert (orders == np.array([2, 1, 0])).all()
    with pytest.raises(ScheduleError):
        batch_orders(FixedSchedule((0, 1)), widths, np.random.default_rng(0))
    with pytest.raises(ScheduleError):
        batch_orders(AscendingSchedule(), np.zeros((2, 2)), np.random.default_rng(0))


def test_validation_errors():
    lowers, uppers = _sample_batch((1.0, 2.0, 3.0), 4, 0)
    config = BatchRoundConfig(schedule=AscendingSchedule())
    with pytest.raises(ScheduleError):
        batch_rounds(lowers[0], uppers[0], config, np.random.default_rng(0))
    with pytest.raises(ScheduleError):
        batch_rounds(np.zeros((2, 0)), np.zeros((2, 0)), config, np.random.default_rng(0))
    with pytest.raises(ScheduleError):
        batch_rounds(
            lowers,
            uppers,
            BatchRoundConfig(schedule=AscendingSchedule(), attacked_indices=(5,)),
            np.random.default_rng(0),
        )
    disjoint_lo = lowers.copy()
    disjoint_lo[:, 0] += 100.0
    with pytest.raises(EmptyIntersectionError):
        batch_rounds(
            disjoint_lo,
            disjoint_lo + 0.5,
            BatchRoundConfig(schedule=AscendingSchedule(), attacked_indices=(0, 1)),
            np.random.default_rng(0),
        )
    with pytest.raises(ScheduleError):
        sample_correct_bounds((1.0, -2.0), 0.0, 5, np.random.default_rng(0))
    with pytest.raises(ScheduleError):
        sample_correct_bounds((1.0, 2.0), 0.0, 0, np.random.default_rng(0))
    with pytest.raises(ScheduleError):
        ActiveStretchBatchAttacker(side=2)
    with pytest.raises(SensorError):
        BatchTransientFaults(probability=1.5)
    with pytest.raises(SensorError):
        BatchTransientFaults(probability=0.1, min_offset_widths=0.5)
    with pytest.raises(SensorError):
        BatchTransientFaults(probability=0.1, max_offset_widths=0.5)
