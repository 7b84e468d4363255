"""The packed run_many seam: bit-identity, packing semantics, validation.

``Engine.run_many`` is the contract the serving layer's micro-batcher
stands on: coalescing requests into one engine pass must be *invisible* in
the results.  These tests pin that contract for every registered backend —
the packed vectorized implementations and the base-class reference loop
alike — plus the ``concat_prepared`` packing helper they are built from.
"""

import numpy as np
import pytest
from conformance import CONFORMANCE_MATRIX, assert_rounds_equal

from repro.batch.rounds import (
    BatchRoundConfig,
    TruthfulBatchAttacker,
    concat_prepared,
    prepare_rounds,
    sample_correct_bounds,
)
from repro.core.exceptions import ExperimentError, ScheduleError
from repro.engine import available_engines, get_engine
from repro.scheduling.comparison import ScheduleComparisonConfig
from repro.scheduling.schedule import AscendingSchedule, RandomSchedule

CONFIG = ScheduleComparisonConfig(lengths=(2.0, 3.0, 4.0, 5.0), fa=1)


def reference_loop(engine, config, schedule, attack, budgets, seeds, faults=None):
    return [
        engine.run_rounds(
            config, schedule, attack, faults, samples, np.random.default_rng(seed)
        )
        for samples, seed in zip(budgets, seeds)
    ]


def assert_results_equal(packed, reference):
    assert len(packed) == len(reference)
    for got, want in zip(packed, reference):
        assert got.schedule_name == want.schedule_name
        np.testing.assert_array_equal(got.fusion_lo, want.fusion_lo)
        np.testing.assert_array_equal(got.fusion_hi, want.fusion_hi)
        np.testing.assert_array_equal(got.valid, want.valid)
        np.testing.assert_array_equal(got.attacker_detected, want.attacker_detected)
        np.testing.assert_array_equal(got.broadcast_lo, want.broadcast_lo)
        np.testing.assert_array_equal(got.broadcast_hi, want.broadcast_hi)
        np.testing.assert_array_equal(got.flagged, want.flagged)


@pytest.mark.parametrize("engine_name", sorted(available_engines()))
@pytest.mark.parametrize("attack", ["stretch", "truthful"])
def test_run_many_bit_identical_to_solo_runs(engine_name, attack):
    engine = get_engine(engine_name)
    budgets = [40, 25, 40]
    seeds = [11, 22, 33]
    samples = 8 if engine_name == "scalar" else None
    if samples is not None:  # the scalar loop is slow; shrink, same contract
        budgets = [samples, samples - 3, samples]
    packed = engine.run_many(
        CONFIG,
        AscendingSchedule(),
        attack,
        budgets=budgets,
        rngs=[np.random.default_rng(seed) for seed in seeds],
    )
    reference = reference_loop(engine, CONFIG, AscendingSchedule(), attack, budgets, seeds)
    assert_results_equal(packed, reference)


@pytest.mark.parametrize("engine_name", ["batch"])
def test_run_many_random_schedule_bit_identical(engine_name):
    # RandomSchedule draws transmission orders from the per-item stream in
    # prepare_rounds — the packing must keep each item's draws separate.
    engine = get_engine(engine_name)
    budgets = [30, 50]
    seeds = [5, 7]
    packed = engine.run_many(
        CONFIG,
        RandomSchedule(),
        "stretch",
        budgets=budgets,
        rngs=[np.random.default_rng(seed) for seed in seeds],
    )
    reference = reference_loop(engine, CONFIG, RandomSchedule(), "stretch", budgets, seeds)
    assert_results_equal(packed, reference)


def test_run_many_single_item_matches_run_rounds():
    engine = get_engine("batch")
    packed = engine.run_many(
        CONFIG, AscendingSchedule(), budgets=[64], rngs=[np.random.default_rng(3)]
    )
    solo = engine.run_rounds(
        CONFIG, AscendingSchedule(), samples=64, rng=np.random.default_rng(3)
    )
    assert_results_equal(packed, [solo])


@pytest.mark.parametrize("engine_name", sorted(available_engines()))
def test_run_many_packs_items_with_empty_fusion_rows(engine_name):
    # Transient faults on five equal sensors with f=2 leave some rounds with
    # an empty fusion; the shared result builder blanks their broadcasts and
    # splits the packed rows, so each item must still equal its solo run.
    case = next(c for c in CONFORMANCE_MATRIX if c.label == "stretch-faults")
    engine = get_engine(engine_name)
    budgets = [24, 24, 24]
    seeds = [3, 2, 4]  # empty-fusion rows in the middle and last items only
    packed = engine.run_many(
        case.config(),
        case.schedule_object(),
        case.attack,
        case.faults(),
        budgets,
        [np.random.default_rng(seed) for seed in seeds],
    )
    assert [result.samples for result in packed] == budgets
    assert any(not result.valid.all() for result in packed)
    for result in packed:
        invalid = ~result.valid
        assert np.isnan(result.broadcast_lo[invalid]).all()
        assert np.isnan(result.broadcast_hi[invalid]).all()
        assert not result.flagged[invalid].any()
        assert not result.attacker_detected[invalid].any()
    reference = reference_loop(
        engine, case.config(), case.schedule_object(), case.attack, budgets, seeds, case.faults()
    )
    for got, want in zip(packed, reference):
        assert_rounds_equal(got, want)


@pytest.mark.parametrize("engine_name", sorted(available_engines()))
def test_run_many_rejects_bad_arguments(engine_name):
    engine = get_engine(engine_name)
    rng = np.random.default_rng(0)
    with pytest.raises(ExperimentError):
        engine.run_many(CONFIG, AscendingSchedule(), budgets=[], rngs=[])
    with pytest.raises(ExperimentError):
        engine.run_many(CONFIG, AscendingSchedule(), budgets=[10], rngs=None)
    with pytest.raises(ExperimentError):
        engine.run_many(
            CONFIG, AscendingSchedule(), budgets=[10, 10], rngs=[rng]
        )
    with pytest.raises(ExperimentError):
        engine.run_many(CONFIG, AscendingSchedule(), budgets=[0], rngs=[rng])


def _prepared(samples, seed, config=CONFIG, schedule=None):
    round_config = BatchRoundConfig(
        schedule=schedule or AscendingSchedule(),
        attacked_indices=config.resolved_attacked,
        attacker=TruthfulBatchAttacker(),
        f=config.resolved_f,
    )
    rng = np.random.default_rng(seed)
    lo, hi = sample_correct_bounds(config.lengths, config.true_value, samples, rng)
    return prepare_rounds(lo, hi, round_config, rng)


class TestConcatPrepared:
    def test_concatenates_rows_in_order(self):
        first = _prepared(10, 0)
        second = _prepared(15, 1)
        packed = concat_prepared([first, second])
        assert packed.shape == (25, len(CONFIG.lengths))
        np.testing.assert_array_equal(packed.correct_lo[:10], first.correct_lo)
        np.testing.assert_array_equal(packed.correct_lo[10:], second.correct_lo)
        np.testing.assert_array_equal(packed.orders[10:], second.orders)

    def test_single_item_passes_through(self):
        item = _prepared(12, 2)
        assert concat_prepared([item]) is item

    def test_rejects_empty(self):
        with pytest.raises(ScheduleError):
            concat_prepared([])

    def test_rejects_mismatched_plans(self):
        narrow = ScheduleComparisonConfig(lengths=(2.0, 3.0, 4.0), fa=1)
        with pytest.raises(ScheduleError):
            concat_prepared([_prepared(10, 0), _prepared(10, 0, config=narrow)])
