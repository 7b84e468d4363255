"""The two round programs: attacker-type dispatch and bit-for-bit parity.

:func:`repro.batch.rounds.batch_rounds_prepared` runs the per-transmission
program for the fusable attackers (exactly ``TruthfulBatchAttacker`` and
``ActiveStretchBatchAttacker``) and the slot loop for every other attacker.
This module pins the dispatch rule, and pins the per-transmission program
against the slot loop on identical prepared input across schedules,
attacked sets, fault models, per-round attacked masks and lossy channels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.expectation import ExactExpectationBatchAttacker
from repro.batch.rounds import (
    ActiveStretchBatchAttacker,
    BatchRoundConfig,
    BatchTransientFaults,
    ExpectationProxyBatchAttacker,
    TruthfulBatchAttacker,
    batch_rounds_prepared,
    fusable_attacker,
    prepare_rounds,
    sample_correct_bounds,
    slot_loop_rounds,
    transmission_rounds,
)
from repro.channel import ChannelSpec
from repro.core.exceptions import ScheduleError
from repro.scheduling.schedule import (
    AscendingSchedule,
    DescendingSchedule,
    FixedSchedule,
    RandomSchedule,
)

SCHEDULES = [
    AscendingSchedule(),
    DescendingSchedule(),
    RandomSchedule(),
    FixedSchedule((2, 0, 3, 1, 4)),
]
LENGTHS = (2.0, 3.0, 3.0, 6.0, 8.0)
LOSSY = ChannelSpec(model="iid", loss=0.15, delay=0.3, max_delay=2, retransmit_budget=1)


def assert_results_equal(a, b):
    np.testing.assert_array_equal(a.prepared.orders, b.prepared.orders)
    np.testing.assert_array_equal(a.broadcast_lo, b.broadcast_lo)
    np.testing.assert_array_equal(a.broadcast_hi, b.broadcast_hi)
    np.testing.assert_array_equal(a.fusion.lo, b.fusion.lo)
    np.testing.assert_array_equal(a.fusion.hi, b.fusion.hi)
    np.testing.assert_array_equal(a.fusion.valid, b.fusion.valid)
    np.testing.assert_array_equal(a.flagged, b.flagged)
    np.testing.assert_array_equal(a.prepared.fault_mask, b.prepared.fault_mask)
    np.testing.assert_array_equal(a.prepared.attacked_mask, b.prepared.attacked_mask)


def prepare(config, lengths=LENGTHS, samples=160, seed=3):
    rng = np.random.default_rng(seed)
    lowers, uppers = sample_correct_bounds(lengths, 0.0, samples, rng)
    return prepare_rounds(lowers, uppers, config, rng)


def assert_programs_agree(config, prepared):
    """Both programs on one prepared batch: identical arrays, input untouched."""
    sent_lo = prepared.sent_lo.copy()
    reference = slot_loop_rounds(prepared, config, np.random.default_rng(0))
    result = transmission_rounds(prepared, config)
    assert_results_equal(reference, result)
    np.testing.assert_array_equal(prepared.sent_lo, sent_lo)
    return result


class TestDispatch:
    @pytest.fixture
    def forge_calls(self, monkeypatch):
        """Count ``forge`` calls without changing any attacker's type."""
        calls = []

        def counting(original):
            def forge(self, context, rng):
                calls.append(type(self).__name__)
                return original(self, context, rng)

            return forge

        # The proxy inherits its forge from the stretch attacker.
        for cls in (TruthfulBatchAttacker, ActiveStretchBatchAttacker, ExactExpectationBatchAttacker):
            monkeypatch.setattr(cls, "forge", counting(vars(cls)["forge"]))
        return calls

    @pytest.mark.parametrize(
        "attacker", [TruthfulBatchAttacker(), ActiveStretchBatchAttacker(side=-1)], ids=repr
    )
    def test_fusable_attackers_take_the_per_transmission_program(self, attacker, forge_calls):
        config = BatchRoundConfig(
            schedule=RandomSchedule(), attacked_indices=(0, 3), attacker=attacker
        )
        assert fusable_attacker(config)
        prepared = prepare(config)
        result = batch_rounds_prepared(prepared, config, np.random.default_rng(0))
        assert forge_calls == []
        assert_results_equal(result, slot_loop_rounds(prepared, config, np.random.default_rng(0)))

    @pytest.mark.parametrize(
        "attacker",
        [
            ExpectationProxyBatchAttacker(),
            ExactExpectationBatchAttacker(
                true_value_positions=2, placement_positions=2, grid_positions=3
            ),
        ],
        ids=lambda attacker: type(attacker).__name__,
    )
    def test_other_attackers_take_the_slot_loop(self, attacker, forge_calls):
        config = BatchRoundConfig(
            schedule=AscendingSchedule(), attacked_indices=(0,), attacker=attacker
        )
        assert not fusable_attacker(config)
        prepared = prepare(config, lengths=(1.0, 2.0, 3.0), samples=24)
        batch_rounds_prepared(prepared, config, np.random.default_rng(11))
        assert forge_calls and set(forge_calls) == {type(attacker).__name__}

    def test_subclasses_of_fusable_attackers_take_the_slot_loop(self, forge_calls):
        class Custom(ActiveStretchBatchAttacker):
            pass

        config = BatchRoundConfig(
            schedule=AscendingSchedule(), attacked_indices=(0,), attacker=Custom()
        )
        assert not fusable_attacker(config)
        prepared = prepare(config, samples=32)
        batch_rounds_prepared(prepared, config, np.random.default_rng(0))
        assert forge_calls and set(forge_calls) == {"Custom"}

    def test_per_transmission_program_rejects_other_attackers(self):
        config = BatchRoundConfig(
            schedule=AscendingSchedule(),
            attacked_indices=(0,),
            attacker=ExpectationProxyBatchAttacker(),
        )
        with pytest.raises(ScheduleError, match="ExpectationProxyBatchAttacker"):
            transmission_rounds(prepare(config, samples=8), config)


class TestProgramParity:
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.name)
    @pytest.mark.parametrize("attacked", [(), (0,), (2,), (0, 3), (1, 2, 4)])
    @pytest.mark.parametrize("side", [1, -1])
    def test_stretch_parity(self, schedule, attacked, side):
        config = BatchRoundConfig(
            schedule=schedule,
            attacked_indices=attacked,
            attacker=ActiveStretchBatchAttacker(side=side),
        )
        assert_programs_agree(config, prepare(config))

    @pytest.mark.parametrize("schedule", SCHEDULES[:2], ids=lambda s: s.name)
    def test_parity_with_transient_faults_and_empty_fusions(self, schedule):
        config = BatchRoundConfig(
            schedule=schedule,
            attacked_indices=(0,),
            f=2,
            faults=BatchTransientFaults(probability=0.35),
            attacker=ActiveStretchBatchAttacker(side=1),
        )
        result = assert_programs_agree(config, prepare(config, lengths=(1.0,) * 5, samples=256))
        assert not result.fusion.valid.all(), "expected some empty fusions under heavy faults"

    @pytest.mark.parametrize("side", [1, -1])
    def test_parity_with_per_round_attacked_mask(self, side):
        rng = np.random.default_rng(4)
        mask = np.zeros((200, 5), dtype=bool)
        mask[np.arange(200), rng.integers(0, 5, 200)] = True
        mask[np.arange(200), rng.integers(0, 5, 200)] = True  # 1-2 attacked per row
        mask[:10] = False  # and a few rounds with no attacker at all
        config = BatchRoundConfig(
            schedule=RandomSchedule(),
            attacker=ActiveStretchBatchAttacker(side=side),
            attacked_mask=mask,
        )
        assert_programs_agree(config, prepare(config, samples=200))

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.name)
    @pytest.mark.parametrize("attacked", [(0,), (0, 3), (1, 2, 4)])
    def test_parity_under_a_lossy_channel(self, schedule, attacked):
        config = BatchRoundConfig(
            schedule=schedule,
            attacked_indices=attacked,
            attacker=ActiveStretchBatchAttacker(side=1),
            channel=LOSSY,
        )
        result = assert_programs_agree(config, prepare(config, samples=240))
        assert result.prepared.channel is not None and result.prepared.channel.dropped.sum() > 0

    def test_parity_with_faults_masks_and_a_lossy_channel_together(self):
        rng = np.random.default_rng(8)
        mask = rng.random((160, 5)) < 0.3
        config = BatchRoundConfig(
            schedule=DescendingSchedule(),
            attacker=ActiveStretchBatchAttacker(side=-1),
            attacked_mask=mask,
            faults=BatchTransientFaults(probability=0.2),
            channel=LOSSY,
        )
        assert_programs_agree(config, prepare(config))

    def test_truthful_parity(self):
        config = BatchRoundConfig(
            schedule=AscendingSchedule(), attacked_indices=(1,), attacker=TruthfulBatchAttacker()
        )
        assert_programs_agree(config, prepare(config, lengths=(1.0, 2.0, 3.0), samples=120))

    @given(
        lengths=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=3, max_size=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        fa=st.integers(min_value=1, max_value=3),
        lossy=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_parity(self, lengths, seed, fa, lossy):
        n = len(lengths)
        attacked = tuple(range(min(fa, n - 1)))
        schedule = SCHEDULES[seed % len(SCHEDULES)]
        if isinstance(schedule, FixedSchedule) and len(schedule.permutation) != n:
            schedule = AscendingSchedule()
        config = BatchRoundConfig(
            schedule=schedule,
            attacked_indices=attacked,
            attacker=ActiveStretchBatchAttacker(side=1 if seed % 3 else -1),
            channel=LOSSY if lossy else None,
        )
        assert_programs_agree(config, prepare(config, tuple(lengths), samples=32, seed=seed))
