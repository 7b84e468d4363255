"""Unit tests for the baseline attack policies."""

import numpy as np
import pytest

from repro.attack import (
    AttackContext,
    FixedShiftPolicy,
    RandomAdmissiblePolicy,
    TruthfulPolicy,
    is_admissible,
)
from repro.core import Interval


def context_with_room() -> AttackContext:
    """Attacker (width 6) much wider than Δ (width 1), two correct seen."""
    return AttackContext(
        n=4,
        f=1,
        slot_index=2,
        sensor_index=3,
        width=6.0,
        own_reading=Interval(7.0, 13.0),
        delta=Interval(9.5, 10.5),
        transmitted=(Interval(9.0, 11.0), Interval(9.8, 10.2)),
        transmitted_compromised=(False, False),
        remaining_widths=(1.0,),
        remaining_compromised=(False,),
    )


def context_no_room() -> AttackContext:
    """Attacker width equals Δ and nothing has been broadcast yet."""
    return AttackContext(
        n=3,
        f=1,
        slot_index=0,
        sensor_index=0,
        width=1.0,
        own_reading=Interval(9.5, 10.5),
        delta=Interval(9.5, 10.5),
        transmitted=(),
        transmitted_compromised=(),
        remaining_widths=(2.0, 3.0),
        remaining_compromised=(False, False),
    )


class TestTruthfulPolicy:
    def test_returns_own_reading(self):
        rng = np.random.default_rng(0)
        ctx = context_with_room()
        assert TruthfulPolicy().choose_interval(ctx, rng) == ctx.own_reading

    def test_reset_is_noop(self):
        TruthfulPolicy().reset()


class TestRandomAdmissiblePolicy:
    def test_always_admissible(self):
        policy = RandomAdmissiblePolicy()
        ctx = context_with_room()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            assert is_admissible(policy.choose_interval(ctx, rng), ctx)

    def test_width_preserved(self):
        rng = np.random.default_rng(1)
        ctx = context_with_room()
        forged = RandomAdmissiblePolicy().choose_interval(ctx, rng)
        assert forged.width == pytest.approx(ctx.width)

    def test_varies_with_seed(self):
        ctx = context_with_room()
        choices = {
            RandomAdmissiblePolicy().choose_interval(ctx, np.random.default_rng(seed))
            for seed in range(25)
        }
        assert len(choices) > 1


class TestFixedShiftPolicy:
    def test_applies_shift_when_safe(self):
        rng = np.random.default_rng(0)
        ctx = context_with_room()
        forged = FixedShiftPolicy(shift=2.0).choose_interval(ctx, rng)
        # A +2 shift of [7,13] is [9,15], which still contains Δ = [9.5,10.5].
        assert forged == Interval(9.0, 15.0)
        assert is_admissible(forged, ctx)

    def test_degrades_shift_when_unsafe(self):
        rng = np.random.default_rng(0)
        ctx = context_no_room()
        forged = FixedShiftPolicy(shift=5.0).choose_interval(ctx, rng)
        # No admissible shifted placement exists, so the policy tells the truth.
        assert forged == ctx.own_reading

    def test_negative_shift(self):
        rng = np.random.default_rng(0)
        ctx = context_with_room()
        forged = FixedShiftPolicy(shift=-2.0).choose_interval(ctx, rng)
        assert is_admissible(forged, ctx)
        assert forged.center < ctx.own_reading.center

