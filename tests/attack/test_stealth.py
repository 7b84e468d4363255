"""Unit tests for the passive/active stealth machinery (Section III-A)."""

import pytest

from repro.attack import (
    AttackContext,
    AttackerMode,
    active_mode_available,
    check_admissible,
    is_admissible,
    passive_admissible,
    required_support,
    support_point,
)
from repro.core import Interval


def context_first_slot() -> AttackContext:
    """The attacker transmits first: n=4, f=1, fa=1, nothing seen yet."""
    return AttackContext(
        n=4,
        f=1,
        slot_index=0,
        sensor_index=0,
        width=0.2,
        own_reading=Interval(9.9, 10.1),
        delta=Interval(9.9, 10.1),
        transmitted=(),
        transmitted_compromised=(),
        remaining_widths=(0.2, 1.0, 2.0),
        remaining_compromised=(False, False, False),
    )


def context_last_slot() -> AttackContext:
    """The attacker transmits last: n=4, f=1, fa=1, three correct seen."""
    return AttackContext(
        n=4,
        f=1,
        slot_index=3,
        sensor_index=0,
        width=0.2,
        own_reading=Interval(9.9, 10.1),
        delta=Interval(9.9, 10.1),
        transmitted=(Interval(9.0, 11.0), Interval(9.6, 10.6), Interval(9.95, 10.15)),
        transmitted_compromised=(False, False, False),
        remaining_widths=(),
        remaining_compromised=(),
    )


class TestModeAvailability:
    def test_required_support_formula(self):
        # n - f - far = 4 - 1 - 1 = 2
        assert required_support(context_first_slot()) == 2
        assert required_support(context_last_slot()) == 2

    def test_active_not_available_in_first_slot(self):
        assert not active_mode_available(context_first_slot())

    def test_active_available_in_last_slot(self):
        assert active_mode_available(context_last_slot())

    def test_far_counts_other_unsent_compromised(self):
        ctx = AttackContext(
            n=5,
            f=2,
            slot_index=1,
            sensor_index=1,
            width=1.0,
            own_reading=Interval(0, 1),
            delta=Interval(0.2, 0.8),
            transmitted=(Interval(0, 2),),
            transmitted_compromised=(False,),
            remaining_widths=(1.0, 2.0, 3.0),
            remaining_compromised=(True, False, False),
        )
        # far = 2 (current + one later compromised), so support = 5 - 2 - 2 = 1.
        assert ctx.unsent_compromised_count == 2
        assert required_support(ctx) == 1
        assert active_mode_available(ctx)


class TestPassiveMode:
    def test_truthful_reading_is_passive_admissible(self):
        ctx = context_first_slot()
        assert passive_admissible(ctx.own_reading, ctx)

    def test_candidate_must_contain_all_of_delta(self):
        ctx = context_first_slot()
        assert not passive_admissible(Interval(9.95, 10.15), ctx)
        assert passive_admissible(Interval(9.9, 10.1), ctx)

    def test_protected_points_must_be_covered(self):
        ctx = context_first_slot().with_protected_points((12.0,))
        assert not passive_admissible(ctx.own_reading, ctx)


class TestActiveMode:
    def test_support_point_requires_enough_coverage(self):
        transmitted = [Interval(0, 2), Interval(1, 3)]
        assert support_point(Interval(1.5, 4.0), transmitted, required=2) is not None
        assert support_point(Interval(2.5, 4.0), transmitted, required=2) is None

    def test_support_point_zero_requirement(self):
        assert support_point(Interval(0, 1), [], required=0) == pytest.approx(0.5)

    def test_active_admissible_off_delta(self):
        ctx = context_last_slot()
        # A forged interval far from Δ but overlapping two seen intervals at a
        # common point is admissible in active mode.
        candidate = Interval(10.55, 10.75)
        result = check_admissible(candidate, ctx)
        assert result.admissible
        assert result.mode is AttackerMode.ACTIVE
        assert result.support is not None
        assert candidate.contains(result.support)

    def test_active_requires_common_point_with_enough_intervals(self):
        ctx = context_last_slot()
        # Beyond every seen interval except the widest one: only coverage 1.
        candidate = Interval(10.8, 11.0)
        result = check_admissible(candidate, ctx)
        assert not result.admissible
        assert "active mode requires" in result.reason

    def test_inadmissible_before_active_mode(self):
        ctx = context_first_slot()
        result = check_admissible(Interval(10.5, 10.7), ctx)
        assert not result.admissible
        assert "passive mode" in result.reason


class TestCheckAdmissible:
    def test_passive_takes_precedence(self):
        ctx = context_last_slot()
        result = check_admissible(ctx.own_reading, ctx)
        assert result.admissible
        assert result.mode is AttackerMode.PASSIVE
        assert result.support is None

    def test_is_admissible_shorthand(self):
        ctx = context_last_slot()
        assert is_admissible(ctx.own_reading, ctx)
        assert not is_admissible(Interval(20, 21), ctx)

    def test_protected_point_violation_reported(self):
        ctx = context_last_slot().with_protected_points((9.0,))
        result = check_admissible(Interval(10.0, 10.2), ctx)
        assert not result.admissible
        assert "earlier compromised" in result.reason
