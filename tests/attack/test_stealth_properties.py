"""Property-based tests for the stealth machinery and attack policies.

The central security claim of the attacker model is *undetectability*: any
policy that only emits admissible intervals survives the controller's
detection procedure, for every configuration in which at most ``f`` sensors
are compromised.  These hypothesis tests check that claim (and the supporting
candidate-generation invariants) over randomly generated rounds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack import (
    ActiveStretchPolicy,
    ExpectationPolicy,
    RandomAdmissiblePolicy,
    candidate_intervals,
    is_admissible,
)
from repro.attack.context import AttackContext
from repro.core import Interval, max_safe_fault_bound
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    FixedSchedule,
    RandomSchedule,
    RoundConfig,
    run_round,
)

TRUE_VALUE = 0.0


@st.composite
def attacked_round(draw):
    """A random round: widths, correct placements and an attacked subset."""
    n = draw(st.integers(min_value=3, max_value=6))
    f = max_safe_fault_bound(n)
    fa = draw(st.integers(min_value=1, max_value=f))
    widths = [draw(st.floats(min_value=0.2, max_value=10.0)) for _ in range(n)]
    correct = []
    for width in widths:
        offset = draw(st.floats(min_value=0.0, max_value=1.0))
        lo = TRUE_VALUE - width * offset
        correct.append(Interval(lo, lo + width))
    attacked = tuple(sorted(draw(st.permutations(range(n)))[:fa]))
    schedule_kind = draw(st.sampled_from(["ascending", "descending", "random", "fixed"]))
    if schedule_kind == "ascending":
        schedule = AscendingSchedule()
    elif schedule_kind == "descending":
        schedule = DescendingSchedule()
    elif schedule_kind == "random":
        schedule = RandomSchedule()
    else:
        schedule = FixedSchedule(tuple(draw(st.permutations(range(n)))))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return correct, attacked, f, schedule, seed


@st.composite
def attack_context(draw):
    """A random (consistent) attacker context."""
    n = draw(st.integers(min_value=3, max_value=6))
    f = max_safe_fault_bound(n)
    width = draw(st.floats(min_value=0.3, max_value=8.0))
    own_lo = TRUE_VALUE - width * draw(st.floats(min_value=0.0, max_value=1.0))
    own = Interval(own_lo, own_lo + width)
    n_transmitted = draw(st.integers(min_value=0, max_value=n - 1))
    transmitted = []
    for _ in range(n_transmitted):
        w = draw(st.floats(min_value=0.3, max_value=8.0))
        lo = TRUE_VALUE - w * draw(st.floats(min_value=0.0, max_value=1.0))
        transmitted.append(Interval(lo, lo + w))
    n_remaining = n - 1 - n_transmitted
    remaining_widths = tuple(
        draw(st.floats(min_value=0.3, max_value=8.0)) for _ in range(n_remaining)
    )
    return AttackContext(
        n=n,
        f=f,
        slot_index=n_transmitted,
        sensor_index=0,
        width=width,
        own_reading=own,
        delta=own,
        transmitted=tuple(transmitted),
        transmitted_compromised=tuple(False for _ in transmitted),
        remaining_widths=remaining_widths,
        remaining_compromised=tuple(False for _ in remaining_widths),
    )


@given(attack_context())
@settings(max_examples=150, deadline=None)
def test_candidates_are_admissible_and_width_preserving(context):
    for candidate in candidate_intervals(context, grid_positions=5):
        assert is_admissible(candidate, context)
        assert abs(candidate.width - context.width) < 1e-9


@given(attack_context())
@settings(max_examples=150, deadline=None)
def test_truthful_reading_is_always_a_candidate(context):
    candidates = candidate_intervals(context, grid_positions=5)
    assert any(c.almost_equal(context.own_reading) for c in candidates)


@given(attacked_round())
@settings(max_examples=60, deadline=None)
def test_stretch_attacker_is_never_detected_and_truth_stays_inside(round_spec):
    correct, attacked, f, schedule, seed = round_spec
    result = run_round(
        correct,
        RoundConfig(schedule=schedule, attacked_indices=attacked, policy=ActiveStretchPolicy(), f=f),
        np.random.default_rng(seed),
    )
    assert not result.attacker_detected
    assert result.fusion.contains(TRUE_VALUE)


@given(attacked_round())
@settings(max_examples=30, deadline=None)
def test_expectation_attacker_is_never_detected_and_truth_stays_inside(round_spec):
    correct, attacked, f, schedule, seed = round_spec
    policy = ExpectationPolicy(true_value_positions=2, placement_positions=2, grid_positions=5)
    result = run_round(
        correct,
        RoundConfig(schedule=schedule, attacked_indices=attacked, policy=policy, f=f),
        np.random.default_rng(seed),
    )
    assert not result.attacker_detected
    assert result.fusion.contains(TRUE_VALUE)


@given(attacked_round())
@settings(max_examples=60, deadline=None)
def test_random_admissible_attacker_is_never_detected(round_spec):
    correct, attacked, f, schedule, seed = round_spec
    result = run_round(
        correct,
        RoundConfig(
            schedule=schedule, attacked_indices=attacked, policy=RandomAdmissiblePolicy(), f=f
        ),
        np.random.default_rng(seed),
    )
    assert not result.attacker_detected
    assert result.fusion.contains(TRUE_VALUE)


@given(attacked_round())
@settings(max_examples=40, deadline=None)
def test_attacked_fusion_respects_theorem2_bound(round_spec):
    correct, attacked, f, schedule, seed = round_spec
    attacked_result = run_round(
        correct,
        RoundConfig(schedule=schedule, attacked_indices=attacked, policy=ActiveStretchPolicy(), f=f),
        np.random.default_rng(seed),
    )
    from repro.core import theorem2_bound

    correct_only = [s for i, s in enumerate(correct) if i not in attacked]
    assert attacked_result.fusion_width <= theorem2_bound(correct_only) + 1e-9
