"""Round-for-round equivalence of the vectorized exact expectation attacker.

The scalar oracle is :class:`repro.attack.expectation.ExpectationPolicy`
driven by the scalar engine (deterministic ``tie_break="first"``, the
``attack="expectation"`` spec); the batch engine drives
:class:`repro.batch.expectation.ExactExpectationBatchAttacker`.  Both draw
samples and transmission orders through the same vectorized primitives, so
their :class:`repro.engine.base.RoundsResult` arrays must match **bit for
bit** — seeded sweeps and hypothesis-randomized configurations, ``fa = 1``
and ``fa = 2``, both ``conservative`` modes.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attack.candidates import candidate_intervals
from repro.attack.context import AttackContext
from repro.analysis.experiments import TABLE1_CONFIGURATIONS
from repro.attack.expectation import ExpectationPolicy
from repro.batch import (
    BatchRoundConfig,
    ExactExpectationBatchAttacker,
    VectorizedExpectationPolicy,
    monte_carlo_rounds,
)
from repro.batch import expectation as expectation_module
from repro.core.exceptions import ScheduleError
from repro.core.interval import Interval
from repro.engine import BatchEngine, ExpectationAttack, ScalarEngine
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    RandomSchedule,
    ScheduleComparisonConfig,
)

#: Coarse grid keeping the scalar oracle affordable in the loops below.
COARSE = dict(true_value_positions=2, placement_positions=2, grid_positions=5)

#: Grids whose true-value or placement ``_linspace`` collapses to a midpoint.
EDGE_GRIDS = {
    "coarse": COARSE,
    "one-true-value": dict(COARSE, true_value_positions=1),
    "one-placement": dict(COARSE, placement_positions=1),
}


def _assert_rounds_equal(a, b):
    assert a.schedule_name == b.schedule_name
    np.testing.assert_array_equal(a.fusion_lo, b.fusion_lo)
    np.testing.assert_array_equal(a.fusion_hi, b.fusion_hi)
    np.testing.assert_array_equal(a.valid, b.valid)
    np.testing.assert_array_equal(a.attacker_detected, b.attacker_detected)


def _run_both(config, schedule, seed, spec, samples=24):
    scalar = ScalarEngine().run_rounds(
        config, schedule, spec, None, samples, np.random.default_rng(seed)
    )
    batch = BatchEngine().run_rounds(
        config, schedule, spec, None, samples, np.random.default_rng(seed)
    )
    return scalar, batch


@pytest.mark.parametrize(
    "lengths, fa",
    [
        ((5.0, 11.0, 17.0), 1),
        ((5.0, 8.0, 17.0, 20.0), 1),
        ((5.0, 5.0, 5.0, 14.0, 17.0), 2),
        ((5.0, 5.0, 5.0, 5.0, 20.0), 2),
    ],
    ids=lambda v: str(v),
)
@pytest.mark.parametrize(
    "schedule",
    [AscendingSchedule(), DescendingSchedule(), RandomSchedule()],
    ids=lambda s: s.name,
)
@pytest.mark.parametrize("conservative", [False, True], ids=["faithful", "conservative"])
def test_engines_bitmatch_expectation_seeded(lengths, fa, schedule, conservative):
    """Seeded Table I style sweeps: per-round arrays identical across engines."""
    config = ScheduleComparisonConfig(lengths=lengths, fa=fa)
    spec = ExpectationAttack(conservative=conservative, **COARSE)
    scalar, batch = _run_both(config, schedule, seed=3, spec=spec)
    _assert_rounds_equal(scalar, batch)
    assert scalar.valid.all()


@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=3, max_size=6),
    st.integers(min_value=0, max_value=5),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_engines_bitmatch_expectation_random_configs(lengths, attacked_index, conservative, seed):
    lengths = tuple(lengths)
    config = ScheduleComparisonConfig(
        lengths=lengths, fa=1, attacked_indices=(attacked_index % len(lengths),)
    )
    schedule = AscendingSchedule() if seed % 2 else DescendingSchedule()
    spec = ExpectationAttack(conservative=conservative, **COARSE)
    scalar, batch = _run_both(config, schedule, seed, spec, samples=6)
    _assert_rounds_equal(scalar, batch)


def test_engine_compare_rows_match_expectation():
    """The high-level compare() route returns identical ScheduleRows."""
    config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1)
    schedules = [AscendingSchedule(), DescendingSchedule()]
    spec = ExpectationAttack(**COARSE)
    scalar = ScalarEngine().compare(
        config, schedules, samples=16, rng=np.random.default_rng(9), attack=spec
    )
    batch = BatchEngine().compare(
        config, schedules, samples=16, rng=np.random.default_rng(9), attack=spec
    )
    assert scalar.rows == batch.rows


def test_compare_schedules_engine_attack_route():
    """compare_schedules(engine=..., attack='expectation') goes through the registry."""
    from repro.scheduling import compare_schedules

    config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1)
    schedules = [AscendingSchedule(), DescendingSchedule()]
    spec = ExpectationAttack(**COARSE)
    via_engine = compare_schedules(
        config, schedules, engine="batch", attack=spec, samples=16, rng=np.random.default_rng(1)
    )
    direct = BatchEngine().compare(
        config, schedules, samples=16, rng=np.random.default_rng(1), attack=spec
    )
    assert via_engine.rows == direct.rows
    assert all(row.detected_fraction == 0.0 for row in via_engine.rows)


def test_attacker_selectable_in_batch_rounds():
    """The exact attacker plugs into batch_rounds like any BatchAttacker."""
    attacker = ExactExpectationBatchAttacker(**COARSE)
    config = BatchRoundConfig(
        schedule=DescendingSchedule(), attacked_indices=(0,), attacker=attacker, f=1
    )
    result = monte_carlo_rounds((5.0, 11.0, 17.0), config, samples=32)
    assert result.fusion.valid.all()
    # Stealthy by construction: the expectation attacker is never flagged.
    assert not result.attacker_detected.any()
    # The shared memo saw every decision (miss or hit) of the batch.
    assert attacker.policy.stats()["misses"] > 0


def test_forge_requires_lookahead_fields():
    """A driver that omits the lookahead arrays gets a loud error."""
    from repro.batch.rounds import BatchSlotContext

    attacker = ExactExpectationBatchAttacker(**COARSE)
    ones = np.ones(2)
    context = BatchSlotContext(
        n=3,
        f=1,
        slot=0,
        rows=np.array([True, False]),
        sensor=np.zeros(2, dtype=np.int64),
        width=ones,
        own_lo=-ones,
        own_hi=ones,
        delta_lo=-ones,
        delta_hi=ones,
        transmitted_lo=np.empty((2, 0)),
        transmitted_hi=np.empty((2, 0)),
        far=np.ones(2, dtype=np.int64),
    )
    with pytest.raises(ScheduleError, match="lookahead"):
        attacker.forge(context, np.random.default_rng(0))


# ----------------------------------------------------------------------
# Decision-level parity of the vectorized policy against the scalar one
# ----------------------------------------------------------------------

def _context_from(lengths, transmitted_count, fa_remaining, seed):
    """A plausible mid-round context built from hypothesis-ish inputs."""
    rng = np.random.default_rng(seed)
    n = len(lengths)
    transmitted = tuple(
        Interval(float(lo), float(lo + w))
        for w, lo in ((lengths[i], -rng.uniform(0, lengths[i])) for i in range(transmitted_count))
    )
    width = lengths[transmitted_count]
    own_lo = -float(rng.uniform(0, width))
    own = Interval(own_lo, own_lo + width)
    remaining = lengths[transmitted_count + 1 :]
    remaining_compromised = tuple(
        index < fa_remaining for index in range(len(remaining))
    )
    return AttackContext(
        n=n,
        f=max(1, (n - 1) // 2),
        slot_index=transmitted_count,
        sensor_index=0,
        width=width,
        own_reading=own,
        delta=own,
        transmitted=transmitted,
        transmitted_compromised=(False,) * transmitted_count,
        remaining_widths=remaining,
        remaining_compromised=remaining_compromised,
    )


def _candidate_parity_check(context: AttackContext, grid_positions: int = 9) -> bool:
    """The array candidate enumeration equals the scalar one."""
    policy = VectorizedExpectationPolicy(grid_positions=grid_positions, tie_break="first")
    prepared = policy._prepare_candidates(context)
    scalar = candidate_intervals(context, grid_positions)
    return [(s.lo, s.hi) for s in scalar] == list(zip(prepared.lo.tolist(), prepared.hi.tolist()))


@given(
    st.lists(st.floats(min_value=0.2, max_value=9.0), min_size=3, max_size=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_candidate_enumeration_matches_scalar(lengths, transmitted_count, fa_remaining, seed):
    """The array candidate generator equals candidate_intervals value for value."""
    lengths = tuple(lengths)
    transmitted_count = min(transmitted_count, len(lengths) - 1)
    context = _context_from(lengths, transmitted_count, fa_remaining, seed)
    assert _candidate_parity_check(context, grid_positions=7)


def _collapse_region(context):
    """Move the first transmitted (correct) interval to touch Δ at its upper
    end, so the feasible true-value region is a single point."""
    touching = Interval(context.delta.hi, context.delta.hi + context.transmitted[0].width)
    return dataclasses.replace(context, transmitted=(touching,) + context.transmitted[1:])


@given(
    st.lists(st.floats(min_value=0.2, max_value=9.0), min_size=3, max_size=4),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(sorted(EDGE_GRIDS)),
    st.booleans(),
    st.integers(min_value=0, max_value=1),
)
# The attacked sensor in the last slot: one empty scenario (S = 1).
@example((5.0, 8.0, 11.0), 2, False, 7, "coarse", False, 0)
@example((5.0, 8.0, 11.0, 14.0), 1, False, 7, "one-true-value", False, 0)
@example((5.0, 8.0, 11.0, 14.0), 1, True, 7, "one-placement", False, 1)
# A feasible region collapsed to a point: a single true value.
@example((5.0, 8.0, 11.0, 14.0), 1, False, 7, "coarse", True, 0)
@example((5.0, 8.0, 11.0, 14.0), 1, True, 7, "coarse", True, 1)
@settings(max_examples=25, deadline=None)
def test_vectorized_policy_decides_like_scalar(
    lengths, transmitted_count, conservative, seed, grid, collapse, fa_remaining
):
    """Same context, same decision — scalar scoring versus tensor scoring,
    including grids that collapse to a midpoint and lookahead contexts."""
    lengths = tuple(lengths)
    transmitted_count = min(transmitted_count, len(lengths) - 1)
    context = _context_from(lengths, transmitted_count, fa_remaining, seed=seed)
    if collapse and transmitted_count:
        context = _collapse_region(context)
    scalar = ExpectationPolicy(conservative=conservative, tie_break="first", **EDGE_GRIDS[grid])
    vectorized = VectorizedExpectationPolicy(
        conservative=conservative, tie_break="first", **EDGE_GRIDS[grid]
    )
    rng = np.random.default_rng(0)
    assert scalar.choose_interval(context, rng) == vectorized.choose_interval(context, rng)


@pytest.mark.parametrize("conservative", [False, True], ids=["faithful", "conservative"])
def test_lookahead_batch_mixes_scenario_counts(conservative):
    """One lockstep play-out may hold contexts with different scenario counts.

    The middle context's feasible region is a point (one true value, so one
    scenario per candidate instead of two); each context's candidates must
    still average over their own scenarios only.
    """
    contexts = []
    for seed, collapse in ((0, False), (10, True), (20, False)):
        context = _context_from((5.0, 8.0, 11.0), 1, fa_remaining=1, seed=seed)
        contexts.append(_collapse_region(context) if collapse else context)
    assert contexts[1].delta.hi == contexts[1].transmitted[0].lo
    policy = VectorizedExpectationPolicy(conservative=conservative, tie_break="first", **COARSE)
    decisions, _keys = expectation_module._decide_batch(policy, contexts)
    expected = [
        ExpectationPolicy(conservative=conservative, tie_break="first", **COARSE).choose_interval(
            context, None
        )
        for context in contexts
    ]
    assert decisions == expected


@pytest.mark.parametrize("schedule", [AscendingSchedule(), DescendingSchedule()], ids=lambda s: s.name)
@pytest.mark.parametrize("conservative", [False, True], ids=["faithful", "conservative"])
def test_fusion_sweeps_capped_at_chunk_rows(monkeypatch, schedule, conservative):
    """Every bound matrix the attacker fuses has at most ``_FUSE_CHUNK_ROWS``
    rows, and chunking changes no result (Table I row 8, fa = 2)."""
    entry = TABLE1_CONFIGURATIONS[7]
    config = ScheduleComparisonConfig(lengths=entry.lengths, fa=entry.fa)
    spec = ExpectationAttack(conservative=conservative)

    def run():
        return BatchEngine().run_rounds(config, schedule, spec, None, 12, np.random.default_rng(8))

    reference = run()
    rows = []
    fuse = expectation_module.coverage_extremes

    def recording(lowers, uppers, required, mask=None):
        rows.append(lowers.shape[0])
        return fuse(lowers, uppers, required, mask)

    monkeypatch.setattr(expectation_module, "_FUSE_CHUNK_ROWS", 64)
    monkeypatch.setattr(expectation_module, "coverage_extremes", recording)
    _assert_rounds_equal(reference, run())
    assert max(rows) == 64


def test_vectorized_policy_runs_in_scalar_round():
    """The vectorized policy is a drop-in AttackPolicy for run_round."""
    from repro.scheduling import RoundConfig, run_round

    correct = [Interval(-2.5, 2.5), Interval(-5.5, 5.5), Interval(-8.5, 8.5)]
    results = []
    for policy in (
        ExpectationPolicy(tie_break="first"),
        VectorizedExpectationPolicy(tie_break="first"),
    ):
        rng = np.random.default_rng(0)
        results.append(
            run_round(
                correct,
                RoundConfig(
                    schedule=DescendingSchedule(),
                    attacked_indices=(0,),
                    policy=policy,
                    f=1,
                ),
                rng,
            )
        )
    assert results[0].broadcast == results[1].broadcast
    assert results[0].fusion == results[1].fusion


@given(
    st.lists(st.floats(min_value=0.2, max_value=9.0), min_size=3, max_size=5),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_prepare_candidates_many_matches_single(lengths, conservative, seed):
    """The batched admissibility sweep equals per-context preparation bit for bit."""
    lengths = tuple(lengths)
    contexts = [
        _context_from(lengths, transmitted_count, fa_remaining, seed + offset)
        for offset, (transmitted_count, fa_remaining) in enumerate(
            [(0, 0), (1, 1), (2, 0), (1, 0), (2, 1), (0, 1)]
        )
        if transmitted_count < len(lengths)
    ]
    policy = VectorizedExpectationPolicy(
        conservative=conservative, tie_break="first", **COARSE
    )
    batched = policy._prepare_candidates_many(contexts)
    for ctx, many in zip(contexts, batched):
        single = policy._prepare_candidates(ctx)
        np.testing.assert_array_equal(single.lo, many.lo)
        np.testing.assert_array_equal(single.hi, many.hi)
        np.testing.assert_array_equal(single.passive, many.passive)
        np.testing.assert_array_equal(single.blocked, many.blocked)


def test_candidate_parity_check_rejects_mismatch():
    """The parity hook itself notices a divergent enumeration."""
    context = _context_from((5.0, 11.0, 17.0), 1, 0, seed=1)
    policy = VectorizedExpectationPolicy(grid_positions=7, tie_break="first")
    prepared = policy._prepare_candidates(context)
    scalar = candidate_intervals(context, 7)
    assert len(prepared) == len(scalar)
