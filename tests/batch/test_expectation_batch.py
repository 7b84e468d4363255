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
import inspect
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attack import candidates as candidates_module
from repro.attack.candidates import candidate_intervals
from repro.attack.context import AttackContext
from repro.analysis.experiments import TABLE1_CONFIGURATIONS
from repro.attack.expectation import ExpectationPolicy
from repro.attack.stealth import AttackerMode, check_admissible, support_point
from repro.batch import (
    BatchRoundConfig,
    ExactExpectationBatchAttacker,
    VectorizedExpectationPolicy,
    batch_rounds,
    sample_correct_bounds,
)
from repro.batch import expectation as expectation_module
from repro.batch.expectation import ContextBatch
from repro.core.exceptions import AttackError
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


@pytest.mark.parametrize("schedule", [AscendingSchedule(), DescendingSchedule()], ids=lambda s: s.name)
def test_engines_bitmatch_expectation_seeded_fa3(schedule):
    """fa = 3 (n = 7): play-outs with two lead compromised slots reuse their
    first sub-decision's scores (the second one's are memo hits); 4 samples
    keep the scalar oracle to a few seconds."""
    config = ScheduleComparisonConfig(lengths=(5.0, 5.0, 5.0, 8.0, 11.0, 14.0, 17.0), fa=3)
    scalar, batch = _run_both(config, schedule, seed=3, spec=ExpectationAttack(**COARSE), samples=4)
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


def test_attacker_selectable_in_batch_rounds():
    """The exact attacker plugs into batch_rounds like any BatchAttacker."""
    attacker = ExactExpectationBatchAttacker(**COARSE)
    config = BatchRoundConfig(
        schedule=DescendingSchedule(), attacked_indices=(0,), attacker=attacker, f=1
    )
    rng = np.random.default_rng(0)
    lowers, uppers = sample_correct_bounds((5.0, 11.0, 17.0), 0.0, 32, rng)
    result = batch_rounds(lowers, uppers, config, rng)
    assert result.fusion.valid.all()
    # Stealthy by construction: the expectation attacker is never flagged.
    assert not result.attacker_detected.any()
    # The shared memo saw every decision (miss or hit) of the batch.
    assert attacker.policy.stats()["misses"] > 0


def test_slot_context_requires_lookahead_fields():
    """A slot context cannot be built without the lookahead arrays."""
    from repro.batch.rounds import BatchSlotContext

    ones = np.ones(2)
    with pytest.raises(TypeError, match="transmitted_compromised.*remaining_widths.*remaining_compromised"):
        BatchSlotContext(
            n=3,
            f=1,
            slot=0,
            rows=np.array([True, False]),
            width=ones,
            own_lo=-ones,
            own_hi=ones,
            delta_lo=-ones,
            delta_hi=ones,
            transmitted_lo=np.empty((2, 0)),
            transmitted_hi=np.empty((2, 0)),
            far=np.ones(2, dtype=np.int64),
        )


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


def _decisions(policy, contexts) -> list[Interval]:
    """The batched decision procedure on hand-built contexts."""
    entries, _scores = expectation_module._decide_batch(policy, ContextBatch.from_contexts(contexts))
    return [Interval(lo, hi) for lo, hi, _support in entries.tolist()]


def _contexts_of(batch: ContextBatch) -> list[AttackContext]:
    """The scalar contexts a batch stands for (the inverse of ``from_contexts``)."""
    contexts = []
    for i in range(len(batch)):
        sent, left, kept = (
            int(batch.transmitted_count[i]), int(batch.remaining_count[i]), int(batch.protected_count[i])
        )
        contexts.append(
            AttackContext(
                n=int(batch.n[i]),
                f=int(batch.f[i]),
                slot_index=sent,
                sensor_index=0,
                width=float(batch.width[i]),
                own_reading=Interval(float(batch.own_lo[i]), float(batch.own_hi[i])),
                delta=Interval(float(batch.delta_lo[i]), float(batch.delta_hi[i])),
                transmitted=tuple(
                    Interval(lo, hi)
                    for lo, hi in zip(batch.transmitted_lo[i, :sent].tolist(), batch.transmitted_hi[i, :sent].tolist())
                ),
                transmitted_compromised=tuple(batch.transmitted_compromised[i, :sent].tolist()),
                remaining_widths=tuple(batch.remaining_widths[i, :left].tolist()),
                remaining_compromised=tuple(batch.remaining_compromised[i, :left].tolist()),
                protected_points=tuple(batch.protected[i, :kept].tolist()),
            )
        )
    return contexts


def _prepared(policy, contexts) -> list[tuple]:
    """Per context, its ``(lo, hi, passive, blocked)`` candidate lists."""
    grids = policy._prepare_candidates(ContextBatch.from_contexts(contexts))
    bounds = grids.offsets.tolist()
    return [
        tuple(array[a:b].tolist() for array in (grids.lo, grids.hi, grids.passive, grids.blocked))
        for a, b in zip(bounds, bounds[1:])
    ]


def _candidate_parity_check(context: AttackContext, grid_positions: int = 9) -> bool:
    """The array candidate enumeration equals the scalar one."""
    policy = VectorizedExpectationPolicy(grid_positions=grid_positions)
    lo, hi, _passive, _blocked = _prepared(policy, [context])[0]
    scalar = candidate_intervals(context, grid_positions)
    return [(s.lo, s.hi) for s in scalar] == list(zip(lo, hi))


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
    vectorized = VectorizedExpectationPolicy(conservative=conservative, **EDGE_GRIDS[grid])
    assert [scalar.choose_interval(context, np.random.default_rng(0))] == _decisions(vectorized, [context])


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
    policy = VectorizedExpectationPolicy(conservative=conservative, **COARSE)
    decisions = _decisions(policy, contexts)
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
    """Every (scenario × candidate) grid the attacker fuses has at most
    ``_FUSE_CHUNK_ROWS`` rounds, chunks hold whole candidates, and chunking
    changes no result (Table I row 8, fa = 2)."""
    entry = TABLE1_CONFIGURATIONS[7]
    config = ScheduleComparisonConfig(lengths=entry.lengths, fa=entry.fa)
    spec = ExpectationAttack(conservative=conservative)

    def run():
        return BatchEngine().run_rounds(config, schedule, spec, None, 12, np.random.default_rng(8))

    reference = run()
    grids = []
    fuse = expectation_module.grid_extremes

    def recording(*args, **kwargs):
        fusion = fuse(*args, **kwargs)
        grids.append(fusion.lo.shape)
        return fusion

    monkeypatch.setattr(expectation_module, "_FUSE_CHUNK_ROWS", 64)
    monkeypatch.setattr(expectation_module, "grid_extremes", recording)
    _assert_rounds_equal(reference, run())
    assert max(scenarios * candidates for scenarios, candidates in grids) <= 64
    assert any(candidates == 64 // scenarios for scenarios, candidates in grids if scenarios > 1)


@given(
    st.lists(st.floats(min_value=0.2, max_value=9.0), min_size=3, max_size=5),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_prepare_candidates_many_matches_single(lengths, conservative, seed):
    """Batched candidate grids equal the scalar enumeration and stealth
    checks, context for context (grids, passive mode, conservative gate)."""
    lengths = tuple(lengths)
    contexts = [
        _context_from(lengths, transmitted_count, fa_remaining, seed + offset)
        for offset, (transmitted_count, fa_remaining) in enumerate(
            [(0, 0), (1, 1), (2, 0), (1, 0), (2, 1), (0, 1)]
        )
        if transmitted_count < len(lengths)
    ]
    # Protection obligations exercise the protected-point masks; a width
    # narrower than Δ (as in lookahead sub-contexts) has no passive extremes.
    contexts += [
        dataclasses.replace(ctx, protected_points=(ctx.own_reading.center,)) for ctx in contexts[::2]
    ] + [dataclasses.replace(ctx, width=ctx.width * scale) for ctx in contexts[1::2] for scale in (0.5, 1.5)]
    policy = VectorizedExpectationPolicy(conservative=conservative, **COARSE)
    for ctx, (lo, hi, passive, prepared_blocked) in zip(contexts, _prepared(policy, contexts)):
        scalar = candidate_intervals(ctx, COARSE["grid_positions"])
        assert list(zip(lo, hi)) == [(c.lo, c.hi) for c in scalar]
        checks = [check_admissible(candidate, ctx) for candidate in scalar]
        # Passive is tried first; an inadmissible truthful fallback is labelled passive.
        assert passive == [check.mode is not AttackerMode.ACTIVE for check in checks]
        blocked = [
            conservative
            and len(scalar) > 1
            and check.mode is AttackerMode.ACTIVE
            and support_point(candidate, ctx.transmitted, ctx.n - ctx.f - 1) is None
            for candidate, check in zip(scalar, checks)
        ]
        assert prepared_blocked == blocked


@pytest.mark.parametrize("divergence", ["drop", "nudge"])
def test_candidate_parity_check_rejects_mismatch(monkeypatch, divergence):
    """The parity hook itself notices a divergent enumeration: the scalar
    one with a candidate dropped, or with one bound moved by one ulp."""
    context = _context_from((5.0, 11.0, 17.0), 1, 0, seed=1)
    assert _candidate_parity_check(context, grid_positions=7)
    scalar = candidate_intervals

    def divergent(ctx, grid_positions):
        found = list(scalar(ctx, grid_positions))
        middle = found[len(found) // 2]
        nudged = [Interval(middle.lo, math.nextafter(middle.hi, math.inf))]
        return found[: len(found) // 2] + ([] if divergence == "drop" else nudged) + found[len(found) // 2 + 1 :]

    monkeypatch.setitem(globals(), "candidate_intervals", divergent)
    assert not _candidate_parity_check(context, grid_positions=7)


# ----------------------------------------------------------------------
# Exact rounding keys: _quantize and the batched memo keys
# ----------------------------------------------------------------------

#: Where the quantizer leaves its ``np.rint`` fast path / stops recovering
#: the decimal integer, in unscaled units.
FAST_BOUND = expectation_module._FAST_LIMIT / expectation_module._SCALE
EXACT_BOUND = expectation_module._EXACT_LIMIT


def _same_classes(left, right) -> bool:
    """Two labellings of the same items induce the same partition."""
    return len(set(left)) == len(set(right)) == len(set(zip(left, right)))


def _nudge(value: float, ulps: int) -> float:
    """``value`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def _near_tie(k: int, ulps: int) -> float:
    """``(k + 0.5)·1e-9`` (a 9-decimal rounding boundary) moved by ``ulps``."""
    return _nudge((k + 0.5) * 1e-9, ulps)


_boundaries = [FAST_BOUND, EXACT_BOUND, 2.0**40, 2.0**52, 1e300]
ROUNDING_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True, min_value=-1e-300, max_value=1e-300),
    st.builds(_near_tie, st.integers(-(10**6), 10**6), st.integers(-4, 4)),
    st.builds(_near_tie, st.integers(-(10**17), 10**17), st.integers(-4, 4)),
    st.builds(
        lambda bound, scale, sign: sign * bound * scale,
        st.sampled_from(_boundaries),
        st.floats(min_value=0.999, max_value=1.001),
        st.sampled_from([1.0, -1.0]),
    ),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 5e-10, -5e-10]),
)


@given(
    st.lists(ROUNDING_VALUES, min_size=1, max_size=8),
    st.lists(st.integers(-3, 3), max_size=3),
    st.lists(st.integers(-12, 12), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_quantize_keys_partition_like_python_round(values, ulps, shifts):
    """``round(a, 9) == round(b, 9)`` exactly when the int64 keys are equal,
    for every pair of a batch: near-ties a few ulps apart, ±0.0,
    subnormals, and magnitudes on both sides of the fast-path bound."""
    values = list(values)
    values += [_nudge(v, n) for v in values for n in ulps]
    values += [v + n * 1e-10 for v in values[:8] for n in shifts]
    values = [v for v in values if math.isfinite(v)]
    keys = expectation_module._quantize(np.asarray(values)).tolist()
    assert _same_classes([round(v, 9) for v in values], keys)


def test_quantize_handles_signed_zero_and_dense_near_ties():
    values = [0.0, -0.0, -1e-12, 1e-12, 5e-324, -5e-324]
    for k in (-(10**15), -7, -1, 0, 1, 2**40 - 1, 2**40, 10**15, 2**52, 10**17):
        values += [_near_tie(k, ulps) for ulps in range(-3, 4)]
    values += [_nudge(bound, ulps) for bound in _boundaries for ulps in range(-2, 3)]
    keys = expectation_module._quantize(np.asarray(values))
    assert keys[:4].tolist() == [0, 0, 0, 0]
    assert _same_classes([round(v, 9) for v in values], keys.tolist())


def test_rounding_precision_is_shared():
    """The batch dedup, the scalar dedup and ``cache_key`` round alike, and
    the quantizer's scale follows the shared precision."""
    precision = inspect.signature(AttackContext.cache_key).parameters["precision"].default
    assert expectation_module._DEDUP_PRECISION == candidates_module._DEDUP_PRECISION == precision
    assert expectation_module._SCALE == 10.0**precision


_PERTURBED_FIELDS = ("width", "delta", "transmitted", "remaining", "protected")


def _with_value(context: AttackContext, field: str, value: float) -> AttackContext:
    """``context`` with one float field replaced by ``value``."""
    if field == "width":
        return dataclasses.replace(context, width=value)
    if field == "delta":
        return dataclasses.replace(context, delta=Interval(value, context.delta.hi))
    if field == "transmitted" and context.transmitted:
        first = context.transmitted[0]
        return dataclasses.replace(context, transmitted=(Interval(value, first.hi),) + context.transmitted[1:])
    if field == "remaining" and context.remaining_widths:
        return dataclasses.replace(context, remaining_widths=(value,) + context.remaining_widths[1:])
    return dataclasses.replace(context, protected_points=(value,))


def _field_value(context: AttackContext, field: str) -> float:
    if field == "width":
        return context.width
    if field == "delta":
        return context.delta.lo
    if field == "transmitted" and context.transmitted:
        return context.transmitted[0].lo
    if field == "remaining" and context.remaining_widths:
        return context.remaining_widths[0]
    return context.own_reading.center


@given(
    st.lists(st.floats(min_value=0.2, max_value=9.0), min_size=3, max_size=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(_PERTURBED_FIELDS),
)
@settings(max_examples=60, deadline=None)
def test_batched_memo_keys_collide_like_cache_key(lengths, transmitted_count, fa_remaining, seed, field):
    """Batched memo keys fall into the classes of ``(conservative,
    ctx.cache_key())``, including contexts 1 ulp either side of a rounding
    boundary and both ``conservative`` flags, on a ragged batch: mixed
    transmitted-prefix lengths (as RandomSchedule slots produce), mixed
    protected-point counts and same-key rows.  A single context's key is its
    key within the batch, and a batch rebuilt from its own rows keys alike."""
    lengths = tuple(lengths)
    transmitted_count = min(transmitted_count, len(lengths) - 1)
    base = _context_from(lengths, transmitted_count, fa_remaining, seed)
    value = _field_value(base, field)
    tie = (math.floor(value * 1e9) + 0.5) / 1e9
    variants = [value, value + 1e-10, value + 6e-10, tie] + [_nudge(tie, ulps) for ulps in (-2, -1, 1, 2)]
    contexts = [
        base,
        _context_from(lengths, transmitted_count, fa_remaining, seed + 1),
        _context_from(lengths, transmitted_count, 1 - fa_remaining, seed),  # same floats, other flags
    ]
    contexts += [_with_value(base, field, v) for v in variants]
    contexts += [_context_from(lengths, count, fa, seed) for count in range(len(lengths)) for fa in (0, 1)]
    contexts += [
        dataclasses.replace(ctx, protected_points=(ctx.own_reading.center,) * points)
        for ctx in contexts[:3]
        for points in (1, 2)
    ]
    contexts += contexts[::-1]  # exact repeats must share keys too
    batch = ContextBatch.from_contexts(contexts)
    for conservative in (False, True):
        scalar = [(conservative, ctx.cache_key()) for ctx in contexts]
        batched = expectation_module._memo_keys(conservative, batch)
        assert _same_classes(scalar, batched)
        assert [
            expectation_module._memo_keys(conservative, ContextBatch.from_contexts([ctx]))[0] for ctx in contexts
        ] == batched
        assert expectation_module._memo_keys(conservative, ContextBatch.from_contexts(_contexts_of(batch))) == batched
    assert not set(expectation_module._memo_keys(False, batch)) & set(expectation_module._memo_keys(True, batch))


@pytest.mark.parametrize("conservative", [False, True], ids=["faithful", "conservative"])
def test_same_key_rows_of_one_batch_share_one_decision(conservative):
    """A ragged batch with repeated contexts: each distinct key is computed
    once (a miss), every repeat counts as a hit and reads the same entry,
    and every decision is the scalar policy's."""
    lengths = (5.0, 8.0, 11.0, 14.0)
    distinct = [_context_from(lengths, count, 0, seed=count) for count in range(len(lengths))]
    distinct += [dataclasses.replace(distinct[1], protected_points=(distinct[1].own_reading.center,))]
    contexts = distinct + distinct[::-1] + distinct[:2]
    policy = VectorizedExpectationPolicy(conservative=conservative, **COARSE)
    entries, _scores = expectation_module._decide_batch(policy, ContextBatch.from_contexts(contexts))
    assert policy.stats() == {"hits": len(contexts) - len(distinct), "misses": len(distinct), "entries": len(distinct)}
    first = {ctx.cache_key(): row for ctx, row in reversed(list(zip(contexts, entries.tolist())))}
    np.testing.assert_array_equal(entries, [first[ctx.cache_key()] for ctx in contexts])  # NaN == NaN here
    scalar = ExpectationPolicy(conservative=conservative, tie_break="first", **COARSE)
    assert _decisions(VectorizedExpectationPolicy(conservative=conservative, **COARSE), contexts) == [
        scalar.choose_interval(ctx, None) for ctx in contexts
    ]


def test_context_batch_rejects_hidden_transmissions():
    """The batched attacker models the perfect bus: a context with hidden
    (lost or in-flight) transmissions does not convert."""
    context = _context_from((5.0, 8.0, 11.0, 14.0), 1, 0, seed=0)
    hidden = dataclasses.replace(context, remaining_widths=(14.0,), remaining_compromised=(False,), n_hidden=1)
    with pytest.raises(AttackError, match="perfect bus"):
        ContextBatch.from_contexts([context, hidden])


# ----------------------------------------------------------------------
# Support points: the batched kernel against stealth.support_point
# ----------------------------------------------------------------------

#: Endpoints that collide often: shared values, both signed zeros.
_ENDPOINTS = st.one_of(
    st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
_INTERVALS = st.tuples(_ENDPOINTS, _ENDPOINTS).map(lambda pair: Interval(*sorted(pair)))


def _bits(value: float | None) -> bytes | None:
    return None if value is None or math.isnan(value) else struct.pack("<d", value)


@given(
    st.lists(
        st.tuples(
            _INTERVALS,
            st.lists(st.one_of(_INTERVALS, st.sampled_from([Interval(0.0, 0.0), Interval(-0.0, 0.0)])), max_size=6),
            st.integers(min_value=-1, max_value=7),
        ),
        min_size=1,
        max_size=6,
    )
)
@example([(Interval(-0.0, 1.0), [Interval(0.0, 1.0), Interval(-0.0, 2.0)], 2)])
@example([(Interval(1.0, 1.0), [Interval(1.0, 1.0), Interval(0.0, 1.0)], 2)])
@example([(Interval(-1.0, 1.0), [], 0), (Interval(-1.0, 1.0), [], 1)])
@example([(Interval(2.0, 3.0), [Interval(0.0, 1.0)], 1)])
@settings(max_examples=300, deadline=None)
def test_support_points_equal_scalar_support_point(queries):
    """The batched support-point kernel returns ``support_point``'s float bit
    for bit — tied endpoints, ±0.0, zero-width pieces, ``required <= 0``
    (the centre) and no supported point (``None``, here ``NaN``) — on a
    ragged batch of prefixes."""
    lo = np.asarray([candidate.lo for candidate, _prefix, _required in queries])
    hi = np.asarray([candidate.hi for candidate, _prefix, _required in queries])
    t_lo = expectation_module._padded([[s.lo for s in prefix] for _c, prefix, _r in queries], np.inf)
    t_hi = expectation_module._padded([[s.hi for s in prefix] for _c, prefix, _r in queries], -np.inf)
    required = np.asarray([needed for _candidate, _prefix, needed in queries])
    batched = expectation_module._support_points(lo, hi, t_lo, t_hi, required).tolist()
    expected = [support_point(candidate, prefix, needed) for candidate, prefix, needed in queries]
    assert [_bits(value) for value in batched] == [_bits(value) for value in expected]


# ----------------------------------------------------------------------
# The one memo table: entries, tallies and stored stealth modes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine", [ScalarEngine(), BatchEngine()], ids=lambda e: e.name)
@pytest.mark.parametrize("schedule", [DescendingSchedule(), RandomSchedule()], ids=lambda s: s.name)
def test_memo_holds_one_entry_per_miss(monkeypatch, engine, schedule):
    """Every miss stores exactly one memo entry, and nothing else does
    (Table I row 8, fa = 2, on both engines)."""
    entry = TABLE1_CONFIGURATIONS[7]
    config = ScheduleComparisonConfig(lengths=entry.lengths, fa=entry.fa)
    module = inspect.getmodule(type(engine))
    memos = []
    build = module.rounds_results

    def recording(engine_name, schedule_name, result, budgets, memo=None):
        memos.append(memo)
        return build(engine_name, schedule_name, result, budgets, memo)

    monkeypatch.setattr(module, "rounds_results", recording)
    engine.run_rounds(config, schedule, ExpectationAttack(**COARSE), None, 8, np.random.default_rng(4))
    (memo,) = memos
    stats = memo.stats()
    assert stats["misses"] > 0
    assert stats["entries"] == stats["misses"]


@pytest.mark.parametrize("conservative", [False, True], ids=["faithful", "conservative"])
def test_memo_entries_carry_the_scalar_stealth_mode(monkeypatch, conservative):
    """Each batch memo entry's mode and support are what ``check_admissible``
    reports for its decision in its context, at every lookahead level; the
    one exception is the inadmissible truthful fallback, labelled passive."""
    decide = expectation_module._decide_batch
    seen = []
    depth = []

    def recording(policy, batch):
        depth.append(None)
        try:
            entries, scores = decide(policy, batch)
        finally:
            depth.pop()
        seen.extend(zip(_contexts_of(batch), entries.tolist(), [bool(depth)] * len(batch)))
        return entries, scores

    monkeypatch.setattr(expectation_module, "_decide_batch", recording)
    entry = TABLE1_CONFIGURATIONS[7]
    config = ScheduleComparisonConfig(lengths=entry.lengths, fa=entry.fa)
    spec = ExpectationAttack(conservative=conservative, **COARSE)
    for schedule in (AscendingSchedule(), DescendingSchedule(), RandomSchedule()):
        BatchEngine().run_rounds(config, schedule, spec, None, 8, np.random.default_rng(5))
    # Protection obligations no placement of this width can cover: every
    # candidate, the Δ-centred one and the truthful reading are inadmissible.
    stuck = _context_from((5.0, 8.0, 11.0), 1, 0, seed=2)
    stuck = dataclasses.replace(stuck, protected_points=(stuck.delta.lo - 50.0, stuck.delta.hi + 50.0))
    recording(VectorizedExpectationPolicy(conservative=conservative, **COARSE), ContextBatch.from_contexts([stuck]))
    labels = set()
    for ctx, (lo, hi, support), lookahead in seen:
        mode = AttackerMode.PASSIVE if math.isnan(support) else AttackerMode.ACTIVE
        support = None if math.isnan(support) else support
        decision = Interval(lo, hi)
        check = check_admissible(decision, ctx)
        if check.admissible:
            assert (mode, support) == (check.mode, check.support)
        else:
            assert decision == ctx.own_reading
            assert (mode, support) == (AttackerMode.PASSIVE, None)
        labels.add((mode, check.admissible, lookahead))
    # Both modes occur at the top level and in the lookahead, and the fallback once.
    assert {(AttackerMode.PASSIVE, True), (AttackerMode.ACTIVE, True)} <= {
        (mode, ok) for mode, ok, lookahead in labels if lookahead
    }
    assert (AttackerMode.ACTIVE, True, False) in labels
    assert (AttackerMode.PASSIVE, False, False) in labels


@pytest.mark.parametrize("row", [6, 7], ids=["row7", "row8"])
def test_batched_path_builds_no_per_row_contexts(monkeypatch, row):
    """The batch engine's exact attacker never builds an ``AttackContext``
    (Table I rows 7 and 8, fa = 2, both schedules), and its payload is the
    one an unpatched run gives."""
    entry = TABLE1_CONFIGURATIONS[row]
    config = ScheduleComparisonConfig(lengths=entry.lengths, fa=entry.fa)
    assert entry.fa == 2

    def run():
        return [
            BatchEngine().run_rounds(config, schedule, ExpectationAttack(), None, 12, np.random.default_rng(3))
            for schedule in (AscendingSchedule(), DescendingSchedule())
        ]

    reference = run()

    def refuse(self):
        raise AssertionError("an AttackContext was built on the batched path")

    monkeypatch.setattr(AttackContext, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="batched path"):
        _context_from((5.0, 8.0, 11.0), 1, 0, seed=0)
    for expected, result in zip(reference, run()):
        _assert_rounds_equal(expected, result)


# ----------------------------------------------------------------------
# The play-out: sub-decision scores reused, nothing as long as the rounds
# ----------------------------------------------------------------------

#: A compromised slot, then two correct ones: the one lead position's
#: sub-decision averages its parent candidate's own final rounds.
_REUSE_PATTERN = (True, False, False)
_REUSE_LENGTHS = (8.0, 6.0, 3.0, 11.0, 14.0)


def _shifted(interval: Interval, by: float) -> Interval:
    return Interval(interval.lo + by, interval.hi + by)


def _reuse_siblings() -> dict[str, AttackContext]:
    """Contexts of one play-out (n = 5, one transmitted interval, pattern
    ``_REUSE_PATTERN``), each exercising one way a sub-decision's score is
    unavailable; ``plain`` reuses every sub-decision's score.  Δ is narrower
    than the width, so several passive placements survive the conservative
    gate."""

    def narrowed(context: AttackContext, own: Interval) -> AttackContext:
        return dataclasses.replace(context, own_reading=own, delta=Interval(own.lo + 1.0, own.hi - 1.0))

    plain = _context_from(_REUSE_LENGTHS, 1, 1, seed=1)
    own = plain.own_reading
    # Another width, and an own reading equal to plain's at 9 decimals but
    # not bit for bit: the truthful candidates' sub-contexts share a key.
    twin = narrowed(dataclasses.replace(plain, width=7.0), _shifted(own, 1e-12))
    # Δ pins every placement to cover 4 units: no width-3 sub-decision can
    # (each sub-context falls back to its one truthful candidate).
    pinned = dataclasses.replace(narrowed(plain, own), protected_points=(own.lo + 1.0, own.lo + 5.0))
    # Δ wider than the width: every placement is active, supported by the one
    # transmitted interval only, so the conservative gate blocks them all.
    wide = dataclasses.replace(plain, delta=Interval(own.lo - 1.0, own.hi + 1.0))
    prefilled = _context_from(_REUSE_LENGTHS, 1, 1, seed=2)
    return {
        "plain": narrowed(plain, own),
        "prefilled": narrowed(prefilled, prefilled.own_reading),
        "twin": twin,
        "pinned": pinned,
        "wide": wide,
    }


def _record_playouts(monkeypatch, reuse: bool) -> dict:
    """``{playout: [fused, scores]}`` for every ``_REUSE_PATTERN`` play-out,
    ``fused`` listing the live candidates each ``_fuse`` call fused; with
    ``reuse=False`` every live candidate is fused."""
    runs = {}
    playout_class = expectation_module._Playout
    advance, scores, fuse = playout_class.advance, playout_class.scores, playout_class._fuse

    def advancing(self):
        advance(self)
        if not reuse:
            self.reused = np.full(self.live.shape[0], np.nan)

    def scoring(self):
        values = scores(self)
        if self.pattern == _REUSE_PATTERN:
            runs.setdefault(self, [[], None])[1] = values
        return values

    def fusing(self, part, offsets):
        if self.pattern == _REUSE_PATTERN:
            runs.setdefault(self, [[], None])[0].extend(self.live[part].tolist())
        return fuse(self, part, offsets)

    monkeypatch.setattr(playout_class, "advance", advancing)
    monkeypatch.setattr(playout_class, "scores", scoring)
    monkeypatch.setattr(playout_class, "_fuse", fusing)
    return runs


@pytest.mark.parametrize("conservative", [False, True], ids=["faithful", "conservative"])
def test_reused_sub_decision_scores_equal_fused_ones(monkeypatch, conservative):
    """A lead sub-decision's score stands in for its parent candidate's
    fused rounds, bit for bit, and exactly the candidates whose
    sub-decision was not scored in a play-out are fused: a memo hit, a
    same-key repeat in the sub-batch, single-candidate sub-contexts; under
    ``conservative`` a context whose every candidate is blocked plays
    nothing out.  The decisions' returned scores are ``NaN`` wherever this
    call did not score the choice."""
    siblings = _reuse_siblings()
    names = list(siblings)
    contexts = list(siblings.values())
    # A repeat of ``plain`` (own reading not in the key) and a stuck context.
    repeat = dataclasses.replace(siblings["plain"], own_reading=_shifted(siblings["plain"].own_reading, 0.5))
    own = siblings["plain"].own_reading
    stuck = dataclasses.replace(siblings["plain"], protected_points=(own.lo - 5.0, own.hi + 5.0))
    batch = ContextBatch.from_contexts(contexts + [repeat, stuck])

    # Cold run of ``prefilled`` alone: keep one lead sub-decision's entry.
    cold = VectorizedExpectationPolicy(conservative=conservative, **COARSE)
    sub_keys = []
    decide = expectation_module._decide_batch

    def capturing(policy, sub):
        sub_keys.append(expectation_module._memo_keys(policy.conservative, sub))
        return decide(policy, sub)

    monkeypatch.setattr(expectation_module, "_decide_batch", capturing)
    decide(cold, ContextBatch.from_contexts([siblings["prefilled"]]))
    monkeypatch.setattr(expectation_module, "_decide_batch", decide)
    (lead_keys,) = sub_keys
    prefilled_key = lead_keys[1]  # the second live candidate's sub-context

    def run(reuse):
        policy = VectorizedExpectationPolicy(conservative=conservative, **COARSE)
        policy.memo[prefilled_key] = cold.memo[prefilled_key]
        with monkeypatch.context() as patch:
            runs = _record_playouts(patch, reuse)
            entries, scores = expectation_module._decide_batch(policy, batch)
        (top,) = [playout for playout in runs if len(playout.batch) == len(contexts)]
        return entries, scores, top, *runs[top]

    entries, scores, playout, fused, values = run(reuse=True)
    ref_entries, _ref_scores, ref_playout, ref_fused, ref_values = run(reuse=False)
    assert values.view(np.int64).tolist() == ref_values.view(np.int64).tolist()
    np.testing.assert_array_equal(entries, ref_entries)
    assert sorted(ref_fused) == ref_playout.live.tolist()

    # Exactly the expected candidates were fused, each once.
    offsets = playout.candidates.offsets.tolist()
    alive = set(playout.live.tolist())
    live = {name: [c for c in range(offsets[i], offsets[i + 1]) if c in alive] for i, name in enumerate(names)}
    assert live["plain"] and len(live["prefilled"]) >= 2 and len(live["pinned"]) >= 2
    assert live["twin"][0] == offsets[names.index("twin")]  # twin's truthful reading
    assert (live["wide"] == []) == conservative
    assert sorted(fused) == sorted([live["prefilled"][1], live["twin"][0]] + live["pinned"])
    # Scores returned for the parent decisions: the chosen candidate's
    # play-out score, NaN for the repeat, the stuck context and a blocked choice.
    bounds = list(zip(playout.cand_lo.tolist(), playout.cand_hi.tolist()))
    decided = entries[: len(contexts), :2].tolist()
    chosen = [bounds.index(tuple(row), a, b) for row, a, b in zip(decided, offsets, offsets[1:])]
    expected_scores = values[chosen]
    if conservative:
        expected_scores[names.index("wide")] = np.nan
    np.testing.assert_array_equal(scores, np.r_[expected_scores, np.nan, np.nan])


def _arrays(value):
    """Every array reachable from ``value`` through attributes, lists and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, (expectation_module._Playout, ContextBatch, expectation_module._Candidates)):
        for item in vars(value).values():
            yield from _arrays(item)


@pytest.mark.parametrize("pattern", [(True, False, False), (False, True, False)], ids=str)
def test_playout_stores_nothing_as_long_as_its_rounds(pattern):
    """Rounds are (live candidate, scenario) pairs: a play-out with many
    more rounds than candidates and scenarios keeps no array anywhere near
    as long as its rounds — per-position decisions are per group — through
    ``advance`` and ``scores``, and its scores equal a per-context play-out's."""
    contexts = [
        dataclasses.replace(_context_from(_REUSE_LENGTHS, 1, 1, seed=seed), remaining_compromised=pattern)
        for seed in (3, 4)
    ]
    policy = VectorizedExpectationPolicy(grid_positions=60)
    batch = ContextBatch.from_contexts(contexts)
    playout = expectation_module._Playout(policy, batch, policy._prepare_candidates(batch))
    rounds = int(playout.per_candidate.sum())
    assert rounds > 10 * (playout.cand_lo.shape[0] + playout.scen_lo.shape[0])
    playout.advance()
    scores = playout.scores()
    assert max(array.size for array in _arrays(playout)) < rounds / 2
    single = []
    for context in contexts:
        alone = ContextBatch.from_contexts([context])
        fresh = VectorizedExpectationPolicy(grid_positions=60)
        single.append(expectation_module._Playout(fresh, alone, fresh._prepare_candidates(alone)))
        single[-1].advance()
    np.testing.assert_array_equal(scores, np.concatenate([one.scores() for one in single]))
