"""JIT kernels vs their NumPy counterparts: bit-for-bit equivalence.

The conformance suite pins ``NumbaEngine`` against the scalar oracle; this
module pins the *kernels* underneath — :func:`sweep_fusion` against
:func:`repro.batch.fuse.batch_fuse`, :func:`sweep_support` against the
one-sided reading of :func:`repro.batch.fuse.coverage_extremes`, the greedy
:func:`stretch_attack_step` against the per-transmission program's forged
broadcasts, and the full round body against
:func:`repro.batch.rounds.batch_rounds_prepared`.

The kernels run everywhere: with numba installed they are JIT-compiled,
without it (or under ``REPRO_NUMBA_PUREPY=1``) the identity-``njit`` shim
runs the same source as plain Python, so the bit-equality assertions hold
on stdlib+numpy machines too.  Only the compiled-mode checks carry a skip
marker.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.fuse import batch_fuse, coverage_extremes
from repro.batch.kernels import numba_importable, purepy_forced
from repro.batch.kernels._compat import NUMBA_COMPILED
from repro.batch.kernels.attacker import stretch_attack_step
from repro.batch.kernels.rounds import numba_rounds_prepared
from repro.batch.kernels.sweep import sweep_fusion, sweep_support
from repro.batch.rounds import (
    ActiveStretchBatchAttacker,
    BatchRoundConfig,
    BatchTransientFaults,
    batch_rounds_prepared,
    prepare_rounds,
    sample_correct_bounds,
)
from repro.core.exceptions import FaultBoundError, FusionError
from repro.scheduling.schedule import (
    AscendingSchedule,
    DescendingSchedule,
    FixedSchedule,
    RandomSchedule,
)

requires_numba = pytest.mark.skipif(
    not numba_importable(), reason="numba is not installed"
)


def support_points(lowers, uppers, required, right):
    """The stretch-side extreme of the active-mode support search."""
    region = coverage_extremes(lowers, uppers, np.maximum(required, 1))
    return (region.hi if right else region.lo), region.valid


def run_both(lengths, config, samples, seed):
    """The NumPy body and the JIT body on identically prepared rounds."""
    results = []
    for body in (batch_rounds_prepared, numba_rounds_prepared):
        rng = np.random.default_rng(seed)
        lowers, uppers = sample_correct_bounds(lengths, 0.0, samples, rng)
        results.append(body(prepare_rounds(lowers, uppers, config, rng), config, rng))
    return results


def assert_results_equal(a, b):
    np.testing.assert_array_equal(a.orders, b.orders)
    np.testing.assert_array_equal(a.broadcast_lo, b.broadcast_lo)
    np.testing.assert_array_equal(a.broadcast_hi, b.broadcast_hi)
    np.testing.assert_array_equal(a.fusion.lo, b.fusion.lo)
    np.testing.assert_array_equal(a.fusion.hi, b.fusion.hi)
    np.testing.assert_array_equal(a.fusion.valid, b.fusion.valid)
    np.testing.assert_array_equal(a.flagged, b.flagged)
    np.testing.assert_array_equal(a.fault_mask, b.fault_mask)
    np.testing.assert_array_equal(a.attacked_mask, b.attacked_mask)


class TestCompilationMode:
    def test_compiled_flag_matches_environment(self):
        assert NUMBA_COMPILED == (numba_importable() and not purepy_forced())

    @requires_numba
    def test_jit_kernels_compile_unless_purepy_forced(self):
        if purepy_forced():
            pytest.skip("REPRO_NUMBA_PUREPY forces the pure-Python fallback")
        from repro.batch.kernels.sweep import _fusion_kernel

        sweep_fusion(np.zeros((4, 3)), np.ones((4, 3)), 1)
        assert _fusion_kernel.signatures, "expected an njit-compiled dispatcher"


class TestSweepFusionKernel:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), f=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_matches_batch_fuse_random_batches(self, seed, f):
        rng = np.random.default_rng(seed)
        lowers = rng.normal(size=(64, 6))
        uppers = lowers + rng.random((64, 6)) * 3
        a = batch_fuse(lowers, uppers, f)
        b = sweep_fusion(lowers, uppers, f)
        np.testing.assert_array_equal(a.lo, b.lo)
        np.testing.assert_array_equal(a.hi, b.hi)
        np.testing.assert_array_equal(a.valid, b.valid)

    def test_matches_batch_fuse_with_exact_ties(self):
        # The two-pointer merge must keep the opening-before-closing tie
        # rule the stable event sort realises: [0,1] and [1,2] intersect
        # at exactly the point 1 for f=0.
        lowers = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 0.0]])
        uppers = np.array([[1.0, 2.0], [1.0, 3.0], [2.0, 2.0]])
        a = batch_fuse(lowers, uppers, 0)
        b = sweep_fusion(lowers, uppers, 0)
        np.testing.assert_array_equal(a.lo, b.lo)
        np.testing.assert_array_equal(a.hi, b.hi)
        np.testing.assert_array_equal(a.valid, b.valid)
        assert b.valid[0] and b.lo[0] == b.hi[0] == 1.0

    def test_reports_empty_fusions_via_valid_mask(self):
        result = sweep_fusion(np.array([[0.0, 5.0]]), np.array([[1.0, 6.0]]), 0)
        assert not result.valid[0]
        assert np.isnan(result.lo[0]) and np.isnan(result.hi[0])

    def test_validates_like_batch_fuse(self):
        with pytest.raises(FaultBoundError):
            sweep_fusion(np.zeros((2, 3)), np.ones((2, 3)), 2)
        with pytest.raises(FusionError):
            sweep_fusion(np.array([[0.0, 2.0]]), np.array([[1.0, 1.0]]), 1)


class TestSweepSupportKernel:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        k=st.integers(min_value=1, max_value=7),
        right=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_support_points(self, seed, k, right):
        rng = np.random.default_rng(seed)
        lowers = rng.normal(size=(48, k))
        uppers = lowers + rng.random((48, k)) * 2
        required = rng.integers(-1, k + 2, size=48)
        a_point, a_valid = support_points(lowers, uppers, required, right)
        b_point, b_valid = sweep_support(lowers, uppers, required, right)
        np.testing.assert_array_equal(a_valid, b_valid)
        np.testing.assert_array_equal(a_point, b_point)  # NaN on invalid rows
        assert np.isnan(b_point[~b_valid]).all()

    def test_scalar_required_and_exact_ties(self):
        # Two intervals meeting at exactly 1.0: the 2-coverage support on
        # either side is the single shared point.
        lowers = np.array([[0.0, 1.0]])
        uppers = np.array([[1.0, 2.0]])
        for right in (True, False):
            a_point, a_valid = support_points(lowers, uppers, 2, right)
            b_point, b_valid = sweep_support(lowers, uppers, 2, right)
            np.testing.assert_array_equal(a_valid, b_valid)
            np.testing.assert_array_equal(a_point[a_valid], b_point[b_valid])
            assert b_valid[0] and b_point[0] == 1.0


class TestStretchAttackStepKernel:
    @given(
        lengths=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=3, max_size=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        fa=st.integers(min_value=1, max_value=3),
        right=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_per_transmission_forged_broadcasts(self, lengths, seed, fa, right):
        n = len(lengths)
        attacked = tuple(range(min(fa, n - 1)))
        config = BatchRoundConfig(
            schedule=RandomSchedule(),
            attacked_indices=attacked,
            attacker=ActiveStretchBatchAttacker(side=1 if right else -1),
        )
        rng = np.random.default_rng(seed)
        lowers, uppers = sample_correct_bounds(tuple(lengths), 0.0, 48, rng)
        prepared = prepare_rounds(lowers, uppers, config, rng)
        reference = batch_rounds_prepared(prepared, config, rng)
        # Forge with the kernel alone on the same prepared rounds: the
        # broadcasts must match the per-transmission program's bit-for-bit.
        forged_lo, forged_hi = stretch_attack_step(
            prepared.sent_lo,
            prepared.sent_hi,
            prepared.orders,
            prepared.attacked_mask,
            prepared.correct_lo,
            prepared.correct_hi,
            prepared.delta_lo,
            prepared.delta_hi,
            prepared.f,
            right=right,
        )
        np.testing.assert_array_equal(forged_lo, reference.broadcast_lo)
        np.testing.assert_array_equal(forged_hi, reference.broadcast_hi)


class TestNumbaRoundsDriver:
    @pytest.mark.parametrize(
        "schedule",
        [AscendingSchedule(), DescendingSchedule(), RandomSchedule(), FixedSchedule((2, 0, 3, 1, 4))],
        ids=lambda s: s.name,
    )
    @pytest.mark.parametrize("attacked", [(), (0,), (0, 3), (1, 2, 4)])
    @pytest.mark.parametrize("side", [1, -1])
    def test_stretch_parity_with_batch_driver(self, schedule, attacked, side):
        config = BatchRoundConfig(
            schedule=schedule,
            attacked_indices=attacked,
            attacker=ActiveStretchBatchAttacker(side=side),
        )
        assert_results_equal(*run_both((2.0, 3.0, 3.0, 6.0, 8.0), config, 160, seed=3))

    def test_parity_with_transient_faults_and_empty_fusions(self):
        config = BatchRoundConfig(
            schedule=AscendingSchedule(),
            attacked_indices=(0,),
            f=2,
            faults=BatchTransientFaults(probability=0.35),
            attacker=ActiveStretchBatchAttacker(side=1),
        )
        a, b = run_both((1.0,) * 5, config, 256, seed=7)
        assert_results_equal(a, b)
        assert not a.fusion.valid.all(), "expected some empty fusions under heavy faults"

    def test_parity_with_per_round_attacked_mask(self):
        rng = np.random.default_rng(4)
        mask = np.zeros((200, 5), dtype=bool)
        mask[np.arange(200), rng.integers(0, 5, 200)] = True
        mask[np.arange(200), rng.integers(0, 5, 200)] = True  # 1-2 attacked per row
        lowers = -np.random.default_rng(2).random((200, 5))
        uppers = lowers + 2.0
        config = BatchRoundConfig(
            schedule=RandomSchedule(),
            attacker=ActiveStretchBatchAttacker(side=1),
            attacked_mask=mask,
        )
        stream_a, stream_b = np.random.default_rng(9), np.random.default_rng(9)
        a = prepare_rounds(lowers, uppers, config, stream_a)
        b = prepare_rounds(lowers, uppers, config, stream_b)
        assert_results_equal(
            batch_rounds_prepared(a, config, stream_a),
            numba_rounds_prepared(b, config, stream_b),
        )
