"""Property tests: the batch sweep bit-matches the scalar fusion core.

Every test draws random ``(B, n)`` interval batches — continuous values as
well as coarse grids that force endpoint ties, degenerate intervals and
``±0.0`` endpoints — and asserts exact (bitwise: value *and* sign bit)
agreement between the vectorized sweep and the scalar
:func:`repro.core.marzullo.fuse` / :func:`~repro.core.marzullo.fuse_or_none` /
:func:`repro.core.detection.detect`, including rounds whose fusion is empty.

:func:`~repro.batch.coverage_extremes` has two kernels, chosen by batch
shape.  Each property therefore runs twice: on the ``BATCH`` drawn rows
(the endpoint sort) and on those rows tiled past ``_COUNTS_MIN_ROWS`` (the
endpoint-coverage counts).  The counts kernel's grid form,
:func:`~repro.batch.fuse.grid_extremes`, is checked against the sort on the
rows its shared columns stand for.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchFusion, batch_detect, batch_fuse, coverage_extremes
from repro.batch import fuse as fuse_module
from repro.core import Interval, detect, fuse_or_none, max_safe_fault_bound

BATCH = 6


@st.composite
def _grid_point(draw, low, high):
    """A half-integer in ``[low/2, high/2]``; zero comes with either sign."""
    value = draw(st.integers(min_value=low, max_value=high)) / 2.0
    if value == 0.0 and draw(st.booleans()):
        return -0.0
    return value


KINDS = ["continuous", "grid", "zeros"]


def _intervals(draw, kind, count):
    """``(count, 2)`` interval bounds of one kind: continuous, tie-heavy
    grid-valued or signed-zero-heavy."""
    rows = []
    for _ in range(count):
        if kind == "grid":
            lo = draw(_grid_point(-6, 6))
            hi = lo + draw(st.integers(min_value=0, max_value=8)) / 2.0
            if hi == 0.0:
                hi = draw(st.sampled_from([0.0, -0.0]))
        elif kind == "zeros":
            # Every endpoint at -1, ±0 or 1: most ties are between zeros of
            # either sign, where only the sweep's event order fixes the sign.
            lo = draw(st.sampled_from([-1.0, -0.0, 0.0]))
            hi = draw(st.sampled_from([-0.0, 0.0, 1.0]))
        else:
            lo = draw(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
            hi = lo + draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
        rows.append((lo, hi))
    return np.array(rows).reshape(count, 2)


@st.composite
def interval_batch(draw):
    """A (B, n) batch mixing continuous, tie-heavy grid-valued and
    signed-zero-heavy intervals."""
    n = draw(st.integers(min_value=1, max_value=9))
    bounds = _intervals(draw, draw(st.sampled_from(KINDS)), BATCH * n).reshape(BATCH, n, 2)
    return bounds[:, :, 0], bounds[:, :, 1]


@st.composite
def interval_grid(draw):
    """``grid_extremes`` arguments: ``a`` narrow ``(a, 1, C)`` and ``k`` wide
    ``(k, S, G)`` interval columns, and the wide blocks' per-candidate
    ``repeats`` (``None``: one block per candidate, ``G = C``)."""
    kind = draw(st.sampled_from(KINDS))
    a, k, scenarios = (draw(st.integers(min_value=low, max_value=4)) for low in (1, 0, 1))
    repeats = draw(st.none() | st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(sum))
    blocks = draw(st.integers(min_value=1, max_value=4)) if repeats is None else len(repeats)
    candidates = blocks if repeats is None else sum(repeats)
    narrow = _intervals(draw, kind, a * candidates).reshape(a, 1, candidates, 2)
    wide = _intervals(draw, kind, k * scenarios * blocks).reshape(k, scenarios, blocks, 2)
    return narrow[..., 0], narrow[..., 1], wide[..., 0], wide[..., 1], None if repeats is None else np.array(repeats)


def _both_kernels(*arrays):
    """The per-row arrays as drawn (sort kernel) and tiled past the counts
    kernel's row threshold; ``None`` passes through."""
    reps = -(-fuse_module._COUNTS_MIN_ROWS // BATCH)
    tiled = tuple(None if a is None else np.tile(a, (reps,) + (1,) * (a.ndim - 1)) for a in arrays)
    return [arrays, tiled]


def _scalar_fusion(lowers, uppers, f_of_row, mask=None):
    """Per-row scalar ``fuse_or_none`` of the masked-in intervals as
    ``(lo, hi, valid)`` arrays; ``f_of_row(row, count)`` gives the fault
    bound, or ``None`` for a row that cannot reach its coverage."""
    batch, n = lowers.shape
    lo, hi = np.full(batch, np.nan), np.full(batch, np.nan)
    valid = np.zeros(batch, dtype=bool)
    for row in range(batch):
        intervals = [
            Interval(lowers[row, i], uppers[row, i]) for i in range(n) if mask is None or mask[row, i]
        ]
        f = f_of_row(row, len(intervals)) if intervals else None
        fused = None if f is None else fuse_or_none(intervals, f)
        if fused is not None:
            lo[row], hi[row], valid[row] = fused.lo, fused.hi, True
    return lo, hi, valid


def _assert_same_bits(result, expected):
    """``result`` equals ``expected`` (tiled to its length) in value and sign bit."""
    lo, hi, valid = expected
    reps = len(result) // lo.shape[0]
    np.testing.assert_array_equal(result.valid, np.tile(valid, reps))
    for got, want in ((result.lo, np.tile(lo, reps)), (result.hi, np.tile(hi, reps))):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@given(interval_batch())
@settings(max_examples=120, deadline=None)
def test_batch_fuse_bitmatches_scalar_in_valid_regime(batch):
    lowers, uppers = batch
    f = max_safe_fault_bound(lowers.shape[1])
    expected = _scalar_fusion(lowers, uppers, lambda row, count: f)
    for lo, hi in _both_kernels(lowers, uppers):
        _assert_same_bits(batch_fuse(lo, hi, f), expected)


@given(interval_batch(), st.integers(min_value=0, max_value=11))
@settings(max_examples=120, deadline=None)
def test_coverage_extremes_bitmatches_scalar_for_any_f(batch, f):
    lowers, uppers = batch
    expected = _scalar_fusion(lowers, uppers, lambda row, count: f)
    for lo, hi in _both_kernels(lowers, uppers):
        _assert_same_bits(coverage_extremes(lo, hi, lo.shape[1] - f), expected)


@given(interval_batch())
@settings(max_examples=60, deadline=None)
def test_batch_detect_bitmatches_scalar_detect(batch):
    lowers, uppers = batch
    n = lowers.shape[1]
    f = max_safe_fault_bound(n)
    for lo, hi in _both_kernels(lowers, uppers):
        fusion = batch_fuse(lo, hi, f)
        flagged = batch_detect(lo, hi, fusion)
        for row in range(lo.shape[0]):
            if not fusion.valid[row]:
                assert not flagged[row].any()
                continue
            intervals = [Interval(lo[row, i], hi[row, i]) for i in range(n)]
            scalar = detect(intervals, Interval(fusion.lo[row], fusion.hi[row]))
            assert set(np.nonzero(flagged[row])[0]) == set(scalar.flagged_indices)


@given(interval_batch())
@settings(max_examples=60, deadline=None)
def test_masked_rows_equal_scalar_fusion_of_subset(batch):
    lowers, uppers = batch
    f = max_safe_fault_bound(lowers.shape[1])
    rng = np.random.default_rng(0)
    mask = rng.random(lowers.shape) < 0.7
    mask[:, 0] = True
    expected = _scalar_fusion(lowers, uppers, lambda row, count: f, mask)
    for lo, hi, on in _both_kernels(lowers, uppers, mask):
        _assert_same_bits(coverage_extremes(lo, hi, on.sum(axis=1) - f, mask=on), expected)


def _covered_extremes(lowers, uppers, required, mask):
    """Brute force: the extreme endpoints covered by ``max(required, 1)`` intervals.

    The points covered at least ``k`` times form a union of closed intervals
    whose left ends are lower endpoints and whose right ends are upper
    endpoints, so checking the coverage at every endpoint finds both
    extremes exactly (as values: the signs of tied zeros follow the sweep's
    event order, which the scalar-oracle tests pin).
    """
    active = [(lo, hi) for lo, hi, on in zip(lowers, uppers, mask) if on]
    needed = max(int(required), 1)

    def covered(point):
        return sum(lo <= point <= hi for lo, hi in active) >= needed

    lefts = [lo for lo, _ in active if covered(lo)]
    rights = [hi for _, hi in active if covered(hi)]
    if not lefts:
        return None
    return min(lefts), max(rights)


@given(interval_batch(), st.data())
@settings(max_examples=120, deadline=None)
def test_coverage_extremes_matches_brute_force_support(batch, data):
    # The one-sided reading the stretch attacker's support search uses:
    # per-row required counts (including non-positive and unreachable
    # ones) under a per-row participation mask, empty rows included.
    # Masked-out entries hold NaN: they must take part in nothing.
    lowers, uppers = batch
    n = lowers.shape[1]
    required = np.array(
        data.draw(st.lists(st.integers(-1, n + 1), min_size=BATCH, max_size=BATCH))
    )
    mask = np.array(
        data.draw(st.lists(st.booleans(), min_size=BATCH * n, max_size=BATCH * n))
    ).reshape(BATCH, n)
    # The scalar reading of a row: fuse_or_none of its active intervals with
    # f = count - required (a negative f cannot reach the coverage).
    expected = _scalar_fusion(
        lowers, uppers, lambda row, count: None if required[row] > count else count - required[row], mask
    )
    poisoned = (np.where(mask, lowers, np.nan), np.where(mask, uppers, np.nan))
    for lo, hi, need, on in _both_kernels(*poisoned, required, mask):
        result = coverage_extremes(lo, hi, need, mask=on)
        _assert_same_bits(result, expected)
        for row in range(BATCH):
            covered = _covered_extremes(lowers[row], uppers[row], required[row], mask[row])
            assert (covered is not None) == result.valid[row]
            if covered is not None:
                assert (result.lo[row], result.hi[row]) == covered


@given(interval_batch(), st.integers(min_value=-1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_coverage_extremes_scalar_required_without_mask(batch, required):
    lowers, uppers = batch
    n = lowers.shape[1]
    expected = _scalar_fusion(lowers, uppers, lambda row, count: None if required > n else n - required)
    for lo, hi in _both_kernels(lowers, uppers):
        _assert_same_bits(coverage_extremes(lo, hi, required), expected)


@given(interval_grid(), st.data())
@settings(max_examples=300, deadline=None)
def test_grid_extremes_equal_coverage_extremes_on_materialised_rounds(grid, data):
    # Shared narrow and wide columns fuse like the (S·C, a + k) rows they
    # stand for, narrow columns first: coverage_extremes sorts rows this
    # short, so the reference is the other kernel.
    narrow_lo, narrow_hi, wide_lo, wide_hi, repeats = grid
    columns = narrow_lo.shape[0] + wide_lo.shape[0]
    required = data.draw(st.integers(min_value=-1, max_value=columns + 1))
    result = fuse_module.grid_extremes(narrow_lo, narrow_hi, wide_lo, wide_hi, required, repeats=repeats)
    if repeats is not None:
        wide_lo, wide_hi = np.repeat(wide_lo, repeats, axis=2), np.repeat(wide_hi, repeats, axis=2)
    shape = wide_lo.shape[1:]
    assert result.lo.shape == shape
    rows_lo, rows_hi = (
        np.concatenate([np.broadcast_to(narrow, (narrow.shape[0],) + shape), wide]).reshape(columns, -1).T
        for narrow, wide in ((narrow_lo, wide_lo), (narrow_hi, wide_hi))
    )
    expected = coverage_extremes(rows_lo, rows_hi, required)
    flat = BatchFusion(lo=result.lo.ravel(), hi=result.hi.ravel(), valid=result.valid.ravel())
    _assert_same_bits(flat, (expected.lo, expected.hi, expected.valid))


def test_large_seeded_sweep_bitmatches_scalar():
    """A deterministic 1500-round sweep across every n in the paper's range."""
    rng = np.random.default_rng(2024)
    checked = 0
    for n in range(1, 10):
        batch = 1500 // 9
        widths = rng.uniform(0.01, 5.0, (batch, n))
        lowers = -widths * rng.uniform(0.0, 1.0, (batch, n))
        # Shift a third of the rows' first sensor away to create faulty rounds.
        lowers[::3, 0] += rng.uniform(5.0, 30.0)
        uppers = lowers + widths
        for f in range(0, max_safe_fault_bound(n) + 1):
            expected = _scalar_fusion(lowers, uppers, lambda row, count: f)
            # Below and above the counts kernel's row threshold.
            _assert_same_bits(batch_fuse(lowers, uppers, f), expected)
            tiles = (-(-fuse_module._COUNTS_MIN_ROWS // batch), 1)
            _assert_same_bits(batch_fuse(np.tile(lowers, tiles), np.tile(uppers, tiles), f), expected)
            checked += batch
    assert checked >= 1000
