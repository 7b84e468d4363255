"""Property tests: the batch sweep bit-matches the scalar fusion core.

Every test draws random ``(B, n)`` interval batches — continuous values as
well as coarse grids that force endpoint ties and degenerate intervals — and
asserts exact (bitwise) agreement between the vectorized sweep and the scalar
:func:`repro.core.marzullo.fuse` / :func:`~repro.core.marzullo.fuse_or_none` /
:func:`repro.core.detection.detect`, including rounds whose fusion is empty.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import batch_detect, batch_fuse, batch_fuse_or_none, coverage_extremes
from repro.core import Interval, detect, fuse_or_none, max_safe_fault_bound

BATCH = 6


@st.composite
def interval_batch(draw):
    """A (B, n) batch mixing continuous and tie-heavy grid-valued intervals."""
    n = draw(st.integers(min_value=1, max_value=9))
    grid = draw(st.booleans())
    rows = []
    for _ in range(BATCH * n):
        if grid:
            lo = draw(st.integers(min_value=-6, max_value=6)) / 2.0
            width = draw(st.integers(min_value=0, max_value=8)) / 2.0
        else:
            lo = draw(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
            width = draw(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
        rows.append((lo, lo + width))
    bounds = np.array(rows).reshape(BATCH, n, 2)
    return bounds[:, :, 0], bounds[:, :, 1]


def _scalar_rows(lowers, uppers):
    for row in range(lowers.shape[0]):
        yield row, [Interval(lowers[row, i], uppers[row, i]) for i in range(lowers.shape[1])]


def _assert_rows_match(result, lowers, uppers, f):
    for row, intervals in _scalar_rows(lowers, uppers):
        scalar = fuse_or_none(intervals, f)
        if scalar is None:
            assert not result.valid[row]
            assert np.isnan(result.lo[row]) and np.isnan(result.hi[row])
        else:
            assert result.valid[row]
            assert result.lo[row] == scalar.lo
            assert result.hi[row] == scalar.hi


@given(interval_batch())
@settings(max_examples=120, deadline=None)
def test_batch_fuse_bitmatches_scalar_in_valid_regime(batch):
    lowers, uppers = batch
    f = max_safe_fault_bound(lowers.shape[1])
    _assert_rows_match(batch_fuse(lowers, uppers, f), lowers, uppers, f)


@given(interval_batch(), st.integers(min_value=0, max_value=11))
@settings(max_examples=120, deadline=None)
def test_batch_fuse_or_none_bitmatches_scalar_for_any_f(batch, f):
    lowers, uppers = batch
    _assert_rows_match(batch_fuse_or_none(lowers, uppers, f), lowers, uppers, f)


@given(interval_batch())
@settings(max_examples=60, deadline=None)
def test_batch_detect_bitmatches_scalar_detect(batch):
    lowers, uppers = batch
    f = max_safe_fault_bound(lowers.shape[1])
    fusion = batch_fuse(lowers, uppers, f)
    flagged = batch_detect(lowers, uppers, fusion)
    for row, intervals in _scalar_rows(lowers, uppers):
        if not fusion.valid[row]:
            assert not flagged[row].any()
            continue
        scalar = detect(intervals, Interval(fusion.lo[row], fusion.hi[row]))
        assert set(np.nonzero(flagged[row])[0]) == set(scalar.flagged_indices)


@given(interval_batch())
@settings(max_examples=60, deadline=None)
def test_masked_rows_equal_scalar_fusion_of_subset(batch):
    lowers, uppers = batch
    n = lowers.shape[1]
    f = max_safe_fault_bound(n)
    rng = np.random.default_rng(0)
    mask = rng.random(lowers.shape) < 0.7
    mask[:, 0] = True
    result = batch_fuse_or_none(lowers, uppers, f, mask=mask)
    for row in range(lowers.shape[0]):
        subset = [Interval(lowers[row, i], uppers[row, i]) for i in range(n) if mask[row, i]]
        scalar = fuse_or_none(subset, f)
        if scalar is None:
            assert not result.valid[row]
        else:
            assert result.valid[row]
            assert result.lo[row] == scalar.lo and result.hi[row] == scalar.hi


def _covered_extremes(lowers, uppers, required, mask):
    """Brute force: the extreme endpoints covered by ``max(required, 1)`` intervals.

    The points covered at least ``k`` times form a union of closed intervals
    whose left ends are lower endpoints and whose right ends are upper
    endpoints, so checking the coverage at every endpoint finds both
    extremes exactly.
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
    lowers, uppers = batch
    n = lowers.shape[1]
    required = np.array(
        data.draw(st.lists(st.integers(-1, n + 1), min_size=BATCH, max_size=BATCH))
    )
    mask = np.array(
        data.draw(st.lists(st.booleans(), min_size=BATCH * n, max_size=BATCH * n))
    ).reshape(BATCH, n)
    result = coverage_extremes(lowers, uppers, required, mask=mask)
    for row in range(BATCH):
        expected = _covered_extremes(lowers[row], uppers[row], required[row], mask[row])
        if expected is None:
            assert not result.valid[row]
            assert np.isnan(result.lo[row]) and np.isnan(result.hi[row])
        else:
            assert result.valid[row]
            assert (result.lo[row], result.hi[row]) == expected


@given(interval_batch(), st.integers(min_value=-1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_coverage_extremes_scalar_required_without_mask(batch, required):
    lowers, uppers = batch
    n = lowers.shape[1]
    result = coverage_extremes(lowers, uppers, required)
    everyone = np.ones(n, dtype=bool)
    for row in range(BATCH):
        expected = _covered_extremes(lowers[row], uppers[row], required, everyone)
        if expected is None:
            assert not result.valid[row]
        else:
            assert result.valid[row]
            assert (result.lo[row], result.hi[row]) == expected


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
            _assert_rows_match(batch_fuse(lowers, uppers, f), lowers, uppers, f)
            checked += batch
    assert checked >= 1000
