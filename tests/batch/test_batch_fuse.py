"""Unit tests for the vectorized fusion/detection sweep."""

import numpy as np
import pytest

from repro.analysis import figure1_intervals
from repro.batch import (
    batch_detect,
    batch_fuse,
    batch_fuse_or_none,
    coverage_extremes,
)
from repro.core import FaultBoundError, FusionError, Interval, detect, fuse, fuse_or_none


def _bounds(rows):
    lowers = np.array([[s.lo for s in row] for row in rows])
    uppers = np.array([[s.hi for s in row] for row in rows])
    return lowers, uppers


def test_figure1_rows_match_scalar_across_f():
    intervals = figure1_intervals()
    lowers, uppers = _bounds([intervals, list(reversed(intervals))])
    for f in (0, 1, 2):
        result = batch_fuse(lowers, uppers, f)
        expected = fuse(intervals, f)
        assert result.valid.all()
        assert result.lo[0] == expected.lo and result.hi[0] == expected.hi
        assert result.lo[1] == expected.lo and result.hi[1] == expected.hi


def test_empty_fusion_rows_are_masked_not_raised():
    # Row 0 fuses fine; row 1 has two disjoint intervals and required coverage 2.
    lowers = np.array([[0.0, 1.0], [0.0, 5.0]])
    uppers = np.array([[2.0, 3.0], [1.0, 6.0]])
    result = batch_fuse_or_none(lowers, uppers, 0)
    assert result.valid.tolist() == [True, False]
    assert result.lo[0] == 1.0 and result.hi[0] == 2.0
    assert np.isnan(result.lo[1]) and np.isnan(result.hi[1])
    assert np.isnan(result.width[1]) and np.isnan(result.center[1])
    assert len(result) == 2


def test_required_at_most_zero_degenerates_to_hull():
    lowers = np.array([[0.0, 5.0]])
    uppers = np.array([[1.0, 6.0]])
    result = batch_fuse_or_none(lowers, uppers, 3)
    expected = fuse_or_none([Interval(0.0, 1.0), Interval(5.0, 6.0)], 3)
    assert result.valid.all()
    assert (result.lo[0], result.hi[0]) == (expected.lo, expected.hi)


def test_degenerate_point_intervals():
    lowers = np.array([[1.0, 1.0, 0.0]])
    uppers = np.array([[1.0, 1.0, 2.0]])
    result = batch_fuse(lowers, uppers, 1)
    expected = fuse([Interval(1.0, 1.0), Interval(1.0, 1.0), Interval(0.0, 2.0)], 1)
    assert result.valid.all()
    assert (result.lo[0], result.hi[0]) == (expected.lo, expected.hi)


def test_mask_restricts_each_row_to_its_subset():
    intervals = figure1_intervals()
    lowers, uppers = _bounds([intervals, intervals])
    mask = np.array([[True] * 5, [True, True, True, False, False]])
    result = batch_fuse_or_none(lowers, uppers, 1, mask=mask)
    full = fuse_or_none(intervals, 1)
    sub = fuse_or_none(intervals[:3], 1)
    assert (result.lo[0], result.hi[0]) == (full.lo, full.hi)
    assert (result.lo[1], result.hi[1]) == (sub.lo, sub.hi)


def test_empty_mask_row_rejected():
    lowers = np.zeros((2, 3))
    uppers = np.ones((2, 3))
    mask = np.array([[True, True, True], [False, False, False]])
    with pytest.raises(FusionError):
        batch_fuse_or_none(lowers, uppers, 0, mask=mask)


def test_coverage_extremes_per_row_required():
    lowers = np.array([[0.0, 0.5, 0.75], [0.0, 0.5, 0.75]])
    uppers = np.array([[1.0, 3.0, 3.0], [1.0, 3.0, 3.0]])
    result = coverage_extremes(lowers, uppers, np.array([2, 3]))
    assert result.valid.all()
    assert (result.lo[0], result.hi[0]) == (0.5, 3.0)
    assert (result.lo[1], result.hi[1]) == (0.75, 1.0)


@pytest.mark.parametrize("masked", [False, True])
def test_coverage_extremes_exact_ties(masked):
    # Openings precede closings at equal positions (closed intervals):
    # [0,1] and [1,2] share exactly the point 1.  The third column is a
    # far-away interval that the mask switches off; unmasked it only
    # lowers each row's relative coverage, so `required` follows suit.
    lowers = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 9.0], [0.0, 0.0, 9.0]])
    uppers = np.array([[1.0, 2.0, 10.0], [2.0, 1.0, 10.0], [1.0, 1.0, 10.0]])
    mask = np.array([[True, True, False]] * 3) if masked else None
    result = coverage_extremes(lowers, uppers, 2, mask=mask)
    assert result.valid.all()
    np.testing.assert_array_equal(result.lo, [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(result.hi, [1.0, 1.0, 1.0])
    for row in range(3):
        active = [i for i in range(3) if mask is None or mask[row, i]]
        intervals = [Interval(lowers[row, i], uppers[row, i]) for i in active]
        expected = fuse_or_none(intervals, len(intervals) - 2)
        assert (result.lo[row], result.hi[row]) == (expected.lo, expected.hi)


def test_coverage_extremes_masked_ties_with_inactive_endpoints():
    # Masked-out entries sitting exactly on an active endpoint must not
    # step the coverage: row 0 keeps [0,1] ∩ [1,2] = {1}, and row 1 (whose
    # only active interval is [1,1]) reaches coverage 2 nowhere.
    lowers = np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0]])
    uppers = np.array([[1.0, 2.0, 1.0, 1.0], [1.0, 1.0, 1.0, 5.0]])
    mask = np.array([[True, True, False, False], [True, False, False, False]])
    result = coverage_extremes(lowers, uppers, 2, mask=mask)
    assert result.valid.tolist() == [True, False]
    assert (result.lo[0], result.hi[0]) == (1.0, 1.0)
    assert np.isnan(result.lo[1]) and np.isnan(result.hi[1])
    # With every entry active, row 1 is covered twice on exactly [1, 1].
    full = coverage_extremes(lowers, uppers, 2)
    assert (full.lo[1], full.hi[1]) == (1.0, 1.0)
    # Single coverage: the inactive entries (sorted last, at +inf) must not
    # pass for closing events either.
    hull = coverage_extremes(lowers, uppers, 1, mask=mask)
    assert hull.valid.all()
    np.testing.assert_array_equal(hull.lo, [0.0, 1.0])
    np.testing.assert_array_equal(hull.hi, [2.0, 1.0])


def test_validation_errors():
    good_lo, good_hi = np.zeros((2, 3)), np.ones((2, 3))
    with pytest.raises(FusionError):
        batch_fuse(np.zeros(3), np.ones(3), 1)  # 1-D input
    with pytest.raises(FusionError):
        batch_fuse(good_lo, np.ones((2, 4)), 1)  # shape mismatch
    with pytest.raises(FusionError):
        batch_fuse(np.zeros((2, 0)), np.ones((2, 0)), 0)  # no sensors
    with pytest.raises(FusionError):
        batch_fuse(good_lo, np.full((2, 3), np.nan), 1)  # non-finite
    with pytest.raises(FusionError):
        batch_fuse(np.ones((2, 3)), np.zeros((2, 3)), 1)  # hi < lo
    with pytest.raises(FaultBoundError):
        batch_fuse(good_lo, good_hi, 2)  # f >= ceil(n/2)
    with pytest.raises(FaultBoundError):
        batch_fuse_or_none(good_lo, good_hi, -1)
    with pytest.raises(FusionError):
        batch_fuse_or_none(good_lo, good_hi, 0, mask=np.ones((2, 4), dtype=bool))


def test_batch_detect_matches_scalar_detect():
    rng = np.random.default_rng(3)
    widths = rng.uniform(0.5, 4.0, (32, 5))
    lowers = -widths * rng.uniform(0.0, 1.0, (32, 5))
    # Displace one sensor far away in half the rows so some flags appear.
    lowers[::2, 0] += 25.0
    uppers = lowers + widths
    fusion = batch_fuse(lowers, uppers, 2)
    flagged = batch_detect(lowers, uppers, fusion)
    assert flagged.any() and not flagged.all()
    for row in range(32):
        intervals = [Interval(lowers[row, i], uppers[row, i]) for i in range(5)]
        scalar = detect(intervals, Interval(fusion.lo[row], fusion.hi[row]))
        assert set(np.nonzero(flagged[row])[0]) == set(scalar.flagged_indices)


def test_batch_detect_flags_nothing_for_empty_fusion_rows():
    lowers = np.array([[0.0, 5.0]])
    uppers = np.array([[1.0, 6.0]])
    fusion = batch_fuse_or_none(lowers, uppers, 0)
    assert not fusion.valid[0]
    assert not batch_detect(lowers, uppers, fusion).any()
