"""Unit tests for the vectorized fusion/detection sweep."""

import numpy as np
import pytest

from repro.analysis import figure1_intervals
from repro.batch import batch_detect, batch_fuse, coverage_extremes
from repro.batch import fuse as fuse_module
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
    result = batch_fuse(lowers, uppers, 0)
    assert result.valid.tolist() == [True, False]
    assert result.lo[0] == 1.0 and result.hi[0] == 2.0
    assert np.isnan(result.lo[1]) and np.isnan(result.hi[1])
    assert np.isnan(result.width[1]) and np.isnan(result.center[1])
    assert len(result) == 2


def test_required_at_most_zero_degenerates_to_hull():
    lowers = np.array([[0.0, 5.0]])
    uppers = np.array([[1.0, 6.0]])
    result = coverage_extremes(lowers, uppers, 2 - 3)
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
    result = coverage_extremes(lowers, uppers, mask.sum(axis=1) - 1, mask=mask)
    full = fuse_or_none(intervals, 1)
    sub = fuse_or_none(intervals[:3], 1)
    assert (result.lo[0], result.hi[0]) == (full.lo, full.hi)
    assert (result.lo[1], result.hi[1]) == (sub.lo, sub.hi)


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


@pytest.mark.parametrize(
    ("rows", "sensors", "kernel"),
    [
        (fuse_module._COUNTS_MIN_ROWS - 1, 4, "_swept_extremes"),
        (fuse_module._COUNTS_MIN_ROWS, 4, "_counted_extremes"),
        (fuse_module._COUNTS_MIN_ROWS, fuse_module._COUNTS_MAX_SENSORS, "_counted_extremes"),
        (fuse_module._COUNTS_MIN_ROWS, fuse_module._COUNTS_MAX_SENSORS + 1, "_swept_extremes"),
    ],
)
def test_coverage_extremes_selects_kernel_by_batch_shape(monkeypatch, rows, sensors, kernel):
    calls = []
    for name in ("_swept_extremes", "_counted_extremes"):
        original = getattr(fuse_module, name)
        monkeypatch.setattr(
            fuse_module, name, lambda *args, _name=name, _f=original: calls.append(_name) or _f(*args)
        )
    lowers = np.zeros((rows, sensors))
    result = coverage_extremes(lowers, lowers + 1.0, sensors)
    assert calls == [kernel]
    assert result.valid.all()


@pytest.mark.parametrize("rows", [1, fuse_module._COUNTS_MIN_ROWS])
def test_hull_ties_take_the_sweep_order_signs(rows):
    # With f >= n every point of the hull is covered; the tied extremes are
    # -0.0 and +0.0, and the sweep's order keeps the first lower bound and
    # the last upper bound — the scalar hull shortcut included.
    lowers = np.tile([[-0.0, 0.0], [-1.0, -1.0]], (rows, 1))
    uppers = np.tile([[1.0, 1.0], [-0.0, 0.0]], (rows, 1))
    result = coverage_extremes(lowers, uppers, 0)
    for row in range(2):
        scalar = fuse_or_none([Interval(lowers[row, i], uppers[row, i]) for i in range(2)], 2)
        for got, want in ((result.lo[row], scalar.lo), (result.hi[row], scalar.hi)):
            assert got == want and np.signbit(got) == np.signbit(want)
    assert np.signbit(result.lo[0]) and not np.signbit(result.hi[1])


@pytest.mark.parametrize("rows", [1, fuse_module._COUNTS_MIN_ROWS])
def test_masked_out_nan_takes_no_part(rows):
    # A masked-out entry may hold NaN; both kernels must ignore it rather
    # than let it reach a count.
    lowers = np.tile([np.nan, 0.0], (rows, 1))
    uppers = np.tile([np.nan, 1.0], (rows, 1))
    mask = np.tile([False, True], (rows, 1))
    result = coverage_extremes(lowers, uppers, 1, mask=mask)
    assert result.valid.all()
    np.testing.assert_array_equal(result.lo, 0.0)
    np.testing.assert_array_equal(result.hi, 1.0)


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
        batch_fuse(good_lo, good_hi, -1)


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
    fusion = batch_fuse(lowers, uppers, 0)
    assert not fusion.valid[0]
    assert not batch_detect(lowers, uppers, fusion).any()
