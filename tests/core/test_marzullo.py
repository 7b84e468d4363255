"""Unit tests for Marzullo's fusion algorithm."""

import pytest

from repro.core import (
    EmptyFusionError,
    FaultBoundError,
    FusionError,
    Interval,
    coverage_profile,
    fuse,
    fuse_or_none,
    kth_largest_upper_bound,
    kth_smallest_lower_bound,
    max_coverage,
    max_safe_fault_bound,
    validate_fault_bound,
)


def figure1_like_intervals():
    """Five intervals with a common point, echoing Figure 1's structure."""
    return [
        Interval(0.0, 4.0),
        Interval(1.5, 5.5),
        Interval(3.0, 6.0),
        Interval(3.5, 9.0),
        Interval(3.8, 10.0),
    ]


class TestValidateFaultBound:
    def test_accepts_valid(self):
        validate_fault_bound(5, 0)
        validate_fault_bound(5, 2)
        validate_fault_bound(4, 1)

    def test_rejects_f_at_or_above_half(self):
        with pytest.raises(FaultBoundError):
            validate_fault_bound(5, 3)
        with pytest.raises(FaultBoundError):
            validate_fault_bound(4, 2)

    def test_rejects_negative_f(self):
        with pytest.raises(FaultBoundError):
            validate_fault_bound(3, -1)

    def test_rejects_zero_sensors(self):
        with pytest.raises(FaultBoundError):
            validate_fault_bound(0, 0)

    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2), (7, 3)])
    def test_max_safe_fault_bound(self, n, expected):
        assert max_safe_fault_bound(n) == expected

    def test_max_safe_fault_bound_invalid_n(self):
        with pytest.raises(FaultBoundError):
            max_safe_fault_bound(0)


class TestFuse:
    def test_single_interval_f0(self):
        assert fuse([Interval(1, 2)], 0) == Interval(1, 2)

    def test_f0_is_intersection(self):
        intervals = figure1_like_intervals()
        assert fuse(intervals, 0) == Interval(3.8, 4.0)

    def test_f_grows_fusion_interval(self):
        intervals = figure1_like_intervals()
        widths = [fuse(intervals, f).width for f in range(3)]
        assert widths[0] <= widths[1] <= widths[2]

    def test_f1_known_value(self):
        intervals = figure1_like_intervals()
        assert fuse(intervals, 1) == Interval(3.5, 5.5)

    def test_f2_known_value(self):
        intervals = figure1_like_intervals()
        assert fuse(intervals, 2) == Interval(3.0, 6.0)

    def test_two_disjoint_intervals_f0_empty(self):
        with pytest.raises(EmptyFusionError):
            fuse([Interval(0, 1), Interval(2, 3), Interval(0.5, 2.5)], 0)

    def test_fault_bound_validated(self):
        with pytest.raises(FaultBoundError):
            fuse([Interval(0, 1), Interval(0, 1)], 1)

    def test_empty_input_rejected(self):
        with pytest.raises(FusionError):
            fuse([], 0)

    def test_touching_intervals_count_as_overlap(self):
        # Closed-interval semantics: [0,1] and [1,2] share the point 1.
        assert fuse([Interval(0, 1), Interval(1, 2), Interval(0.5, 1.5)], 1) == Interval(0.5, 1.5)

    def test_duplicate_intervals(self):
        s = Interval(2, 4)
        assert fuse([s, s, s], 1) == s

    def test_order_invariance(self):
        intervals = figure1_like_intervals()
        reversed_result = fuse(list(reversed(intervals)), 2)
        assert reversed_result == fuse(intervals, 2)

    def test_translation_equivariance(self):
        intervals = figure1_like_intervals()
        shifted = [s.shift(7.5) for s in intervals]
        assert fuse(shifted, 1) == fuse(intervals, 1).shift(7.5)

    def test_under_provisioned_f_can_exclude_the_true_value(self):
        # Two forged intervals far from the truth against f = 1: with more
        # compromised sensors than f the forged cluster outvotes the correct one.
        fusion = fuse([Interval(-0.25, 0.25), Interval(4.0, 5.0), Interval(4.2, 5.2)], 1)
        assert not fusion.contains(0.0)

    def test_fusion_for_n_minus_1_faults_is_hull(self):
        # For f = n - 1 (only reachable through fuse_or_none because the
        # safety requirement forbids it) every point of any interval counts.
        intervals = [Interval(0, 1), Interval(5, 6)]
        assert fuse_or_none(intervals, 1) == Interval(0, 6)


class TestFuseOrNone:
    def test_returns_none_on_insufficient_coverage(self):
        assert fuse_or_none([Interval(0, 1), Interval(2, 3)], 0) is None

    def test_negative_f_rejected(self):
        with pytest.raises(FaultBoundError):
            fuse_or_none([Interval(0, 1)], -1)

    def test_empty_rejected(self):
        with pytest.raises(FusionError):
            fuse_or_none([], 0)

    def test_f_at_least_n_gives_hull(self):
        assert fuse_or_none([Interval(0, 1), Interval(4, 5)], 2) == Interval(0, 5)

    def test_agrees_with_fuse_when_valid(self):
        intervals = figure1_like_intervals()
        assert fuse_or_none(intervals, 2) == fuse(intervals, 2)


class TestCoverageProfile:
    def test_empty(self):
        assert coverage_profile([]) == []

    def test_single_interval(self):
        profile = coverage_profile([Interval(0, 2)])
        assert max(seg.coverage for seg in profile) == 1
        assert profile[0].lo == 0.0
        assert profile[-1].hi == 2.0

    def test_max_coverage_overlapping(self):
        intervals = [Interval(0, 3), Interval(1, 4), Interval(2, 5)]
        assert max_coverage(intervals) == 3

    def test_max_coverage_disjoint(self):
        assert max_coverage([Interval(0, 1), Interval(2, 3)]) == 1

    def test_max_coverage_touching_point(self):
        # The single shared point 1 is covered by both closed intervals.
        assert max_coverage([Interval(0, 1), Interval(1, 2)]) == 2

    def test_profile_covers_hull(self):
        intervals = [Interval(0, 1), Interval(3, 4)]
        profile = coverage_profile(intervals)
        assert profile[0].lo == 0.0
        assert profile[-1].hi == 4.0
        # The gap between the clusters is reported with zero coverage.
        assert any(seg.coverage == 0 for seg in profile)

    def test_profile_consistent_with_pointwise_count(self):
        intervals = [Interval(0, 2), Interval(1, 3), Interval(1.5, 1.8)]
        for value in (0.5, 1.2, 1.6, 2.5, 3.0):
            expected = sum(1 for s in intervals if s.contains(value))
            covering = [
                seg.coverage for seg in coverage_profile(intervals) if seg.lo <= value <= seg.hi
            ]
            assert max(covering) == expected


class TestOrderStatistics:
    def test_kth_smallest_lower_bound(self):
        intervals = [Interval(3, 4), Interval(1, 2), Interval(2, 5)]
        assert kth_smallest_lower_bound(intervals, 1) == 1
        assert kth_smallest_lower_bound(intervals, 2) == 2
        assert kth_smallest_lower_bound(intervals, 3) == 3

    def test_kth_largest_upper_bound(self):
        intervals = [Interval(3, 4), Interval(1, 2), Interval(2, 5)]
        assert kth_largest_upper_bound(intervals, 1) == 5
        assert kth_largest_upper_bound(intervals, 2) == 4
        assert kth_largest_upper_bound(intervals, 3) == 2

    def test_out_of_range_k_rejected(self):
        with pytest.raises(FusionError):
            kth_smallest_lower_bound([Interval(0, 1)], 2)
        with pytest.raises(FusionError):
            kth_largest_upper_bound([Interval(0, 1)], 0)
