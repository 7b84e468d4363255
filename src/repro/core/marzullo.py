"""Marzullo's fault-tolerant sensor-fusion algorithm.

Given ``n`` closed intervals and an assumed number of faulty sensors ``f``,
the fusion interval ``S_{N,f}`` is

* lower bound: the smallest point contained in at least ``n - f`` intervals,
* upper bound: the largest point contained in at least ``n - f`` intervals.

Intuitively, since at least ``n - f`` intervals are correct, any point covered
by ``n - f`` intervals might be the true value and must be kept.

The implementation is the classic endpoint sweep: sort the ``2n`` endpoints,
walk the line keeping a running coverage count, and record the first and last
points at which the coverage reaches ``n - f``.  Complexity ``O(n log n)``.

The module also exposes the coverage profile itself (used by attack policies
that reason about "the (n - f - fa)-th smallest lower bound") and Marzullo's
original guarantees as predicates so that they can be property-tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.exceptions import EmptyFusionError, FaultBoundError, FusionError
from repro.core.interval import Interval

__all__ = [
    "fuse",
    "fuse_or_none",
    "coverage_profile",
    "max_coverage",
    "kth_smallest_lower_bound",
    "kth_largest_upper_bound",
    "validate_fault_bound",
    "max_safe_fault_bound",
    "CoverageSegment",
]


@dataclass(frozen=True)
class CoverageSegment:
    """A maximal segment of the real line with constant interval coverage.

    ``coverage`` intervals of the input contain every point of
    ``[lo, hi]`` (endpoints included; adjacent segments share endpoints).
    """

    lo: float
    hi: float
    coverage: int


def validate_fault_bound(n: int, f: int) -> None:
    """Validate Marzullo's safety requirement ``0 <= f < ceil(n / 2)``.

    The paper only uses the algorithm in this regime: for ``f >= ceil(n/2)``
    the fusion interval can be arbitrarily large and may miss the true value,
    so such configurations are rejected outright.

    Raises
    ------
    FaultBoundError
        If the pair ``(n, f)`` violates the requirement.
    """
    if n <= 0:
        raise FaultBoundError(f"sensor fusion needs at least one interval, got n={n}")
    if f < 0:
        raise FaultBoundError(f"fault bound must be non-negative, got f={f}")
    if f >= math.ceil(n / 2):
        raise FaultBoundError(
            f"fault bound f={f} violates f < ceil(n/2) = {math.ceil(n / 2)} for n={n}; "
            "the fusion interval would be unbounded"
        )


def max_safe_fault_bound(n: int) -> int:
    """Return the largest ``f`` satisfying ``f < ceil(n / 2)``.

    This is the conservative upper bound ``f = ceil(n/2) - 1`` that the
    paper's simulations use throughout (Section IV-A).
    """
    if n <= 0:
        raise FaultBoundError(f"sensor fusion needs at least one interval, got n={n}")
    return math.ceil(n / 2) - 1


def _sorted_events(intervals: Sequence[Interval]) -> list[tuple[float, int]]:
    """Return the sweep events as ``(position, delta)`` sorted for the sweep.

    Opening events (``+1``) at position ``lo`` are processed before closing
    events (``-1``) at the same position so that closed-interval touching
    counts as overlap, matching the closed-interval semantics of the paper.
    """
    events: list[tuple[float, int]] = []
    for s in intervals:
        events.append((s.lo, +1))
        events.append((s.hi, -1))
    # +1 events first at equal positions: sort by (position, -delta).
    events.sort(key=lambda e: (e[0], -e[1]))
    return events


def coverage_profile(intervals: Iterable[Interval]) -> list[CoverageSegment]:
    """Return the piecewise-constant coverage function of the interval set.

    The result is a list of :class:`CoverageSegment` covering exactly the
    convex hull of the inputs.  Degenerate (single-point) segments are emitted
    where coverage changes at a point, so the maximum coverage reported over
    the segments equals the true pointwise maximum for closed intervals.
    """
    items = list(intervals)
    if not items:
        return []
    events = _sorted_events(items)
    segments: list[CoverageSegment] = []
    coverage = 0
    prev_pos = events[0][0]
    index = 0
    n_events = len(events)
    while index < n_events:
        pos = events[index][0]
        if pos > prev_pos and coverage > 0:
            segments.append(CoverageSegment(prev_pos, pos, coverage))
        elif pos > prev_pos and coverage == 0:
            # A gap between disjoint clusters: record it with zero coverage so
            # the profile tiles the hull completely.
            segments.append(CoverageSegment(prev_pos, pos, 0))
        # Apply all opening events at this position, then note the coverage at
        # the point itself (closed intervals: the point belongs to everything
        # opening or closing here).
        opens = 0
        closes = 0
        while index < n_events and events[index][0] == pos:
            if events[index][1] > 0:
                opens += 1
            else:
                closes += 1
            index += 1
        point_coverage = coverage + opens
        segments.append(CoverageSegment(pos, pos, point_coverage))
        coverage = coverage + opens - closes
        prev_pos = pos
    return segments


def max_coverage(intervals: Iterable[Interval]) -> int:
    """Return the maximum number of intervals sharing a common point."""
    return max((seg.coverage for seg in coverage_profile(intervals)), default=0)


def fuse_or_none(intervals: Sequence[Interval], f: int) -> Interval | None:
    """Marzullo fusion returning ``None`` when no point reaches ``n - f`` coverage.

    Unlike :func:`fuse`, the fault bound is *not* checked against
    ``f < ceil(n/2)``; this variant exists for analysis code that wants to
    inspect the raw algorithm (e.g. to demonstrate why the bound is needed).
    """
    items = list(intervals)
    n = len(items)
    if n == 0:
        raise FusionError("cannot fuse an empty collection of intervals")
    if f < 0:
        raise FaultBoundError(f"fault bound must be non-negative, got f={f}")
    required = n - f
    if required <= 0:
        # Every point of the hull is trivially covered by >= 0 intervals; the
        # natural reading is the convex hull of the inputs.  Ties go to the
        # first lower and the *last* upper bound, the sweep's event order
        # below (the choice only shows for ±0.0).
        return Interval(min(s.lo for s in items), max(s.hi for s in reversed(items)))

    events = _sorted_events(items)
    coverage = 0
    lower: float | None = None
    upper: float | None = None
    for position, delta in events:
        if delta > 0:
            coverage += 1
            if coverage >= required and lower is None:
                lower = position
        else:
            if coverage >= required:
                # The closing endpoint itself is still covered by `coverage`
                # intervals (closed semantics), so it is the best upper bound
                # seen so far.
                upper = position
            coverage -= 1
    if lower is None or upper is None or upper < lower:
        return None
    return Interval(lower, upper)


def fuse(intervals: Sequence[Interval], f: int) -> Interval:
    """Compute Marzullo's fusion interval ``S_{N,f}``.

    Parameters
    ----------
    intervals:
        The ``n`` abstract-sensor intervals.
    f:
        Assumed number of faulty sensors.  Must satisfy ``f < ceil(n / 2)``.

    Returns
    -------
    Interval
        The fusion interval.

    Raises
    ------
    FaultBoundError
        If ``f`` violates the safety requirement.
    EmptyFusionError
        If no point is contained in at least ``n - f`` intervals.  (With a
        correct ``f`` this means more than ``f`` sensors are actually faulty.)
    """
    items = list(intervals)
    validate_fault_bound(len(items), f)
    fused = fuse_or_none(items, f)
    if fused is None:
        raise EmptyFusionError(
            f"no point is covered by at least n - f = {len(items) - f} intervals; "
            "more sensors are faulty than the assumed bound"
        )
    return fused


def kth_smallest_lower_bound(intervals: Iterable[Interval], k: int) -> float:
    """Return the ``k``-th smallest lower bound (1-indexed).

    Used by Theorem 1: ``l_{n-f-fa}`` is the ``(n - f - fa)``-th smallest
    *seen* lower bound.
    """
    lows = sorted(s.lo for s in intervals)
    if not 1 <= k <= len(lows):
        raise FusionError(f"k={k} out of range for {len(lows)} intervals")
    return lows[k - 1]


def kth_largest_upper_bound(intervals: Iterable[Interval], k: int) -> float:
    """Return the ``k``-th largest upper bound (1-indexed)."""
    highs = sorted((s.hi for s in intervals), reverse=True)
    if not 1 <= k <= len(highs):
        raise FusionError(f"k={k} out of range for {len(highs)} intervals")
    return highs[k - 1]
