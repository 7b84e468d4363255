"""Closed real intervals — the *abstract sensor* representation of the paper.

Every sensor measurement is converted by the controller into a closed real
interval ``[lo, hi]`` that is guaranteed (for a correct sensor) to contain the
true value of the measured physical variable.  The width of the interval
encodes the sensor's precision: wide interval, imprecise sensor.

The :class:`Interval` type in this module is deliberately small and immutable;
it is the currency in which every other subsystem (fusion, attack policies,
schedules, the fusion round, the vehicle case study) trades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.exceptions import EmptyIntersectionError, IntervalError

__all__ = ["Interval", "IntervalSet", "convex_hull", "intersect_all"]


@dataclass(frozen=True, order=True)
class Interval:
    """A closed, bounded, non-empty real interval ``[lo, hi]``.

    Instances are immutable and ordered lexicographically by ``(lo, hi)``,
    which makes lists of intervals sortable in a deterministic way.

    Parameters
    ----------
    lo:
        Lower bound (inclusive).
    hi:
        Upper bound (inclusive).  Must satisfy ``hi >= lo`` and both bounds
        must be finite.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise IntervalError(f"interval bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.hi < self.lo:
            raise IntervalError(f"interval upper bound {self.hi} is below lower bound {self.lo}")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_center(cls, center: float, width: float) -> "Interval":
        """Build the interval of a given ``width`` centred at ``center``.

        This mirrors how the controller constructs an abstract-sensor interval
        from a point measurement and the sensor's precision guarantee: a
        precision of ``delta`` yields an interval of width ``2 * delta``
        centred at the measurement.
        """
        if width < 0:
            raise IntervalError(f"interval width must be non-negative, got {width}")
        half = width / 2.0
        return cls(center - half, center + half)

    @classmethod
    def point(cls, value: float) -> "Interval":
        """Build the degenerate interval ``[value, value]``."""
        return cls(value, value)

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        """Length ``hi - lo`` of the interval (the paper's ``|s|``)."""
        return self.hi - self.lo

    @property
    def center(self) -> float:
        """Midpoint of the interval."""
        return (self.lo + self.hi) / 2.0

    def contains(self, value: float) -> bool:
        """Return ``True`` if ``value`` lies inside the closed interval."""
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """Return ``True`` if ``other`` is entirely inside this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        """Return ``True`` if the two closed intervals share at least a point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def intersection(self, other: "Interval") -> "Interval | None":
        """Return the intersection with ``other`` or ``None`` if disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if hi < lo:
            return None
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """Return the convex hull (smallest interval containing both)."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def shift(self, offset: float) -> "Interval":
        """Return a copy of the interval translated by ``offset``."""
        return Interval(self.lo + offset, self.hi + offset)

    def expand(self, margin: float) -> "Interval":
        """Return a copy grown by ``margin`` on each side (``margin >= 0``)."""
        if margin < 0:
            raise IntervalError(f"expansion margin must be non-negative, got {margin}")
        return Interval(self.lo - margin, self.hi + margin)

    def clamp(self, value: float) -> float:
        """Return ``value`` clipped to the interval."""
        return min(max(value, self.lo), self.hi)

    def distance_to(self, value: float) -> float:
        """Return the distance from ``value`` to the interval (0 if inside)."""
        if value < self.lo:
            return self.lo - value
        if value > self.hi:
            return value - self.hi
        return 0.0

    def almost_equal(self, other: "Interval", tol: float = 1e-9) -> bool:
        """Return ``True`` if both endpoints match up to ``tol``."""
        return abs(self.lo - other.lo) <= tol and abs(self.hi - other.hi) <= tol

    def __contains__(self, value: object) -> bool:
        if isinstance(value, Interval):
            return self.contains_interval(value)
        if isinstance(value, (int, float)):
            return self.contains(float(value))
        return False

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


def convex_hull(intervals: Iterable[Interval]) -> Interval:
    """Return the smallest interval containing every input interval.

    Raises
    ------
    IntervalError
        If the iterable is empty.
    """
    items = list(intervals)
    if not items:
        raise IntervalError("convex hull of an empty interval collection is undefined")
    return Interval(min(s.lo for s in items), max(s.hi for s in items))


def intersect_all(intervals: Iterable[Interval]) -> Interval:
    """Return the intersection of all intervals.

    This is the paper's ``S_{C,0}`` (fusion with ``f = 0``) and the attacker's
    ``Δ`` when applied to the correct readings of the compromised sensors.

    Raises
    ------
    EmptyIntersectionError
        If the intervals have no common point.
    IntervalError
        If the iterable is empty.
    """
    items = list(intervals)
    if not items:
        raise IntervalError("intersection of an empty interval collection is undefined")
    lo = max(s.lo for s in items)
    hi = min(s.hi for s in items)
    if hi < lo:
        raise EmptyIntersectionError(f"intervals have empty intersection (lo={lo} > hi={hi})")
    return Interval(lo, hi)


class IntervalSet(Sequence[Interval]):
    """An ordered, immutable collection of intervals with set-level queries.

    The class is a thin convenience wrapper used by the fusion engine and the
    schedule simulator; it preserves insertion order (which matters because
    transmission order is meaningful in this paper) while providing the
    aggregate geometry queries the algorithms need.
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._intervals: tuple[Interval, ...] = tuple(intervals)
        for item in self._intervals:
            if not isinstance(item, Interval):
                raise IntervalError(f"IntervalSet elements must be Interval, got {type(item)!r}")

    # -- Sequence protocol ------------------------------------------------
    def __len__(self) -> int:
        return len(self._intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __getitem__(self, index):  # type: ignore[override]
        result = self._intervals[index]
        if isinstance(index, slice):
            return IntervalSet(result)
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IntervalSet):
            return self._intervals == other._intervals
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._intervals)

    def __repr__(self) -> str:
        body = ", ".join(str(s) for s in self._intervals)
        return f"IntervalSet([{body}])"

    # -- construction ------------------------------------------------------
    def add(self, interval: Interval) -> "IntervalSet":
        """Return a new set with ``interval`` appended."""
        return IntervalSet(self._intervals + (interval,))

    def extend(self, intervals: Iterable[Interval]) -> "IntervalSet":
        """Return a new set with all ``intervals`` appended."""
        return IntervalSet(self._intervals + tuple(intervals))

    def remove_at(self, index: int) -> "IntervalSet":
        """Return a new set with the interval at ``index`` removed."""
        items = list(self._intervals)
        del items[index]
        return IntervalSet(items)

    # -- aggregate geometry -------------------------------------------------
    @property
    def widths(self) -> tuple[float, ...]:
        """Tuple of interval widths (the paper's set ``L`` for this set)."""
        return tuple(s.width for s in self._intervals)

    def sorted_by_width(self, descending: bool = False) -> "IntervalSet":
        """Return a copy ordered by width (most precise first by default)."""
        return IntervalSet(sorted(self._intervals, key=lambda s: s.width, reverse=descending))

    def hull(self) -> Interval:
        """Convex hull of the whole set."""
        return convex_hull(self._intervals)

    def intersection(self) -> Interval:
        """Common intersection of the whole set (raises if empty)."""
        return intersect_all(self._intervals)

    def coverage(self, value: float) -> int:
        """Number of intervals in the set containing ``value``."""
        return sum(1 for s in self._intervals if s.contains(value))

    def containing(self, value: float) -> "IntervalSet":
        """Subset of intervals that contain ``value``."""
        return IntervalSet(s for s in self._intervals if s.contains(value))

    def count_containing_true_value(self, true_value: float) -> int:
        """Number of *correct* intervals with respect to ``true_value``."""
        return self.coverage(true_value)
