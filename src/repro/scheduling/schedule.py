"""Communication schedules: who transmits when on the shared bus.

The only information available a priori to the system is the set of interval
lengths, so every schedule is a rule that orders sensor indices using the
widths alone.  The paper studies three:

* :class:`AscendingSchedule` — most precise (smallest interval) first; the
  schedule the paper recommends;
* :class:`DescendingSchedule` — least precise first;
* :class:`RandomSchedule` — a fresh uniformly random order every round,
  discussed in the case study as an alternative to a fixed order.

:class:`FixedSchedule` (an explicit permutation) is provided for hand-built
examples such as Figure 5 and for unit tests.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.exceptions import ScheduleError

__all__ = [
    "Schedule",
    "AscendingSchedule",
    "DescendingSchedule",
    "RandomSchedule",
    "FixedSchedule",
    "TrustAwareSchedule",
    "schedule_by_name",
]


class Schedule(abc.ABC):
    """A rule ordering sensor indices given only their interval widths."""

    #: Human-readable name used in reports and benchmark tables.
    name: str = "schedule"

    @abc.abstractmethod
    def order(self, widths: Sequence[float], rng: np.random.Generator) -> tuple[int, ...]:
        """Return the transmission order as a permutation of ``range(len(widths))``."""

    def _validate(self, widths: Sequence[float]) -> None:
        if not widths:
            raise ScheduleError("cannot schedule an empty sensor set")
        if any(w <= 0 for w in widths):
            raise ScheduleError(f"interval widths must be positive, got {tuple(widths)}")


@dataclass(frozen=True)
class AscendingSchedule(Schedule):
    """Most precise sensors transmit first (ties broken by sensor index)."""

    name: str = "ascending"

    def order(self, widths: Sequence[float], rng: np.random.Generator) -> tuple[int, ...]:
        self._validate(widths)
        return tuple(sorted(range(len(widths)), key=lambda i: (widths[i], i)))


@dataclass(frozen=True)
class DescendingSchedule(Schedule):
    """Least precise sensors transmit first (ties broken by sensor index)."""

    name: str = "descending"

    def order(self, widths: Sequence[float], rng: np.random.Generator) -> tuple[int, ...]:
        self._validate(widths)
        return tuple(sorted(range(len(widths)), key=lambda i: (-widths[i], i)))


@dataclass(frozen=True)
class RandomSchedule(Schedule):
    """A fresh uniformly random transmission order every round."""

    name: str = "random"

    def order(self, widths: Sequence[float], rng: np.random.Generator) -> tuple[int, ...]:
        self._validate(widths)
        return tuple(int(i) for i in rng.permutation(len(widths)))


@dataclass(frozen=True)
class FixedSchedule(Schedule):
    """An explicit, fixed permutation of sensor indices."""

    permutation: tuple[int, ...]
    name: str = "fixed"

    def __post_init__(self) -> None:
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ScheduleError(
                f"fixed schedule must be a permutation of 0..{len(self.permutation) - 1}, "
                f"got {self.permutation}"
            )

    def order(self, widths: Sequence[float], rng: np.random.Generator) -> tuple[int, ...]:
        self._validate(widths)
        if len(widths) != len(self.permutation):
            raise ScheduleError(
                f"fixed schedule covers {len(self.permutation)} sensors but {len(widths)} were given"
            )
        return self.permutation


@dataclass(frozen=True)
class TrustAwareSchedule(Schedule):
    """Order sensors by how likely they are to be attacked (most likely first).

    The paper's discussion section makes two points beyond pure precision
    ordering: if it is known which sensor is being attacked, "any schedule
    that places that sensor first would result in a smaller fusion interval";
    and sensors the system is confident cannot be spoofed (e.g. an IMU)
    "should always be placed last in the schedule, thus preventing the
    attacker from knowing their measurements".

    ``spoofability[i]`` is a relative score of how easily sensor ``i`` can be
    compromised (higher = easier).  The schedule transmits more spoofable
    sensors earlier; ties are broken by precision (most precise first, i.e.
    the Ascending rule) and then by index, so with uniform spoofability the
    schedule degenerates to :class:`AscendingSchedule`.
    """

    spoofability: tuple[float, ...]
    name: str = "trust-aware"

    def __post_init__(self) -> None:
        if not self.spoofability:
            raise ScheduleError("trust-aware schedule needs at least one spoofability score")
        if not all(math.isfinite(score) and score >= 0 for score in self.spoofability):
            raise ScheduleError(f"spoofability scores must be finite and non-negative, got {self.spoofability}")

    def order(self, widths: Sequence[float], rng: np.random.Generator) -> tuple[int, ...]:
        self._validate(widths)
        if len(widths) != len(self.spoofability):
            raise ScheduleError(
                f"trust-aware schedule has {len(self.spoofability)} spoofability scores "
                f"but {len(widths)} sensors were given"
            )
        return tuple(
            sorted(range(len(widths)), key=lambda i: (-self.spoofability[i], widths[i], i))
        )


def schedule_by_name(name: str, permutation: Sequence[int] | None = None) -> Schedule:
    """Factory used by benchmarks and examples (``ascending`` / ``descending`` / ``random`` / ``fixed``)."""
    lowered = name.lower()
    if lowered == "ascending":
        return AscendingSchedule()
    if lowered == "descending":
        return DescendingSchedule()
    if lowered == "random":
        return RandomSchedule()
    if lowered == "fixed":
        if permutation is None:
            raise ScheduleError("a fixed schedule needs an explicit permutation")
        return FixedSchedule(tuple(int(i) for i in permutation))
    raise ScheduleError(f"unknown schedule {name!r}")
