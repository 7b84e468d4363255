"""Exception hierarchy for the attack-resilient sensor fusion library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch every library failure with a single ``except`` clause while still
being able to distinguish the individual failure modes.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "IntervalError",
    "EmptyIntersectionError",
    "FusionError",
    "FaultBoundError",
    "EmptyFusionError",
    "AttackError",
    "ScheduleError",
    "SensorError",
    "VehicleError",
    "ExperimentError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class IntervalError(ReproError):
    """Raised for malformed intervals (e.g. lower bound above upper bound)."""


class EmptyIntersectionError(IntervalError):
    """Raised when an intersection that is required to exist is empty."""


class FusionError(ReproError):
    """Raised when sensor fusion cannot be performed.

    Typical causes are an empty input set, a fault bound ``f`` that violates
    the ``f < ceil(n / 2)`` safety requirement, or a configuration in which no
    point is covered by at least ``n - f`` intervals.
    """


class FaultBoundError(FusionError):
    """Raised when the assumed fault bound ``f`` is invalid for ``n`` sensors."""


class EmptyFusionError(FusionError):
    """Raised when no point of the real line is covered by ``n - f`` intervals."""


class AttackError(ReproError):
    """Raised when an attack policy is asked to do something impossible."""


class ScheduleError(ReproError):
    """Raised for malformed communication schedules."""


class SensorError(ReproError):
    """Raised for invalid sensor specifications or measurements."""


class VehicleError(ReproError):
    """Raised for invalid vehicle, controller or platoon configurations."""


class ExperimentError(ReproError):
    """Raised when an experiment or benchmark is configured inconsistently."""
