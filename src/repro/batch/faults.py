"""Vectorized transient faults for honest sensors.

Kept apart from :mod:`repro.batch.rounds` (which re-exports it) so that
scenario specs can build and validate their fault model without importing
the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import SensorError

__all__ = ["BatchTransientFaults"]


@dataclass(frozen=True)
class BatchTransientFaults:
    """Vectorized transient faults for honest sensors.

    With probability ``probability`` per (round, sensor) the interval is
    displaced by a uniform ``[min_offset_widths, max_offset_widths]`` multiple
    of its own width in a random direction.  An offset of at least one width
    guarantees the faulty interval no longer contains the true value, matching
    the scalar :class:`repro.sensors.faults.TransientFaultModel` semantics.
    """

    probability: float
    min_offset_widths: float = 1.0
    max_offset_widths: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise SensorError(f"fault probability must be in [0, 1], got {self.probability}")
        if self.min_offset_widths < 1.0:
            raise SensorError(
                "min_offset_widths must be at least 1 so a faulty interval cannot contain the truth"
            )
        if self.max_offset_widths < self.min_offset_widths:
            raise SensorError("max_offset_widths must be >= min_offset_widths")

    def apply(
        self,
        lowers: np.ndarray,
        uppers: np.ndarray,
        eligible: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (faulted lowers, faulted uppers, fault mask) over ``(B, n)``.

        The three draws are ``(B, n)``; the results are ``.T`` views of
        sensor-major ``(n, B)`` buffers, the batch rounds' layout.
        """
        shape = lowers.shape
        lowers, uppers = lowers.T, uppers.T
        hit = np.logical_and(
            rng.random(shape).T < self.probability, eligible.T, out=np.empty(lowers.shape, dtype=bool)
        )
        offsets = rng.uniform(self.min_offset_widths, self.max_offset_widths, shape).T * (uppers - lowers)
        signs = np.where(rng.random(shape).T < 0.5, 1.0, -1.0)
        shift = np.where(hit, signs * offsets, 0.0)
        sent_lo = np.add(lowers, shift, out=np.empty(lowers.shape))
        sent_hi = np.add(uppers, shift, out=np.empty(lowers.shape))
        return sent_lo.T, sent_hi.T, hit.T
