"""The JIT-compiled ``"numba"`` engine: the per-transmission program on numba kernels.

:class:`NumbaEngine` is the batch engine with its simulation body hook
swapped for the JIT round body in :mod:`repro.batch.kernels` — the same
:func:`repro.batch.rounds.prepare_rounds` prologue as the batch engine, so
RNG streams and payloads (artifact keys aside) stay bit-identical across
``"batch"`` and ``"numba"`` (the registry-driven conformance suite asserts
it).

This module imports (and with it, numba when present) only when the engine
is actually requested: :mod:`repro.engine` registers a factory that defers
the import, and registers it at all only when
:func:`repro.batch.kernels.kernels_available` is true.  Importing it by
hand on a machine without numba still works — the kernels fall back to
pure Python (bit-identical, just slow).
"""

from __future__ import annotations

import numpy as np

from repro.batch.kernels.rounds import numba_rounds_prepared
from repro.batch.rounds import BatchRoundConfig, BatchRoundResult, PreparedRounds
from repro.engine.batch import BatchEngine

__all__ = ["NumbaEngine"]


class NumbaEngine(BatchEngine):
    """The vectorized engine driven by the JIT-compiled round kernels."""

    name = "numba"

    def _simulate(
        self, prepared: PreparedRounds, config: BatchRoundConfig, rng: np.random.Generator
    ) -> BatchRoundResult:
        return numba_rounds_prepared(prepared, config, rng)
