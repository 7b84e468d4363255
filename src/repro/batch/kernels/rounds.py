"""The JIT Monte-Carlo round body — the numba engine's core.

``_rounds_kernel`` runs one pass per round — greedy stretch forging
(:func:`repro.batch.kernels.attacker._forge_stretch_row`), Marzullo fusion
and overlap detection via the two-pointer sweeps in
:mod:`repro.batch.kernels.sweep` — parallelised over blocks of rows with
per-block scratch, so a 10⁷-sample batch needs no ``(B, 2n)`` event matrix
and no per-slot buffers at all.

:func:`numba_rounds_prepared` runs on the output of the shared
:func:`repro.batch.rounds.prepare_rounds` prologue (so the random stream
is consumed identically) and hands every case the kernel does not cover —
non-fusable attackers and lossy channels — to
:func:`repro.batch.rounds.batch_rounds_prepared`, which is what keeps the
numba engine's results bit-identical to the batch engine for *every*
configuration.
"""

from __future__ import annotations

import numpy as np

from repro.attack.candidates import PASSIVE_WIDTH_TOL
from repro.batch.fuse import BatchFusion
from repro.batch.kernels._compat import njit, prange
from repro.batch.kernels.attacker import _forge_stretch_row
from repro.batch.kernels.sweep import _cover_hi_sorted, _cover_lo_sorted
from repro.batch.rounds import (
    ActiveStretchBatchAttacker,
    BatchRoundConfig,
    BatchRoundResult,
    PreparedRounds,
    batch_rounds_prepared,
    fusable_attacker,
)
from repro.core.marzullo import validate_fault_bound

__all__ = ["numba_rounds_prepared"]

#: Rows per parallel work block.  Large enough to amortise the per-block
#: scratch allocations, small enough to load-balance across threads.
_BLOCK_ROWS = 512


@njit(cache=True, parallel=True)
def _rounds_kernel(
    n,
    f,
    forge,
    right,
    static_mask,
    mask1d,
    mask2d,
    orders,
    fa_rows,
    correct_lo,
    correct_hi,
    widths,
    delta_lo,
    delta_hi,
    passive_tol,
    broadcast_lo,
    broadcast_hi,
    fusion_lo,
    fusion_hi,
    valid,
    flagged,
):
    batch = orders.shape[0]
    blocks = (batch + _BLOCK_ROWS - 1) // _BLOCK_ROWS
    required = n - f
    for block in prange(blocks):
        scratch_lo = np.empty(n)
        scratch_hi = np.empty(n)
        start = block * _BLOCK_ROWS
        stop = min(start + _BLOCK_ROWS, batch)
        for i in range(start, stop):
            if forge and fa_rows[i] > 0:
                mask_row = mask1d if static_mask else mask2d[i]
                _forge_stretch_row(
                    n,
                    f,
                    fa_rows[i],
                    right,
                    orders[i],
                    mask_row,
                    correct_lo[i],
                    correct_hi[i],
                    widths[i],
                    delta_lo[i],
                    delta_hi[i],
                    passive_tol,
                    broadcast_lo[i],
                    broadcast_hi[i],
                    scratch_lo,
                    scratch_hi,
                )
            for s in range(n):
                scratch_lo[s] = broadcast_lo[i, s]
                scratch_hi[s] = broadcast_hi[i, s]
            scratch_lo.sort()
            scratch_hi.sort()
            lo, ok_lo = _cover_lo_sorted(scratch_lo, scratch_hi, n, required)
            hi, ok_hi = _cover_hi_sorted(scratch_lo, scratch_hi, n, required)
            if ok_lo and ok_hi and hi >= lo:
                fusion_lo[i] = lo
                fusion_hi[i] = hi
                valid[i] = True
                for s in range(n):
                    flagged[i, s] = not (broadcast_lo[i, s] <= hi and lo <= broadcast_hi[i, s])
            else:
                fusion_lo[i] = np.nan
                fusion_hi[i] = np.nan
                valid[i] = False
                for s in range(n):
                    flagged[i, s] = False


def numba_rounds_prepared(
    prepared: PreparedRounds,
    config: BatchRoundConfig,
    rng: np.random.Generator,
) -> BatchRoundResult:
    """The JIT simulation body over an already-prepared batch.

    Drop-in counterpart of :func:`repro.batch.rounds.batch_rounds_prepared`
    (identical contract, bit-identical results): packed batches from
    :func:`repro.batch.rounds.concat_prepared` run one kernel pass.
    """
    if not fusable_attacker(config) or prepared.channel is not None:
        # The JIT kernel covers the fusable attackers only, and its
        # sorted-copy sweep has no masked variant for lossy rounds.
        return batch_rounds_prepared(prepared, config, rng)
    batch, n = prepared.shape
    f = prepared.f
    validate_fault_bound(n, f)  # batch_fuse would; fail before simulating

    broadcast_lo = prepared.sent_lo.copy()
    broadcast_hi = prepared.sent_hi.copy()

    static = bool(prepared.attacked)
    if static:
        fa_rows = np.full(batch, len(prepared.attacked), dtype=np.int64)
        fa_max = len(prepared.attacked)
        mask1d = np.zeros(n, dtype=np.bool_)
        mask1d[list(prepared.attacked)] = True
        mask2d = np.zeros((1, 1), dtype=np.bool_)
    else:
        fa_rows = np.ascontiguousarray(prepared.attacked_mask.sum(axis=1), dtype=np.int64)
        fa_max = int(fa_rows.max()) if batch else 0
        mask1d = np.zeros(n, dtype=np.bool_)
        mask2d = np.ascontiguousarray(prepared.attacked_mask, dtype=np.bool_)
    stretch = type(config.attacker) is ActiveStretchBatchAttacker
    # The attacker protocol resets per batch even when no slot is forged.
    config.attacker.reset(batch)
    forge = bool(stretch and fa_max)
    right = bool(config.attacker.side > 0) if stretch else True

    fusion_lo = np.empty(batch)
    fusion_hi = np.empty(batch)
    valid = np.empty(batch, dtype=np.bool_)
    flagged = np.empty((batch, n), dtype=np.bool_)
    _rounds_kernel(
        n,
        f,
        forge,
        right,
        static,
        mask1d,
        mask2d,
        np.ascontiguousarray(prepared.orders, dtype=np.int64),
        fa_rows,
        np.ascontiguousarray(prepared.correct_lo),
        np.ascontiguousarray(prepared.correct_hi),
        np.ascontiguousarray(prepared.widths),
        np.ascontiguousarray(prepared.delta_lo, dtype=np.float64),
        np.ascontiguousarray(prepared.delta_hi, dtype=np.float64),
        PASSIVE_WIDTH_TOL,
        broadcast_lo,
        broadcast_hi,
        fusion_lo,
        fusion_hi,
        valid,
        flagged,
    )
    return BatchRoundResult(
        orders=prepared.orders,
        correct_lo=prepared.correct_lo,
        correct_hi=prepared.correct_hi,
        broadcast_lo=broadcast_lo,
        broadcast_hi=broadcast_hi,
        fusion=BatchFusion(lo=fusion_lo, hi=fusion_hi, valid=valid),
        flagged=flagged,
        attacked_indices=prepared.attacked,
        fault_mask=prepared.fault_mask,
        attacked_mask=prepared.attacked_mask,
    )
