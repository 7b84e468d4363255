"""JIT greedy stretch attacker: the per-row forging step of the per-transmission program.

:func:`_forge_stretch_row` replays, for one round, exactly the decision rule
the per-transmission array program applies per compromised transmission
(:func:`repro.batch.rounds.transmission_rounds`): walk the schedule slots
in order; at the ``j``-th compromised transmission, if no support is
anchored yet and the admissibility threshold ``n - f - (fa - j)`` is
reachable within the transmitted prefix, run the one-sided support sweep
over the prefix broadcasts; once anchored, every later compromised sensor
stretches from the same support point; otherwise fall back to the passive
Δ-anchored placement when the sensor is wide enough, and to the truthful
correct reading when it is not.

All values written are either exact input endpoints or the same float
expressions the NumPy path evaluates (``support ± width``,
``delta ± width``), so forged broadcasts match the NumPy program bit-for-bit
— the hypothesis suite pins :func:`stretch_attack_step` against it.
"""

from __future__ import annotations

import numpy as np

from repro.attack.candidates import PASSIVE_WIDTH_TOL
from repro.batch.kernels._compat import njit, prange
from repro.batch.kernels.sweep import _cover_hi_sorted, _cover_lo_sorted, _sort_prefix

__all__ = ["stretch_attack_step"]


@njit(cache=True)
def _forge_stretch_row(
    n,
    f,
    fa_i,
    right,
    orders_row,
    mask_row,
    correct_lo_row,
    correct_hi_row,
    widths_row,
    delta_lo_i,
    delta_hi_i,
    passive_tol,
    broadcast_lo_row,
    broadcast_hi_row,
    scratch_lo,
    scratch_hi,
):
    """Forge one round's compromised broadcasts in place, in slot order."""
    support = np.nan
    placed = False
    j = 0
    for slot in range(n):
        sensor = orders_row[slot]
        if not mask_row[sensor]:
            continue
        width = widths_row[sensor]
        if not placed:
            required = n - f - (fa_i - j)
            if required >= 1 and slot >= required:
                for p in range(slot):
                    prefix_sensor = orders_row[p]
                    scratch_lo[p] = broadcast_lo_row[prefix_sensor]
                    scratch_hi[p] = broadcast_hi_row[prefix_sensor]
                _sort_prefix(scratch_lo, slot)
                _sort_prefix(scratch_hi, slot)
                if right:
                    point, ok = _cover_hi_sorted(scratch_lo, scratch_hi, slot, required)
                else:
                    point, ok = _cover_lo_sorted(scratch_lo, scratch_hi, slot, required)
                if ok:
                    support = point
                    placed = True
        if placed:
            if right:
                broadcast_lo_row[sensor] = support
                broadcast_hi_row[sensor] = support + width
            else:
                broadcast_lo_row[sensor] = support - width
                broadcast_hi_row[sensor] = support
        elif width >= (delta_hi_i - delta_lo_i) - passive_tol:
            if right:
                broadcast_lo_row[sensor] = delta_lo_i
                broadcast_hi_row[sensor] = delta_lo_i + width
            else:
                broadcast_lo_row[sensor] = delta_hi_i - width
                broadcast_hi_row[sensor] = delta_hi_i
        else:
            broadcast_lo_row[sensor] = correct_lo_row[sensor]
            broadcast_hi_row[sensor] = correct_hi_row[sensor]
        j += 1
        if j >= fa_i:
            break


@njit(cache=True, parallel=True)
def _stretch_kernel(
    n,
    f,
    right,
    orders,
    mask,
    fa_rows,
    correct_lo,
    correct_hi,
    widths,
    delta_lo,
    delta_hi,
    passive_tol,
    broadcast_lo,
    broadcast_hi,
):
    batch = orders.shape[0]
    for i in prange(batch):
        if fa_rows[i] > 0:
            scratch_lo = np.empty(n)
            scratch_hi = np.empty(n)
            _forge_stretch_row(
                n,
                f,
                fa_rows[i],
                right,
                orders[i],
                mask[i],
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


def stretch_attack_step(
    sent_lo: np.ndarray,
    sent_hi: np.ndarray,
    orders: np.ndarray,
    attacked_mask: np.ndarray,
    correct_lo: np.ndarray,
    correct_hi: np.ndarray,
    delta_lo: np.ndarray,
    delta_hi: np.ndarray,
    f: int,
    right: bool = True,
    passive_tol: float = PASSIVE_WIDTH_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Forge a batch of broadcasts with the JIT greedy stretch attacker.

    Returns fresh ``(broadcast_lo, broadcast_hi)`` matrices: ``sent`` bounds
    with every compromised sensor's entry replaced by its forged interval —
    bit-identical to the broadcasts :func:`repro.batch.rounds.transmission_rounds`
    produces for the same inputs (the hypothesis suite asserts it).
    """
    orders = np.ascontiguousarray(orders, dtype=np.int64)
    mask = np.ascontiguousarray(attacked_mask, dtype=np.bool_)
    batch, n = orders.shape
    correct_lo = np.ascontiguousarray(correct_lo, dtype=np.float64)
    correct_hi = np.ascontiguousarray(correct_hi, dtype=np.float64)
    broadcast_lo = np.ascontiguousarray(sent_lo, dtype=np.float64).copy()
    broadcast_hi = np.ascontiguousarray(sent_hi, dtype=np.float64).copy()
    fa_rows = np.ascontiguousarray(mask.sum(axis=1), dtype=np.int64)
    _stretch_kernel(
        n,
        f,
        bool(right),
        orders,
        mask,
        fa_rows,
        correct_lo,
        correct_hi,
        np.ascontiguousarray(correct_hi - correct_lo),
        np.ascontiguousarray(np.broadcast_to(delta_lo, (batch,)), dtype=np.float64),
        np.ascontiguousarray(np.broadcast_to(delta_hi, (batch,)), dtype=np.float64),
        float(passive_tol),
        broadcast_lo,
        broadcast_hi,
    )
    return broadcast_lo, broadcast_hi
