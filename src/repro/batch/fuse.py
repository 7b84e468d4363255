"""Vectorized Marzullo fusion and detection over batches of rounds.

The scalar sweep in :mod:`repro.core.marzullo` processes one round at a time;
this module evaluates ``B`` independent rounds at once by running the same
endpoint sweep as array operations over a ``(B, 2n)`` event matrix:

1. stack the ``2n`` endpoints per round (``+1`` events at lower bounds, ``-1``
   events at upper bounds);
2. sort each row by ``(position, -delta)`` with a single stable
   :func:`numpy.argsort` — opening events are laid out ahead of closing
   events, so stability reproduces the scalar tie rule that opening events
   precede closing events at equal positions (closed-interval semantics);
3. a row-wise cumulative sum of the sorted deltas is the running coverage; the
   fusion lower bound is the position of the first event whose cumulative
   coverage reaches ``n - f`` and the upper bound is the position of the last
   closing event whose *pre-event* coverage still reaches it.

Because the batch sweep performs the same comparisons in the same order as
the scalar sweep, its results are bit-identical to :func:`repro.core.marzullo.fuse`
— a property the test-suite asserts over thousands of random rounds.

Rows whose fusion is empty (the scalar :class:`~repro.core.exceptions.EmptyFusionError`
case) are reported through the ``valid`` mask of :class:`BatchFusion` with
``NaN`` bounds instead of raising, so one bad round cannot abort a 10⁵-round
Monte-Carlo sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import FaultBoundError, FusionError
from repro.core.marzullo import validate_fault_bound

__all__ = [
    "BatchFusion",
    "batch_fuse",
    "batch_fuse_or_none",
    "batch_detect",
    "coverage_extremes",
]


@dataclass(frozen=True)
class BatchFusion:
    """Fusion bounds for a batch of rounds.

    Attributes
    ----------
    lo / hi:
        ``(B,)`` float arrays with the fusion bounds per round; ``NaN`` where
        the round's fusion is empty.
    valid:
        ``(B,)`` boolean mask.  ``valid[b]`` is ``False`` exactly when the
        scalar :func:`repro.core.marzullo.fuse` would raise
        :class:`~repro.core.exceptions.EmptyFusionError` for round ``b``
        (equivalently: :func:`~repro.core.marzullo.fuse_or_none` returns
        ``None``).
    """

    lo: np.ndarray
    hi: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return int(self.lo.shape[0])

    @property
    def width(self) -> np.ndarray:
        """Per-round fusion widths (``NaN`` for empty-fusion rounds)."""
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        """Per-round fusion midpoints — the controller's point estimates."""
        return (self.lo + self.hi) / 2.0


def _validate_bounds(
    lowers: np.ndarray, uppers: np.ndarray, mask: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Coerce and sanity-check a ``(B, n)`` batch of interval bounds."""
    lowers = np.asarray(lowers, dtype=np.float64)
    uppers = np.asarray(uppers, dtype=np.float64)
    if lowers.ndim != 2 or uppers.shape != lowers.shape:
        raise FusionError(
            f"batch bounds must be matching (B, n) arrays, got {lowers.shape} and {uppers.shape}"
        )
    if lowers.shape[1] == 0:
        raise FusionError("cannot fuse an empty collection of intervals")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != lowers.shape:
            raise FusionError(f"mask shape {mask.shape} does not match bounds shape {lowers.shape}")
    active = mask if mask is not None else np.True_
    bad = (~np.isfinite(lowers) | ~np.isfinite(uppers) | (uppers < lowers)) & active
    if np.any(bad):
        raise FusionError("batch bounds must be finite with uppers >= lowers on every active entry")
    return lowers, uppers, mask


def coverage_extremes(
    lowers: np.ndarray,
    uppers: np.ndarray,
    required: np.ndarray | int,
    mask: np.ndarray | None = None,
) -> BatchFusion:
    """Per-row extreme points covered by at least ``required`` intervals.

    This is the raw batched sweep underlying both fusion (``required = n - f``)
    and the attacker's active-mode support search (``required = n - f - far``
    over the already-transmitted prefix).  ``required`` may be a scalar or a
    ``(B,)`` array; ``mask`` marks the intervals that participate per row
    (masked-out entries contribute nothing to coverage).

    Rows where no point reaches the required coverage — including rows whose
    mask is entirely ``False`` — come back with ``valid=False``.  A
    non-positive ``required`` degenerates to the convex hull of the active
    intervals, mirroring the scalar :func:`~repro.core.marzullo.fuse_or_none`.
    """
    batch, n = lowers.shape
    positions = np.empty((batch, 2 * n))
    positions[:, :n] = lowers
    positions[:, n:] = uppers
    if mask is not None:
        # Masked-out events sort to the end and never change the coverage.
        mask2 = np.concatenate([mask, mask], axis=1)
        np.copyto(positions, np.inf, where=~mask2)

    # A *stable* single-key sort realises the scalar `(position, -delta)`
    # event order: opening events occupy the first half of each row, so at
    # equal positions stability keeps them ahead of closing events — the
    # closed-interval tie rule of `_sorted_events`.
    order = np.argsort(positions, axis=1, kind="stable")
    opening = order < n
    if mask is None:
        closing = ~opening
        events = np.arange(1, 2 * n + 1, dtype=np.int32)
    else:
        active = mask2[np.arange(batch)[:, None], order]
        opening &= active
        closing = active ^ opening
        events = np.cumsum(active, axis=1, dtype=np.int32)
    # Running coverage = openings so far - closings so far = 2·openings -
    # events so far: one int32 cumulative sum, no (B, 2n) step array.
    coverage = np.cumsum(opening, axis=1, dtype=np.int32)
    coverage *= 2
    coverage -= events
    req = np.broadcast_to(np.asarray(required, dtype=np.int64), (batch,))[:, None]
    row_index = np.arange(batch)

    # Lower bound: first event where the running coverage reaches `required`
    # (coverage only increases at opening events, so this is an opening event).
    reaches = coverage >= req
    lower_index = np.argmax(reaches, axis=1)
    has_lower = reaches[row_index, lower_index]

    # Upper bound: last closing event whose pre-event coverage (cumsum + 1)
    # still reaches `required`.
    upper_ok = closing & (coverage >= req - 1)
    upper_index = (2 * n - 1) - np.argmax(upper_ok[:, ::-1], axis=1)
    has_upper = upper_ok[row_index, upper_index]

    lo = positions[row_index, order[row_index, lower_index]]
    hi = positions[row_index, order[row_index, upper_index]]
    valid = has_lower & has_upper & (hi >= lo) & np.isfinite(lo) & np.isfinite(hi)
    lo = np.where(valid, lo, np.nan)
    hi = np.where(valid, hi, np.nan)
    return BatchFusion(lo=lo, hi=hi, valid=valid)


def batch_fuse_or_none(
    lowers: np.ndarray,
    uppers: np.ndarray,
    f: int,
    mask: np.ndarray | None = None,
) -> BatchFusion:
    """Batched :func:`repro.core.marzullo.fuse_or_none`.

    Like the scalar variant, the fault bound is *not* checked against
    ``f < ceil(n/2)``; empty-fusion rows are reported via ``valid=False``.
    With a ``mask``, each row fuses only its masked-in intervals and the
    required coverage becomes ``count - f`` per row; rows with an empty mask
    raise (the scalar code rejects fusing an empty collection).
    """
    lowers, uppers, mask = _validate_bounds(lowers, uppers, mask)
    if f < 0:
        raise FaultBoundError(f"fault bound must be non-negative, got f={f}")
    if mask is None:
        counts = np.full(lowers.shape[0], lowers.shape[1], dtype=np.int64)
    else:
        counts = mask.sum(axis=1)
        if np.any(counts == 0):
            raise FusionError("cannot fuse an empty collection of intervals (empty mask row)")
    return coverage_extremes(lowers, uppers, counts - f, mask)


def batch_fuse(lowers: np.ndarray, uppers: np.ndarray, f: int) -> BatchFusion:
    """Batched :func:`repro.core.marzullo.fuse` over a ``(B, n)`` interval array.

    Parameters
    ----------
    lowers / uppers:
        ``(B, n)`` arrays; row ``b`` holds the ``n`` abstract-sensor intervals
        of round ``b``.
    f:
        Assumed number of faulty sensors, validated against ``f < ceil(n/2)``
        exactly like the scalar path.

    Returns
    -------
    BatchFusion
        Per-round fusion bounds; rows where the scalar ``fuse`` would raise
        :class:`~repro.core.exceptions.EmptyFusionError` have ``valid=False``
        and ``NaN`` bounds instead.
    """
    lowers, uppers, _ = _validate_bounds(lowers, uppers, None)
    validate_fault_bound(lowers.shape[1], f)
    return coverage_extremes(lowers, uppers, lowers.shape[1] - f, None)


def batch_detect(lowers: np.ndarray, uppers: np.ndarray, fusion: BatchFusion) -> np.ndarray:
    """Batched overlap detection: flag intervals disjoint from the fusion.

    Returns a ``(B, n)`` boolean array that is ``True`` where the interval
    does **not** intersect its round's fusion interval — the positions the
    scalar :func:`repro.core.detection.detect` lists in ``flagged_indices``.
    Rows with an empty fusion (``valid=False``) flag nothing: the scalar
    pipeline never reaches detection for such rounds.
    """
    lowers = np.asarray(lowers, dtype=np.float64)
    uppers = np.asarray(uppers, dtype=np.float64)
    intersects = (lowers <= fusion.hi[:, None]) & (fusion.lo[:, None] <= uppers)
    return fusion.valid[:, None] & ~intersects
