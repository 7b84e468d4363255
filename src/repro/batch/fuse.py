"""Vectorized Marzullo fusion and detection over batches of rounds.

The scalar sweep in :mod:`repro.core.marzullo` processes one round at a time;
this module evaluates ``B`` independent rounds at once.  Everything rests on
:func:`coverage_extremes`: per round, the least lower bound and the greatest
upper bound covered by at least ``required`` intervals.  Two kernels compute
it, bit for bit alike, and ``coverage_extremes`` picks one by batch shape.

**The endpoint sweep** (:func:`_swept_extremes`, short or wide batches):

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

**Endpoint-coverage counts** (:func:`_counted_extremes`, batches of at least
``_COUNTS_MIN_ROWS`` rows and at most ``_COUNTS_MAX_SENSORS`` columns) read
the sweep's coverage at each endpoint straight from pairwise comparisons, in
sensor-major ``(n, B)`` layout, with no sort.  Its kernel,
:func:`grid_extremes`, also takes rounds laid out as a (scenario × candidate)
grid whose *narrow* columns are shared by a grid column's scenarios and whose
*wide* columns are shared by blocks of grid columns — the exact attacker's
play-outs, :mod:`repro.batch.expectation` — and compares each pair of
columns once where it varies: narrow pairs once per grid column, wide pairs
once per wide entry, and only narrow-vs-wide pairs once per round.  A plain
``(B, n)`` batch is the grid with no narrow columns.  In the stable event
order:

* the coverage just after opening ``i`` is
  ``#{j <= i: l_j <= l_i <= h_j} + #{j > i: l_j < l_i <= h_j}``; the lower
  bound is the least ``l_i`` whose count reaches ``required``, the *first*
  such column on ties;
* the coverage just before closing ``i`` is
  ``#{j < i: l_j <= h_i < h_j} + #{j >= i: l_j <= h_i <= h_j}``; the upper
  bound is the greatest ``h_i`` whose count reaches ``required``, the *last*
  such column on ties.

The tie rule matters only for ``±0.0`` (equal floats otherwise share their
bits), and it is what keeps the two kernels — and the scalar sweep — equal
bit for bit, signed zeros included.  Masked-out entries take part in no
count.  The counts cost about ``6n`` numpy calls per batch against the sort's
fixed dozen, so they lose on short batches.  Measured with numpy 2.4 on a
2-core x86 host, counts against sort: 0.3–0.8x at 64 rows, break-even
between 256 and 384 rows for n = 2–9, 1.9–2.6x at 1,024 rows, 2.8–6.2x at
25,000 rows; at 25,000 rows the advantage falls to 1.2x at n = 32 and to
0.84x at n = 64, where the ``n²`` comparisons outgrow the ``n log n`` sort.

Because both kernels perform the scalar sweep's comparisons in its event
order, their results are bit-identical to :func:`repro.core.marzullo.fuse`
— a property the test-suite asserts over thousands of random rounds, on both
kernels.

Rows whose fusion is empty (the scalar :class:`~repro.core.exceptions.EmptyFusionError`
case) are reported through the ``valid`` mask of :class:`BatchFusion` with
``NaN`` bounds instead of raising, so one bad round cannot abort a 10⁵-round
Monte-Carlo sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import FusionError
from repro.core.marzullo import validate_fault_bound

__all__ = [
    "BatchFusion",
    "batch_fuse",
    "batch_detect",
    "coverage_extremes",
]

#: Rows from which :func:`coverage_extremes` counts endpoint coverage instead
#: of sorting: the first measured batch size at which the counts kernel wins
#: for every n = 2–9 (break-even lies between 256 and 384 rows).
_COUNTS_MIN_ROWS = 384
#: Widest rows the counts kernel takes: it still wins 1.2x at 32 sensors and
#: loses at 64, and its ``uint8`` counters need ``n < 256``.
_COUNTS_MAX_SENSORS = 32


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


def _validate_bounds(lowers: np.ndarray, uppers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coerce and sanity-check a ``(B, n)`` batch of interval bounds."""
    lowers = np.asarray(lowers, dtype=np.float64)
    uppers = np.asarray(uppers, dtype=np.float64)
    if lowers.ndim != 2 or uppers.shape != lowers.shape:
        raise FusionError(
            f"batch bounds must be matching (B, n) arrays, got {lowers.shape} and {uppers.shape}"
        )
    if lowers.shape[1] == 0:
        raise FusionError("cannot fuse an empty collection of intervals")
    # Three whole-array passes, each in the bounds' own memory order
    # (sensor-major views included); NaN fails `isfinite` first, so `<=`
    # only compares finite bounds.
    if not (np.isfinite(lowers).all() and np.isfinite(uppers).all() and (lowers <= uppers).all()):
        raise FusionError("batch bounds must be finite with uppers >= lowers")
    return lowers, uppers


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

    Two kernels compute the same bits (see the module docstring): batches of
    at least ``_COUNTS_MIN_ROWS`` rows with at most ``_COUNTS_MAX_SENSORS``
    columns count endpoint coverage (:func:`_counted_extremes`); shorter or
    wider ones sort (:func:`_swept_extremes`).  The row threshold is the
    measured crossover: the counts' fixed cost loses to one sort on a few
    hundred rows and wins 2–6x on 25,000-row shards.  Both resolve ties in
    the stable sweep's order — openings before closings, each in column
    order — so the lower bound is the first tied column and the upper bound
    the last, which fixes the sign of a ``±0.0`` tie.  The counts kernel
    reads the bounds sensor-major, so ``(B, n)`` arguments that are ``.T``
    views of C-contiguous ``(n, B)`` buffers reach it without a copy.
    """
    batch, n = lowers.shape
    if batch >= _COUNTS_MIN_ROWS and n <= _COUNTS_MAX_SENSORS:
        return _counted_extremes(lowers, uppers, required, mask)
    return _swept_extremes(lowers, uppers, required, mask)


def _fusion(lo: np.ndarray, hi: np.ndarray, found: np.ndarray) -> BatchFusion:
    """Bounds of the rows where both extremes were ``found`` and form an interval."""
    valid = found & (hi >= lo) & np.isfinite(lo) & np.isfinite(hi)
    return BatchFusion(lo=np.where(valid, lo, np.nan), hi=np.where(valid, hi, np.nan), valid=valid)


def _swept_extremes(
    lowers: np.ndarray,
    uppers: np.ndarray,
    required: np.ndarray | int,
    mask: np.ndarray | None = None,
) -> BatchFusion:
    """:func:`coverage_extremes` by one stable sort of each row's endpoints."""
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
    return _fusion(lo, hi, has_lower & has_upper)


def _counted_extremes(
    lowers: np.ndarray,
    uppers: np.ndarray,
    required: np.ndarray | int,
    mask: np.ndarray | None = None,
) -> BatchFusion:
    """:func:`coverage_extremes` by counting, per endpoint, the intervals
    that cover it in the stable sweep's event order — no sort.

    A ``(B, n)`` batch is the :func:`grid_extremes` grid with no narrow
    columns: one scenario of ``B`` rounds, every column wide.
    """
    if mask is None:
        lo, hi, active = lowers.T, uppers.T, None
    else:
        # Masked-out entries become [+inf, +inf] whatever they held (NaN
        # included): no active endpoint sweeps after their opening or before
        # their closing, so they add to no count; their own upper bounds are
        # kept out of the pick.
        batch, n = lowers.shape
        lo = np.full((n, batch), np.inf)
        hi = np.full((n, batch), np.inf)
        np.copyto(lo, lowers.T, where=mask.T)
        np.copyto(hi, uppers.T, where=mask.T)
        active = mask.T[:, None]
    no_narrow = np.empty((0, 1, lowers.shape[0]))
    fusion = grid_extremes(no_narrow, no_narrow, lo[:, None], hi[:, None], required, active=active)
    return BatchFusion(lo=fusion.lo[0], hi=fusion.hi[0], valid=fusion.valid[0])


def grid_extremes(
    narrow_lo: np.ndarray,
    narrow_hi: np.ndarray,
    wide_lo: np.ndarray,
    wide_hi: np.ndarray,
    required: np.ndarray | int,
    repeats: np.ndarray | None = None,
    active: np.ndarray | None = None,
) -> BatchFusion:
    """:func:`coverage_extremes` of a grid of rounds that share columns, by
    endpoint counts; the result's arrays are ``(S, C)``.

    Round ``(s, c)`` — scenario ``s`` of grid column ``c`` — fuses ``a + k``
    intervals, in this order: the ``a`` *narrow* columns ``narrow_*[:, 0,
    c]`` (``(a, 1, C)`` arrays), shared by the ``S`` rounds of grid column
    ``c``, then the ``k`` *wide* columns ``wide_*[:, s, c]`` (``(k, S, C)``
    arrays).  With ``repeats``, the wide arrays are ``(k, S, G)`` and block
    ``g`` stands for ``repeats[g]`` consecutive grid columns.  ``required``
    broadcasts against ``(S, C)``; ``active`` (broadcasting against ``(k,
    S, C)``) keeps masked-out wide upper bounds out of the pick.

    Every coverage count is a sum over pairs of intervals, so each pair is
    compared where it varies: narrow pairs once per grid column, wide pairs
    once per wide entry (:func:`_block_counts`, then block-repeated), and
    only the narrow-vs-wide pairs once per round — four comparisons each, on
    contiguous rows with the narrow row broadcast.  Counts are ``uint8``
    modulo 256; every count of an active entry lies in ``[0, a + k]``, so
    ``a + k < 256`` is required.  Ties resolve in the stable sweep's order —
    the first column takes the lower bound, the last the upper — so the
    result equals :func:`_swept_extremes` on the materialised rounds bit for
    bit, ``±0.0`` included.
    """
    a, k = narrow_lo.shape[0], wide_lo.shape[0]
    wide_lo, wide_hi = np.ascontiguousarray(wide_lo), np.ascontiguousarray(wide_hi)
    wide_opening, wide_closing = _block_counts(wide_lo, wide_hi)
    if repeats is not None:
        wide_lo, wide_hi, wide_opening, wide_closing = (
            np.repeat(array, repeats, axis=2) for array in (wide_lo, wide_hi, wide_opening, wide_closing)
        )
    shape = wide_lo.shape[1:]
    req = np.clip(np.asarray(required, dtype=np.int64), 0, a + k + 1).astype(np.uint8)
    lower, upper = [], []  # (values, ok) blocks in column order
    if a:
        opening = np.empty((a,) + shape, dtype=np.uint8)
        closing = np.empty((a,) + shape, dtype=np.uint8)
        opening[...], closing[...] = _block_counts(narrow_lo, narrow_hi)
        # Until a comparison says otherwise, every narrow interval opens
        # ahead of every wide one, and every wide one closes after every
        # narrow one.
        wide_opening += a
        closing += k
        flags = np.empty((4,) + shape, dtype=bool)
        x, z, w, y = flags
        ux, uz, uw, uy = flags.view(np.uint8)
        for i in range(a):
            for j in range(k):
                np.less(wide_lo[j], narrow_lo[i], out=x)  # j opens ahead of i
                np.less(wide_hi[j], narrow_lo[i], out=z)  # j closed before i opens
                np.less(narrow_hi[i], wide_lo[j], out=w)  # i closed before j opens
                np.less(wide_hi[j], narrow_hi[i], out=y)  # j closes ahead of i
                opening[i] += ux
                opening[i] -= uz
                closing[i] -= uw
                closing[i] -= uy
                wide_opening[j] -= ux
                wide_opening[j] -= uw
                wide_closing[j] += uy
                wide_closing[j] -= uz
        lower.append((narrow_lo, opening >= req))
        upper.append((narrow_hi, closing >= req))
    wide_ok = wide_closing >= req
    if active is not None:
        wide_ok &= active
    # Both picks clamp into one buffer: a fresh one costs more in page
    # faults than the arithmetic.
    clamped = np.empty((a + k,) + shape)
    lower = _pick(lower + [(wide_lo, wide_opening >= req)], clamped, lowest=True)
    upper = _pick(upper + [(wide_hi, wide_ok)], clamped, lowest=False)
    return _fusion(lower, upper, np.True_)


def _block_counts(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``uint8`` coverage counts of ``(m, ...)`` columns among themselves.

    In the stable event order, the coverage just after opening ``i`` is
    ``1 +`` the openings swept ahead of it ``-`` the intervals already closed
    (``h_j < l_i``), and the coverage just before closing ``i`` is the
    openings at or before it (``m - #{j: h_i < l_j}``) ``-`` the closings
    swept ahead of it.  A closed interval has opened first, so both
    differences count exactly the intervals covering the endpoint.
    """
    shape, m = lo.shape, lo.shape[0]
    # As (m, rest): a trailing length-1 axis would make every ufunc call
    # loop one element at a time.
    lo, hi = lo.reshape(m, math.prod(shape[1:])), hi.reshape(m, math.prod(shape[1:]))
    after_opening = _stable_rank(lo)
    before_closing = _stable_rank(hi)
    closed_before = np.zeros(lo.shape, dtype=np.uint8)  # [j]: #{i: h_j < l_i}
    step = np.empty(lo.shape, dtype=bool)
    counts = step.view(np.uint8)
    for i in range(m):
        np.less(hi, lo[i], out=step)
        closed_before += counts
        after_opening[i] -= counts.sum(axis=0, dtype=np.uint8)
    after_opening += 1
    np.subtract(m, closed_before, out=closed_before)
    np.subtract(closed_before, before_closing, out=before_closing)
    return after_opening.reshape(shape), before_closing.reshape(shape)


def _stable_rank(values: np.ndarray) -> np.ndarray:
    """``(m, B)`` uint8: how many other entries of each column a stable sort
    puts ahead of entry ``i`` — ``#{j < i: v_j <= v_i} + #{j > i: v_j < v_i}``.

    Each pair is compared once: for ``j > i``, ``v_i`` goes ahead of ``v_j``
    exactly when ``v_j < v_i`` fails.
    """
    m = values.shape[0]
    rank = np.zeros(values.shape, dtype=np.uint8)
    ahead = np.empty(values.shape, dtype=bool)
    for i in range(m - 1):
        later = ahead[i + 1 :]
        np.less(values[i + 1 :], values[i], out=later)
        rank[i] += later.view(np.uint8).sum(axis=0, dtype=np.uint8)
        rank[i + 1 :] -= later.view(np.uint8)
    rank += np.arange(m, dtype=np.uint8)[:, None]
    return rank


def _pick(blocks: list, clamped: np.ndarray, lowest: bool) -> np.ndarray:
    """The least (``lowest``) or greatest value where ``ok``, over the
    leading axis of ``(values, ok)`` blocks in column order — ``+inf`` /
    ``-inf`` where none is; each ``values`` broadcasts against its ``ok``,
    and ``clamped`` (the blocks' stacked shape) is overwritten.

    Ties go to the first column for the least and the last column for the
    greatest, the stable sweep's order.  Equal floats share their bits except
    ``±0.0``, so only entries whose pick is zero look at the order.  The
    ``ok`` mask is applied branch-free (a ``±inf`` clamp, ``±0.5 · ±inf``),
    since a selection on a random mask mispredicts on every other entry.
    """
    n = clamped.shape[0]
    start = 0
    for values, ok in blocks:
        part = clamped[start : start + ok.shape[0]]
        start += ok.shape[0]
        np.subtract(0.5, ok, out=part)
        np.multiply(part, np.inf if lowest else -np.inf, out=part)
        (np.maximum if lowest else np.minimum)(values, part, out=part)
    best = clamped.min(axis=0) if lowest else clamped.max(axis=0)
    zero = np.flatnonzero(best == 0.0)
    if zero.size:
        flat = clamped.reshape(n, best.size)
        hit = flat[:, zero] == 0.0
        row = np.argmax(hit, axis=0) if lowest else n - 1 - np.argmax(hit[::-1], axis=0)
        best.reshape(-1)[zero] = flat[row, zero]
    return best


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
    lowers, uppers = _validate_bounds(lowers, uppers)
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
