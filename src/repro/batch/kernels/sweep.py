"""JIT endpoint sweeps: Marzullo fusion and the one-sided support search.

The NumPy counterpart (:func:`repro.batch.fuse.coverage_extremes`, behind
both :func:`~repro.batch.fuse.batch_fuse` and the attacker's support
search) realises the scalar event order — ``(position, -delta)``, openings
ahead of closings at equal positions — with a stable argsort of the event
matrix.  The kernels here sort the lower and upper endpoints *separately*
instead and replay the same event sequence with a two-pointer merge:

* forward (:func:`_cover_lo_sorted`): at equal positions the opening is
  processed first (``lows[a] <= ups[b]``), exactly the stable-sort tie rule, and
  the first event whose post-event coverage reaches ``required`` is
  necessarily an opening — the fusion lower bound.
* backward (:func:`_cover_hi_sorted`): scanning the same sequence in reverse
  processes closings first at equal positions (``ups[b] >= lows[a]``).  For
  a closing event, the reverse-inclusive count of closings minus openings
  equals its forward post-event coverage **plus one** (its own closing), so
  ``backward coverage >= required`` is exactly the forward sweep's
  *pre-event* ``coverage >= required`` rule for the fusion upper bound.

Every reported bound is an exact input endpoint carried through the sorts
unchanged — no arithmetic — which is why the hypothesis suite
(``tests/engine/test_numba_kernels.py``) can pin these kernels bit-for-bit
against the NumPy sweep.
"""

from __future__ import annotations

import numpy as np

from repro.batch.fuse import BatchFusion, _validate_bounds
from repro.batch.kernels._compat import njit, prange
from repro.core.marzullo import validate_fault_bound

__all__ = ["sweep_fusion", "sweep_support"]

#: Prefix lengths up to this bound sort with an in-place insertion sort —
#: branch-cheap and allocation-free for the small ``n`` of the paper's rows.
_INSERTION_SORT_MAX = 32


@njit(cache=True)
def _sort_prefix(values: np.ndarray, k: int) -> None:
    """Sort ``values[:k]`` ascending, in place."""
    if k > _INSERTION_SORT_MAX:
        values[:k].sort()
        return
    for i in range(1, k):
        value = values[i]
        j = i - 1
        while j >= 0 and values[j] > value:
            values[j + 1] = values[j]
            j -= 1
        values[j + 1] = value


@njit(cache=True)
def _cover_lo_sorted(lows: np.ndarray, ups: np.ndarray, k: int, required: int):
    """First event point of the merged sweep with coverage >= ``required``.

    ``lows[:k]`` / ``ups[:k]`` must be ascending.  Returns ``(point, found)``;
    the point — when found — is the fusion lower bound, always one of the
    input lower endpoints.  ``b`` never overruns: before closing ``b`` is
    processed, openings ``0..b`` (whose lows are <= ``ups[b]``) already were,
    so ``a > b`` throughout and ``ups[k-1] >= lows[a]`` keeps ``b < k``.
    """
    coverage = 0
    a = 0
    b = 0
    while a < k:
        if lows[a] <= ups[b]:  # opening first at equal positions
            coverage += 1
            if coverage >= required:
                return lows[a], True
            a += 1
        else:
            coverage -= 1
            b += 1
    return np.nan, False


@njit(cache=True)
def _cover_hi_sorted(lows: np.ndarray, ups: np.ndarray, k: int, required: int):
    """Last closing of the merged sweep whose pre-event coverage >= ``required``.

    The backward mirror of :func:`_cover_lo_sorted` (closings first at equal
    positions); returns ``(point, found)`` with the point — when found — the
    fusion upper bound, always one of the input upper endpoints.  ``a`` never
    underruns: ``lows[0] <= ups[b]`` always takes the closing branch first.
    """
    coverage = 0
    a = k - 1
    b = k - 1
    while b >= 0:
        if ups[b] >= lows[a]:  # closing first at equal positions, in reverse
            coverage += 1
            if coverage >= required:
                return ups[b], True
            b -= 1
        else:
            coverage -= 1
            a -= 1
    return np.nan, False


@njit(cache=True, parallel=True)
def _fusion_kernel(lowers, uppers, required, out_lo, out_hi, out_valid):
    batch, n = lowers.shape
    for i in prange(batch):
        lows = np.empty(n)
        ups = np.empty(n)
        for s in range(n):
            lows[s] = lowers[i, s]
            ups[s] = uppers[i, s]
        lows.sort()
        ups.sort()
        lo, ok_lo = _cover_lo_sorted(lows, ups, n, required)
        hi, ok_hi = _cover_hi_sorted(lows, ups, n, required)
        if ok_lo and ok_hi and hi >= lo:
            out_lo[i] = lo
            out_hi[i] = hi
            out_valid[i] = True
        else:
            out_lo[i] = np.nan
            out_hi[i] = np.nan
            out_valid[i] = False


@njit(cache=True, parallel=True)
def _support_kernel(lowers, uppers, required, right, out_point, out_valid):
    batch, k = lowers.shape
    for i in prange(batch):
        lows = np.empty(k)
        ups = np.empty(k)
        for s in range(k):
            lows[s] = lowers[i, s]
            ups[s] = uppers[i, s]
        lows.sort()
        ups.sort()
        req = required[i]
        if req < 1:
            req = 1
        if right:
            point, ok = _cover_hi_sorted(lows, ups, k, req)
        else:
            point, ok = _cover_lo_sorted(lows, ups, k, req)
        out_point[i] = point
        out_valid[i] = ok


def sweep_fusion(lowers: np.ndarray, uppers: np.ndarray, f: int) -> BatchFusion:
    """JIT counterpart of :func:`repro.batch.fuse.batch_fuse` — bit-identical.

    Same validation (malformed inputs raise), same tie rule, same
    ``NaN``/``valid`` reporting for empty-fusion rows.
    """
    lowers, uppers, _ = _validate_bounds(lowers, uppers, None)
    validate_fault_bound(lowers.shape[1], f)
    batch = lowers.shape[0]
    out_lo = np.empty(batch)
    out_hi = np.empty(batch)
    out_valid = np.empty(batch, dtype=np.bool_)
    _fusion_kernel(
        np.ascontiguousarray(lowers),
        np.ascontiguousarray(uppers),
        lowers.shape[1] - f,
        out_lo,
        out_hi,
        out_valid,
    )
    return BatchFusion(lo=out_lo, hi=out_hi, valid=out_valid)


def sweep_support(
    lowers: np.ndarray,
    uppers: np.ndarray,
    required: int | np.ndarray,
    right: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """JIT one-sided support search: the stretch side of ``coverage_extremes``.

    Returns ``(point, valid)`` with ``point`` the extreme point on the
    stretch side covered by at least ``max(required, 1)`` intervals —
    :func:`repro.batch.fuse.coverage_extremes`'s ``hi`` (``lo`` for a left
    stretch) bit-for-bit, ``NaN`` on invalid rows.
    """
    lowers = np.ascontiguousarray(lowers, dtype=np.float64)
    uppers = np.ascontiguousarray(uppers, dtype=np.float64)
    batch = lowers.shape[0]
    req = np.asarray(required, dtype=np.int64)
    req = np.ascontiguousarray(np.broadcast_to(req, (batch,)))
    out_point = np.empty(batch)
    out_valid = np.empty(batch, dtype=np.bool_)
    _support_kernel(lowers, uppers, req, bool(right), out_point, out_valid)
    return out_point, out_valid
