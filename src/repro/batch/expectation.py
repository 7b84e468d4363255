"""The exact expectation-maximising attacker (problem (2)), vectorized.

:class:`repro.attack.expectation.ExpectationPolicy` scores every candidate
placement by enumerating a (true-value × placement) grid of futures and
fusing each one with a scalar Marzullo sweep — thousands of Python-level
fusion and admissibility sweeps per decision.  This module keeps the
*decision procedure* bit-for-bit identical while evaluating whole batches of
contexts as array passes:

* the contexts of one decision call are one :class:`ContextBatch`, a struct
  of arrays (padded transmitted bounds, remaining widths and flags,
  protected points) sliced from the engine's
  :class:`~repro.batch.rounds.BatchSlotContext` or gathered from a
  play-out's rows — no per-context object is built on this path;
* the candidate placements of every context are one flat bound array (same
  values, same order, same 9-decimal first-occurrence dedup as
  :func:`repro.attack.candidates.candidate_intervals`, via one exact integer
  rounding pass, :func:`_quantize`), filtered by array comparisons that
  evaluate every candidate's passive/active admissibility — and the
  conservative-mode support rule — at once;
* every surviving ``(candidate, scenario)`` combination is a round of a
  lockstep *play-out* (:class:`_Playout`), addressed by that pair into the
  candidate grid, the scenario grid (built with the scalar ``_linspace``
  float operations) and, with ``fa >= 2``, the per-group sub-decisions of
  the later compromised slots — nothing is stored per round; the final
  rounds are fused as (scenario × candidate) grids by
  :func:`repro.batch.fuse.grid_extremes` (bit-identical to the scalar
  :func:`repro.core.marzullo.fuse_or_none`), which compares the intervals a
  candidate's rounds share once per candidate, those its context's
  scenarios share once per scenario, and only the rest per round;
* each round is fused once: when the later compromised slots all precede
  the first correct one, a candidate's lookahead sub-decision has already
  averaged that candidate's final rounds, and the score it returns for its
  choice is reused as the candidate's score;
* the per-candidate mean accumulates the per-scenario widths sequentially in
  the scalar enumeration order, so the scores — and therefore the decisions,
  tie sets included — equal the scalar policy's exactly;
* the support points of active placements (protection obligations) come from
  one masked pass per call, :func:`_support_points`, equal to
  :func:`repro.attack.stealth.support_point` bit for bit.

:class:`VectorizedExpectationPolicy` holds the grid parameters and the one
memo table.  :class:`ExactExpectationBatchAttacker` drives it behind the
:class:`repro.batch.rounds.BatchAttacker` interface: at each schedule slot it
slices the compromised rows into a :class:`ContextBatch`, answers repeated
contexts from the memo — the Ascending-schedule fast path, where whole
swaths of rounds share a decision — and scores all the memo-missing rows in
**one** play-out per remaining-slot pattern (:func:`_decide_batch`, the only
decision path).  With ``fa >= 2`` the play-out decides each later
compromised slot for all rows at once: rows sharing a sub-context form one
group, the groups' sub-contexts are gathered from the play-out's columns
into one :class:`ContextBatch`, and that goes through the same batched
decision procedure one level deeper.

Equivalence contract
--------------------

Round-for-round equivalence with the scalar oracle holds under
``tie_break="first"`` (the engine layer's ``attack="expectation"`` spec):
random tie-breaking would consume the RNG in a different order on the two
backends (round-major versus slot-major) and the streams would diverge.
Memo keys (:func:`_memo_keys`, one :func:`_quantize` pass per batch) are
not :meth:`~repro.attack.context.AttackContext.cache_key` tuples, but two
contexts share one exactly when their ``(conservative, cache_key())`` do.
Decisions are deterministic per context and the transmitted-prefix length
is part of the key, so the slot-major fill order of the batched memo visits
colliding keys in the same order as the scalar round-major loop.  The one caveat: with
``fa >= 2`` a *lookahead* sub-decision (computed with the attacker's Δ
stand-in for her own reading) could in principle pre-fill a key that the
scalar path would first reach top-level; that requires two rounds to collide
on every transmitted bound at 9-decimal precision, which does not occur under
continuous Monte-Carlo sampling — ``tests/batch/test_expectation_batch.py``
pins the bit-equality on seeded sweeps for both ``fa = 1`` and ``fa = 2`` and
both ``conservative`` modes.

See ``docs/ATTACKERS.md`` for where this attacker sits in the catalogue and
``docs/ARCHITECTURE.md`` for the engine seam it plugs into.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain
from typing import Sequence

import numpy as np

from repro import obs
from repro.attack.candidates import PASSIVE_WIDTH_TOL
from repro.attack.context import AttackContext
from repro.attack.expectation import TIE_TOLERANCE
from repro.batch.fuse import grid_extremes
from repro.batch.rounds import BatchAttacker, BatchSlotContext
from repro.core.exceptions import AttackError

__all__ = ["ContextBatch", "VectorizedExpectationPolicy", "ExactExpectationBatchAttacker"]

#: Decimal places of the candidate dedup and of the memo keys; equal to
#: ``repro.attack.candidates._DEDUP_PRECISION`` and the default precision of
#: :meth:`AttackContext.cache_key` (``tests/batch/test_expectation_batch.py``
#: pins all three).
_DEDUP_PRECISION = 9
_SCALE = 10.0**_DEDUP_PRECISION
#: Below this ``|x * _SCALE|`` the scaled product is off the exact decimal
#: shift by at most half an ulp (<= 2**-14), so ``np.rint`` of it is the
#: correctly rounded integer unless the product lies within ``_TIE_MARGIN``
#: of a half-integer.
_FAST_LIMIT = 2.0**40
_TIE_MARGIN = 2.0**-10
#: Below this ``|round(x, 9)|`` distinct 9-decimal values are distinct
#: floats and ``round(x, 9) * _SCALE`` lies within 0.25 of the decimal
#: integer, so that integer is recovered exactly.
_EXACT_LIMIT = 2.0**21

#: Upper bound on the (candidate × scenario) rounds fused per grid; bounds
#: peak memory without changing any result — chunks reproduce the same
#: per-round sweeps.  A play-out stores nothing per round, so one chunk is
#: all its memory that grows with the rounds: at n = 10, 2.4 MB of wide
#: bounds repeated per candidate (two float64 buffers, up to nine columns),
#: a 1.3 MB float64 clamp buffer, 0.8 MB of uint8 counts and bool masks and
#: 0.13 MB per group index.  Chosen by A/B: 65,536 gave the same throughput
#: at 5 MiB more peak RSS.  The admissibility sweep chunks candidates alike.
_FUSE_CHUNK_ROWS = 16_384


def _quantize(values: np.ndarray) -> np.ndarray:
    """Exact int64 keys of ``round(x, 9)``: equal keys iff equal rounded floats.

    The fast path is ``np.rint(x * 1e9)``, the decimal integer Python's
    correctly rounded ``round`` picks.  Values whose scaled product is too
    close to a half-integer to decide, or too large for the product to be
    exact enough, go through ``round(x, 9)`` itself: below ``_EXACT_LIMIT``
    the decimal integer is recovered from the rounded float, so these keys
    share the fast keys' space; above it the key is the rounded float's bit
    pattern, signed, which lies beyond ``±2**62`` and so never meets a
    decimal integer (all below ``2**51``).  ``-0.0`` and ``0.0`` share key 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # beyond ~1e299 the product is inf: slow path
        scaled = values * _SCALE
        keys = np.rint(scaled)
        slow = ~(np.abs(scaled) < _FAST_LIMIT) | (np.abs(scaled - keys) > 0.5 - _TIE_MARGIN)
    out = np.where(slow, 0.0, keys).astype(np.int64)
    index = np.flatnonzero(slow)
    if index.shape[0]:
        rounded = np.asarray([round(value, _DEDUP_PRECISION) for value in values[index].tolist()])
        exact = np.abs(rounded) < _EXACT_LIMIT
        bits = np.abs(rounded).view(np.int64)
        decimal = np.rint(np.where(exact, rounded, 0.0) * _SCALE).astype(np.int64)
        out[index] = np.where(exact, decimal, np.where(rounded > 0, bits, -bits))
    return out


def _present(counts: np.ndarray, width: int) -> np.ndarray:
    """``(len(counts), width)`` mask of the used entries of padded rows."""
    return np.arange(width) < counts[:, None]


def _padded(rows: Sequence[Sequence], fill, dtype=np.float64) -> np.ndarray:
    """Ragged rows as one matrix, padded on the right with ``fill``."""
    out = np.full((len(rows), max(map(len, rows), default=0)), fill, dtype=dtype)
    for index, row in enumerate(rows):
        out[index, : len(row)] = row
    return out


def _append_points(points: np.ndarray, counts: np.ndarray, values: np.ndarray, mask: np.ndarray) -> tuple:
    """Padded point rows with ``values[i]`` appended to every row where ``mask[i]``."""
    rows = np.flatnonzero(mask)
    if not rows.shape[0]:
        return points, counts
    out = np.zeros((points.shape[0], max(points.shape[1], int(counts[rows].max()) + 1)))
    out[:, : points.shape[1]] = points
    out[rows, counts[rows]] = values[rows]
    return out, counts + mask


@dataclass(frozen=True, eq=False)
class ContextBatch:
    """Attack contexts as arrays: entry ``i`` of every field is context ``i``.

    The batched decision path's counterpart of
    :class:`~repro.attack.context.AttackContext` (which stays the scalar
    oracle's API), on the perfect bus the exact attacker runs on
    (``n_hidden = 0``), with the fields a decision or its memo key reads.
    Ragged fields are padded on the right and carry a per-row count:

    * ``transmitted_lo``/``transmitted_hi`` hold ``+inf``/``-inf`` past
      ``transmitted_count`` — an empty interval that covers no point — with
      ``transmitted_compromised`` ``True`` there, so the padding never reads
      as a seen correct interval;
    * ``remaining_widths``/``remaining_compromised`` are used up to
      ``n - transmitted_count - 1`` and padded with ``0.0``/``False``;
    * ``protected`` is used up to ``protected_count`` and padded with ``0.0``.
    """

    n: np.ndarray
    f: np.ndarray
    width: np.ndarray
    delta_lo: np.ndarray
    delta_hi: np.ndarray
    own_lo: np.ndarray
    own_hi: np.ndarray
    transmitted_lo: np.ndarray
    transmitted_hi: np.ndarray
    transmitted_compromised: np.ndarray
    transmitted_count: np.ndarray
    remaining_widths: np.ndarray
    remaining_compromised: np.ndarray
    protected: np.ndarray
    protected_count: np.ndarray

    @classmethod
    def from_contexts(cls, contexts: Sequence[AttackContext]) -> "ContextBatch":
        """Stack scalar contexts (hand-built ones, in tests) into one batch."""
        if any(ctx.n_hidden for ctx in contexts):
            raise AttackError("the exact batched attacker models the perfect bus (n_hidden = 0)")
        return cls(
            n=np.asarray([ctx.n for ctx in contexts], dtype=np.int64),
            f=np.asarray([ctx.f for ctx in contexts], dtype=np.int64),
            width=np.asarray([ctx.width for ctx in contexts], dtype=np.float64),
            delta_lo=np.asarray([ctx.delta.lo for ctx in contexts], dtype=np.float64),
            delta_hi=np.asarray([ctx.delta.hi for ctx in contexts], dtype=np.float64),
            own_lo=np.asarray([ctx.own_reading.lo for ctx in contexts], dtype=np.float64),
            own_hi=np.asarray([ctx.own_reading.hi for ctx in contexts], dtype=np.float64),
            transmitted_lo=_padded([[s.lo for s in ctx.transmitted] for ctx in contexts], np.inf),
            transmitted_hi=_padded([[s.hi for s in ctx.transmitted] for ctx in contexts], -np.inf),
            transmitted_compromised=_padded([ctx.transmitted_compromised for ctx in contexts], True, bool),
            transmitted_count=np.asarray([ctx.n_transmitted for ctx in contexts], dtype=np.int64),
            remaining_widths=_padded([ctx.remaining_widths for ctx in contexts], 0.0),
            remaining_compromised=_padded([ctx.remaining_compromised for ctx in contexts], False, bool),
            protected=_padded([ctx.protected_points for ctx in contexts], 0.0),
            protected_count=np.asarray([len(ctx.protected_points) for ctx in contexts], dtype=np.int64),
        )

    def __len__(self) -> int:
        return int(self.n.shape[0])

    def take(self, index: np.ndarray) -> "ContextBatch":
        """The contexts at ``index``, in that order."""
        return ContextBatch(**{item.name: getattr(self, item.name)[index] for item in fields(self)})

    @property
    def remaining_count(self) -> np.ndarray:
        return self.n - self.transmitted_count - 1

    @property
    def required(self) -> np.ndarray:
        """:func:`~repro.attack.stealth.required_support`: ``n - f - far``."""
        return self.n - self.f - 1 - self.remaining_compromised.sum(axis=1)

    @property
    def available(self) -> np.ndarray:
        """:func:`~repro.attack.stealth.active_mode_available` per context."""
        return self.transmitted_count >= self.required


def _memo_keys(conservative: bool, batch: ContextBatch) -> list[bytes]:
    """Memo keys of a whole batch from one :func:`_quantize` pass.

    A key is one ``bytes`` string of int64 words: a header of the
    ``conservative`` flag, ``n``, ``f`` and the transmitted and protected
    counts, then the transmitted and remaining flags and the quantized width,
    Δ, transmitted bounds, remaining widths and protected points, padding
    dropped.  The header fixes every section's length (the remaining count
    is ``n - transmitted - 1``), so the layout is unambiguous: two keys are
    equal exactly when ``(conservative, ctx.cache_key())`` are.
    """
    count = len(batch)
    t_used = _present(batch.transmitted_count, batch.transmitted_lo.shape[1])
    r_used = _present(batch.remaining_count, batch.remaining_widths.shape[1])
    p_used = _present(batch.protected_count, batch.protected.shape[1])
    scalars = np.column_stack([batch.width, batch.delta_lo, batch.delta_hi])
    values = np.concatenate(
        [scalars, batch.transmitted_lo, batch.transmitted_hi, batch.remaining_widths, batch.protected], axis=1
    )
    value_used = np.concatenate([np.ones(scalars.shape, dtype=bool), t_used, t_used, r_used, p_used], axis=1)
    quantized = np.zeros(values.shape, dtype=np.int64)
    quantized[value_used] = _quantize(values[value_used])
    header = np.column_stack(
        [np.full(count, conservative), batch.n, batch.f, batch.transmitted_count, batch.protected_count]
    ).astype(np.int64)
    words = np.concatenate(
        [header, batch.transmitted_compromised, batch.remaining_compromised, quantized], axis=1, dtype=np.int64
    )
    used = np.concatenate([np.ones(header.shape, dtype=bool), t_used, r_used, value_used], axis=1)
    data = words[used].tobytes()
    ends = (8 * np.cumsum(used.sum(axis=1))).tolist()
    return [data[start:end] for start, end in zip([0] + ends, ends)]


def _dedup_candidates(batch: ContextBatch, grid_positions: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every context's deduplicated candidate grid, as flat bound arrays.

    Reproduces :func:`repro.attack.candidates.candidate_intervals` before
    its admissibility filter — truthful reading, passive extremes, endpoint
    alignments, uniform grid, first-occurrence dedup at 9 decimals — and
    returns ``(lo, hi, sizes)``, context-major.  Each context's raw
    candidates fill one row of a padded matrix with the scalar code's float
    operations, in its order; only the endpoint reference points stay
    per-context Python — one ``set`` per context built by the scalar
    insertion sequence, since its iteration order orders the candidates and
    so decides ties.  The dedup is one :func:`_quantize` pass over all raw
    bounds and one stable ``lexsort`` on ``(owner, k_lo, k_hi)`` that keeps
    each context's first candidate of every rounded pair.
    """
    count = len(batch)
    t_used = _present(batch.transmitted_count, batch.transmitted_lo.shape[1])
    p_used = _present(batch.protected_count, batch.protected.shape[1])
    delta_lo, delta_hi = batch.delta_lo, batch.delta_hi
    # Reference points in the scalar insertion order: Δ, each transmitted
    # interval's bounds, the protected points, the own reading; used entries
    # are moved to the front of each row so a row prefix holds them.
    pairs = np.stack([batch.transmitted_lo, batch.transmitted_hi], axis=2).reshape(count, -1)
    points = np.concatenate(
        [delta_lo[:, None], delta_hi[:, None], pairs, batch.protected, batch.own_lo[:, None], batch.own_hi[:, None]],
        axis=1,
    )
    ends = np.ones((count, 2), dtype=bool)
    used = np.concatenate([ends, np.repeat(t_used, 2, axis=1), p_used, ends], axis=1)
    points = np.take_along_axis(points, np.argsort(~used, axis=1, kind="stable"), axis=1)
    references = [set(row[:size]) for row, size in zip(points.tolist(), used.sum(axis=1).tolist())]
    point_counts = np.asarray([len(reference) for reference in references])
    width = batch.width
    center = (delta_lo + delta_hi) / 2.0
    w = width[:, None]
    positions = max(2, grid_positions)  # clamped like the scalar code
    aligned = int(point_counts.max())
    grid = 4 + 2 * aligned  # first grid column
    lo, hi = np.empty((count, grid + positions)), np.empty((count, grid + positions))
    ok = np.ones(lo.shape, dtype=bool)
    # truthful reading, then passive extremes (when the width can contain Δ)
    lo[:, 0] = batch.own_lo
    hi[:, 0] = batch.own_hi
    lo[:, 1:4] = np.column_stack([delta_hi - width, delta_lo, center - width / 2.0])
    hi[:, 1:4] = np.column_stack([delta_hi, delta_lo + width, center + width / 2.0])
    ok[:, 1:4] = (width >= (delta_hi - delta_lo) - PASSIVE_WIDTH_TOL)[:, None]
    # endpoint alignments: [p, p + w] then [p - w, p] per reference point
    present = np.arange(aligned) < point_counts[:, None]
    reference = np.zeros((count, aligned))
    reference[present] = list(chain.from_iterable(references))
    lo[:, 4:grid:2] = reference
    hi[:, 4:grid:2] = reference + w
    lo[:, 5:grid:2] = reference - w
    hi[:, 5:grid:2] = reference
    ok[:, 4:grid] = np.repeat(present, 2, axis=1)
    # uniform grid over the hull of Δ, the transmitted bounds (padding is
    # [+inf, -inf]) and the protected points, widened by one width each side
    protected = np.where(p_used, batch.protected, np.nan)
    window_lo = np.nanmin(np.concatenate([delta_lo[:, None], batch.transmitted_lo, protected], axis=1), axis=1) - width
    window_hi = np.nanmax(np.concatenate([delta_hi[:, None], batch.transmitted_hi, protected], axis=1), axis=1) + width
    span = window_hi - width - window_lo
    placement = window_lo[:, None] + np.arange(positions) * (span / (positions - 1))[:, None]
    collapsed = span <= 0
    placement[collapsed, 0] = window_lo[collapsed]
    ok[collapsed, grid + 1 :] = False
    lo[:, grid:] = placement
    hi[:, grid:] = placement + w
    sizes = ok.sum(axis=1)
    lo, hi = lo[ok], hi[ok]
    owner = np.repeat(np.arange(count), sizes)
    k_lo, k_hi = _quantize(lo), _quantize(hi)
    order = np.lexsort((k_hi, k_lo, owner))
    first = np.ones(order.shape, dtype=bool)
    s_owner, s_lo, s_hi = owner[order], k_lo[order], k_hi[order]
    first[1:] = (s_owner[1:] != s_owner[:-1]) | (s_lo[1:] != s_lo[:-1]) | (s_hi[1:] != s_hi[:-1])
    keep = np.sort(order[first])
    return lo[keep], hi[keep], np.bincount(owner[keep], minlength=count)


def _max_support(lo: np.ndarray, hi: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray) -> np.ndarray:
    """Per candidate, the most transmitted intervals sharing one of its points.

    ``support_point(...) is not None`` exactly when this reaches the required
    support (or that is ``<= 0``).  Coverage is piecewise constant with
    breakpoints at the transmitted endpoints, and at a breakpoint the
    (closed-interval) point coverage dominates both neighbouring pieces, so
    the maximum over ``[lo, hi]`` is attained at an endpoint clipped into the
    candidate or at ``lo`` — evaluating the point coverage there is exact.
    Padded ``[+inf, -inf]`` intervals cover no point.
    """
    count = t_lo.shape[1]
    lo_col = lo[:, None]
    hi_col = hi[:, None]
    points = np.empty((lo.shape[0], 2 * count + 1))
    points[:, 0] = lo
    points[:, 1 : count + 1] = np.minimum(np.maximum(t_lo, lo_col), hi_col)
    points[:, count + 1 :] = np.minimum(np.maximum(t_hi, lo_col), hi_col)
    coverage = np.zeros(points.shape, dtype=np.int64)
    for j in range(count):
        coverage += (t_lo[:, j : j + 1] <= points) & (points <= t_hi[:, j : j + 1])
    return coverage.max(axis=1)


def _support_points(lo: np.ndarray, hi: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray, required: np.ndarray) -> np.ndarray:
    """:func:`repro.attack.stealth.support_point` of many candidates, bit for bit.

    Candidate ``i`` is ``[lo[i], hi[i]]`` with transmitted prefix row ``i``
    of ``t_lo``/``t_hi`` (padded ``[+inf, -inf]``); ``NaN`` stands for
    ``None``.  The scalar :func:`~repro.core.marzullo.coverage_profile` is
    rebuilt as arrays: the events sort by position, openings first, then
    input order (one ``lexsort``, which compares ``-0.0`` and ``0.0`` equal
    like Python's sort), each run of equal positions takes its first event's
    value, and the segments are, in profile order, the gap from the previous
    position (its coverage: intervals spanning it) and the point itself
    (intervals containing it).  Among segments reaching ``required`` and
    touching the candidate, ``argmax`` takes the first of the highest
    coverage, and the point of its overlap closest to the candidate centre
    is picked with the scalar ``min``/``max`` tie rules.
    """
    center = (lo + hi) / 2.0
    rows, events = t_lo.shape[0], 2 * t_lo.shape[1]
    if not (rows and events):
        return np.where(required <= 0, center, np.nan)
    position = np.empty((rows, events))
    position[:, 0::2] = t_lo
    position[:, 1::2] = t_hi
    position[~np.isfinite(position)] = np.inf  # padding events sort last and open no segment
    closing = np.broadcast_to(np.arange(events) % 2, position.shape)
    index = np.broadcast_to(np.arange(events), position.shape)
    order = np.lexsort((index, closing, position), axis=1)
    position = np.take_along_axis(position, order, axis=1)
    head = np.ones(position.shape, dtype=bool)
    head[:, 1:] = position[:, 1:] != position[:, :-1]
    run = np.maximum.accumulate(np.where(head, np.arange(events), 0), axis=1)  # each run's first event
    previous = np.zeros(run.shape, dtype=np.int64)
    previous[:, 1:] = run[:, :-1]
    previous = np.take_along_axis(position, previous, axis=1)  # at a run's head: the previous run's value
    real = head & np.isfinite(position)
    seg_lo = np.stack([previous, position], axis=2).reshape(rows, -1)
    seg_hi = np.repeat(position, 2, axis=1)
    valid = np.stack([real & (np.arange(events) > 0), real], axis=2).reshape(rows, -1)
    t_lo3, t_hi3 = t_lo[:, None, :], t_hi[:, None, :]
    coverage = ((t_lo3 <= seg_lo[:, :, None]) & (seg_hi[:, :, None] <= t_hi3)).sum(axis=2)
    lo_col, hi_col = lo[:, None], hi[:, None]
    overlap_lo = np.where(lo_col > seg_lo, lo_col, seg_lo)
    overlap_hi = np.where(hi_col < seg_hi, hi_col, seg_hi)
    qualified = valid & (coverage >= required[:, None]) & ~(overlap_hi < overlap_lo)
    score = np.where(qualified, coverage, -1)
    best = np.argmax(score, axis=1)[:, None]
    point_lo = np.take_along_axis(overlap_lo, best, axis=1)[:, 0]
    point_hi = np.take_along_axis(overlap_hi, best, axis=1)[:, 0]
    point = np.where(point_lo > center, point_lo, center)
    point = np.where(point_hi < point, point_hi, point)
    found = np.take_along_axis(score, best, axis=1)[:, 0] >= 0
    return np.where(required <= 0, center, np.where(found, point, np.nan))


def _admissibility(batch: ContextBatch, owner: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """``(admissible, passive, conservative_support)`` masks of flat candidates.

    Candidate ``i`` belongs to context ``owner[i]``.  ``passive`` marks the
    candidates admissible in passive mode (the mode :func:`check_admissible
    <repro.attack.stealth.check_admissible>` reports, since passive is tried
    first); admissible-but-not-passive candidates are active.
    ``conservative_support`` marks the candidates sharing a point with
    ``n - f - 1`` transmitted intervals, the conservative-mode gate.  Results
    match the scalar predicates candidate for candidate; the flat arrays are
    swept ``_FUSE_CHUNK_ROWS`` candidates at a time (chunks make the same
    element-wise comparisons).
    """
    admissible = np.empty(lo.shape, dtype=bool)
    passive = np.empty(lo.shape, dtype=bool)
    conservative = np.empty(lo.shape, dtype=bool)
    p_used = _present(batch.protected_count, batch.protected.shape[1])
    required, available = batch.required, batch.available
    for start in range(0, lo.shape[0], _FUSE_CHUNK_ROWS):
        chunk = slice(start, start + _FUSE_CHUNK_ROWS)
        c_owner, c_lo, c_hi = owner[chunk], lo[chunk], hi[chunk]
        spread = batch.protected[c_owner]
        inside = (c_lo[:, None] <= spread) & (spread <= c_hi[:, None])
        covers = (inside | ~p_used[c_owner]).all(axis=1)
        passive[chunk] = (c_lo <= batch.delta_lo[c_owner]) & (batch.delta_hi[c_owner] <= c_hi) & covers
        support = _max_support(c_lo, c_hi, batch.transmitted_lo[c_owner], batch.transmitted_hi[c_owner])
        need = required[c_owner]
        admissible[chunk] = passive[chunk] | (available[c_owner] & covers & ((need <= 0) | (support >= need)))
        need = (batch.n - batch.f - 1)[c_owner]
        conservative[chunk] = (need <= 0) | (support >= need)
    return admissible, passive, conservative


@dataclass
class _Candidates:
    """Admissible candidate grids, flat: context ``i`` owns ``offsets[i]:offsets[i + 1]``."""

    lo: np.ndarray
    hi: np.ndarray
    passive: np.ndarray
    blocked: np.ndarray  # conservative-mode gate: score forced to -inf
    offsets: np.ndarray

    @property
    def owner(self) -> np.ndarray:
        return np.repeat(np.arange(self.offsets.shape[0] - 1), np.diff(self.offsets))

    def take(self, contexts: np.ndarray) -> "_Candidates":
        """The grids of ``contexts`` (ascending context indices)."""
        keep = np.isin(self.owner, contexts)
        sizes = np.diff(self.offsets)[contexts]
        return _Candidates(
            self.lo[keep], self.hi[keep], self.passive[keep], self.blocked[keep], np.cumsum(np.r_[0, sizes])
        )


@dataclass
class VectorizedExpectationPolicy:
    """Grid parameters and memo table of the batched exact attacker.

    The parameters mirror :class:`~repro.attack.expectation.ExpectationPolicy`
    with ``tie_break="first"``, whose decisions :func:`_decide_batch`
    reproduces exactly — candidate enumeration, admissibility and
    conservative-mode rules, tie tolerance.  ``memo`` maps a
    :func:`_memo_keys` key to the ``(lo, hi, support)`` entry
    :func:`_decide_batch` returns; ``hits`` and ``misses`` count its lookups
    like the scalar policy's tallies, so :meth:`stats` reads the same on both
    engines.
    """

    true_value_positions: int = 3
    placement_positions: int = 3
    grid_positions: int = 9
    conservative: bool = False
    memo: dict[bytes, tuple[float, float, float]] = field(default_factory=dict, repr=False)
    hits: int = field(default=0, repr=False, compare=False)
    misses: int = field(default=0, repr=False, compare=False)

    def stats(self) -> dict:
        """Read-only memo statistics: hits, misses, resident entries."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self.memo)}

    def _prepare_candidates(self, batch: ContextBatch) -> _Candidates:
        """Every context's admissible candidate grid, equal to
        :func:`repro.attack.candidates.candidate_intervals` candidate for
        candidate: one :func:`_dedup_candidates` pass, one
        :func:`_admissibility` sweep, then the scalar fallback ladder for the
        contexts left without an admissible candidate — a Δ-centred
        placement if admissible, else the truthful reading (labelled
        passive) — and the conservative gate of contexts with a choice."""
        lo, hi, sizes = _dedup_candidates(batch, self.grid_positions)
        owner = np.repeat(np.arange(len(batch)), sizes)
        admissible, passive, supported = _admissibility(batch, owner, lo, hi)
        kept = np.bincount(owner[admissible], minlength=len(batch))
        stuck = np.flatnonzero(kept == 0)
        center = (batch.delta_lo[stuck] + batch.delta_hi[stuck]) / 2.0
        half = batch.width[stuck] / 2.0
        centre_ok, centre_passive, centre_supported = _admissibility(batch, stuck, center - half, center + half)
        owner = np.concatenate([owner[admissible], stuck])
        order = np.argsort(owner, kind="stable")
        lo = np.concatenate([lo[admissible], np.where(centre_ok, center - half, batch.own_lo[stuck])])[order]
        hi = np.concatenate([hi[admissible], np.where(centre_ok, center + half, batch.own_hi[stuck])])[order]
        passive = np.concatenate([passive[admissible], centre_passive | ~centre_ok])[order]
        supported = np.concatenate([supported[admissible], centre_supported])[order]
        choice = (kept >= 2)[owner[order]]
        blocked = choice & ~passive & ~supported if self.conservative else np.zeros(lo.shape, dtype=bool)
        return _Candidates(lo, hi, passive, blocked, np.cumsum(np.r_[0, np.maximum(kept, 1)]))


def _trivially_truthful(batch: ContextBatch) -> np.ndarray:
    """Contexts whose only admissible placement is the truthful reading.

    While active mode is out of reach and no protection obligations exist,
    every admissible placement must contain ``Δ``; when the attacked width
    equals ``Δ`` exactly (``Δ = own reading`` — every ``fa = 1`` slot before
    the active-mode threshold, e.g. the Ascending schedule's first slot, and
    every lookahead sub-decision before the threshold), the only such
    interval at that width is ``Δ`` itself, so the scalar candidate
    enumeration collapses to the truthful reading and the whole grid
    evaluation can be skipped.
    """
    delta_lo, delta_hi, width = batch.delta_lo, batch.delta_hi, batch.width
    center = (delta_lo + delta_hi) / 2.0
    return (
        (batch.protected_count == 0)
        & (delta_lo == batch.own_lo)
        & (delta_hi == batch.own_hi)
        # Exact float collapses: every passive extreme / aligned / grid
        # candidate that contains Δ reproduces Δ's bounds bit for bit, so the
        # scalar dedup folds them all into the truthful reading (C = 1).
        # Generic width mismatches (lookahead sub-decisions for a wider or
        # narrower slot) fail these checks and take the full enumeration.
        & (delta_hi - width == delta_lo)
        & (delta_lo + width == delta_hi)
        & (center - width / 2.0 == delta_lo)
        & (center + width / 2.0 == delta_hi)
        & ~batch.available
    )


def _scenario_grid(policy: VectorizedExpectationPolicy, batch: ContextBatch, pattern: tuple) -> tuple:
    """The future *correct* sensors' bounds in every scenario of every context.

    Returns ``(lo, hi, count)``.  ``lo``/``hi`` have one row per scenario —
    context-major, then in the order of
    :meth:`~repro.attack.expectation.ExpectationPolicy._future_scenarios`
    (true value outermost, the last remaining correct sensor's placement
    fastest) — and one column per remaining correct sensor, in slot order;
    future compromised sensors contribute no columns (their placements are
    decided, not enumerated).  ``count[i]`` is context ``i``'s number of
    scenarios.  The contexts share their remaining-slot ``pattern``.

    The true value ranges over :func:`~repro.attack.expectation.feasible_true_region`
    — Δ intersected with the seen correct intervals, Δ itself should that be
    empty — as a masked max/min over the transmitted columns.  Grid points
    are computed with ``_linspace``'s float operations (``lo + i·step``, or
    the midpoint of a collapsed grid), so they are the same floats.  A
    context with no sensor left has one empty scenario, and a feasible
    region collapsed to a point has a single true value.  A placement window
    ``[t - w, t]`` would only collapse if ``t - w`` rounded to ``t``
    (``|t| ≳ 2⁵²·w``), so every placement grid has the same length.
    """
    count = len(batch)
    if not pattern:
        empty = np.empty((count, 0))
        return empty, empty, np.ones(count, dtype=np.int64)
    seen = ~batch.transmitted_compromised
    region_lo = np.maximum(batch.delta_lo, np.where(seen, batch.transmitted_lo, -np.inf).max(axis=1, initial=-np.inf))
    region_hi = np.minimum(batch.delta_hi, np.where(seen, batch.transmitted_hi, np.inf).min(axis=1, initial=np.inf))
    empty = region_hi < region_lo  # intersect_all raises there and the region falls back to Δ
    region_lo, region_hi = np.where(empty, batch.delta_lo, region_lo), np.where(empty, batch.delta_hi, region_hi)
    widths = batch.remaining_widths[:, np.flatnonzero(~np.asarray(pattern, dtype=bool))]
    positions = policy.true_value_positions
    if positions <= 1:
        true_values = (region_lo + region_hi) / 2.0
        owner = np.arange(count)
    else:
        step = (region_hi - region_lo) / (positions - 1)
        grid = region_lo[:, None] + np.arange(positions) * step[:, None]
        point = region_hi <= region_lo
        grid[point, 0] = (region_lo[point] + region_hi[point]) / 2.0
        keep = np.ones(grid.shape, dtype=bool)
        keep[point, 1:] = False
        true_values = grid[keep]
        owner = np.repeat(np.arange(count), keep.sum(axis=1))
    true_col = true_values[:, None]
    sensor_widths = widths[owner]
    start = true_col - sensor_widths
    placements = policy.placement_positions
    if placements <= 1:
        grid = ((start + true_col) / 2.0)[:, :, None]
    else:
        step = (true_col - start) / (placements - 1)
        grid = start[:, :, None] + np.arange(placements) * step[:, :, None]
    # Cartesian product in the scalar recursion order: earlier sensors vary
    # slower, the last sensor fastest.
    sensors = widths.shape[1]
    points = grid.shape[2]
    product = np.arange(points**sensors)
    lo = np.empty((true_values.shape[0], product.shape[0], sensors))
    for column in range(sensors):
        lo[:, :, column] = grid[:, column, (product // points ** (sensors - 1 - column)) % points]
    hi = lo + sensor_widths[:, None, :]
    shape = (lo.shape[0] * lo.shape[1], sensors)
    scenarios = np.bincount(owner, minlength=count) * product.shape[0]
    return lo.reshape(shape), hi.reshape(shape), scenarios


class _Playout:
    """Lockstep play-out of every (candidate, scenario) round of some contexts.

    The scalar policy plays each combination out on its own
    (:meth:`~repro.attack.expectation.ExpectationPolicy._play_out`).  The
    contexts here share ``n``, ``f`` and their remaining-slot pattern (hence
    their transmitted-prefix length), so all their rounds advance together.
    A *round* is a context's unblocked (live) candidate × one of its
    scenarios, in the scalar context-major, candidate-major, scenario-minor
    order, addressed as a ``(live candidate, scenario)`` pair: nothing here
    is stored per round.  :meth:`advance` decides the future compromised positions for groups of rounds;
    :meth:`scores` fuses the final rounds and averages each candidate's
    widths.  Both see each round's transmissions in the scalar play-out's
    order (prefix, candidate, future sensors in slot order), so the sweeps
    compare what the scalar sweep compares.  Conservative-blocked candidates
    are never played out and score ``-inf``, like the scalar
    ``_expected_final_width`` gate.
    """

    def __init__(self, policy: VectorizedExpectationPolicy, batch: ContextBatch, candidates: _Candidates) -> None:
        self.policy = policy
        self.batch = batch
        self.candidates = candidates
        remaining = int(batch.remaining_count[0])
        self.pattern = tuple(batch.remaining_compromised[0, :remaining].tolist())
        self.f = int(batch.f[0])
        self.owner = candidates.owner
        self.cand_lo, self.cand_hi = candidates.lo, candidates.hi
        self.live = np.flatnonzero(~candidates.blocked)
        # Sensor-major (prefix, contexts): one row per transmitted position.
        prefix = int(batch.transmitted_count[0])
        self.prefix_lo = batch.transmitted_lo[:, :prefix].T
        self.prefix_hi = batch.transmitted_hi[:, :prefix].T
        self.scen_lo, self.scen_hi, scenarios = _scenario_grid(policy, batch, self.pattern)
        self.scen_owner = np.repeat(np.arange(len(batch)), scenarios)
        self.scenario_start = np.cumsum(scenarios) - scenarios
        self.per_candidate = scenarios[self.owner[self.live]]
        # Per future position: a correct sensor's scenario column or, once
        # ``advance`` decided a compromised one, ``(base, rank, lo, hi)``: round
        # (live candidate i, scenario s) reads group ``base[i] + rank[s]``.
        self.columns: list = [None if flag else i - sum(self.pattern[:i]) for i, flag in enumerate(self.pattern)]
        # Per live candidate: a sub-decision's score of its final rounds, or NaN (fuse them).
        self.reused = np.full(self.live.shape[0], np.nan)

    def gather(self, live: np.ndarray, scenario: np.ndarray, sensors: int) -> tuple[np.ndarray, np.ndarray]:
        """``(len(live), sensors)`` bounds of the first ``sensors``
        transmissions of rounds ``(live[i], scenario[i])``."""
        cand = self.live[live]
        sources = [(cand, self.cand_lo, self.cand_hi)]
        for source in self.columns[: sensors - self.prefix_lo.shape[0] - 1]:
            if isinstance(source, int):
                sources.append((scenario, self.scen_lo[:, source], self.scen_hi[:, source]))
            else:
                base, rank, lo, hi = source
                sources.append((base[live] + rank[scenario], lo, hi))
        columns = [(np.take(self.prefix_lo, self.owner[cand], axis=1), np.take(self.prefix_hi, self.owner[cand], axis=1))]
        columns += [(np.take(lo, index)[None], np.take(hi, index)[None]) for index, lo, hi in sources]
        return tuple(np.concatenate(bounds).T for bounds in zip(*columns))

    def _ranks(self, correct_seen: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per scenario, the first-occurrence rank of its first ``correct_seen`` placements
        (bit for bit) among its context's scenarios; per context, its rank count; and,
        context-major, each context's first scenario of every rank."""
        seen = np.column_stack([self.scen_owner, self.scen_lo[:, :correct_seen].view(np.int64)])
        _, first, inverse = np.unique(seen, axis=0, return_index=True, return_inverse=True)
        order = np.argsort(first)  # context-major, as the scenarios are
        overall = np.empty_like(order)
        overall[order] = np.arange(order.shape[0])
        firsts = first[order]
        distinct = np.bincount(self.scen_owner[firsts], minlength=len(self.batch))
        rank = overall[inverse.reshape(-1)] - (np.cumsum(distinct) - distinct)[self.scen_owner]
        return rank, distinct, firsts

    def advance(self) -> None:
        """Decide every future compromised position, in slot order.

        At each position, rounds whose candidate and correct placements so
        far coincide share their sub-context verbatim, hence their
        sub-decision and protection obligations (padded point rows per
        group).  Group ``base[i] + rank[s]`` holds live candidate ``i``'s
        rounds whose scenarios share placement rank ``rank[s]``
        (:meth:`_ranks`), ``base`` being the running total of the
        candidates' rank counts: first-occurrence order, so the memo fills
        like the scalar play-out.  The groups' sub-contexts, gathered from
        each group's first round (the owner's Δ doubling as her own reading,
        the scalar ``_own_reading_guess``), form one :class:`ContextBatch`
        that one :func:`_decide_batch` call decides (recursing for later
        positions; the prefix length in the memo key keeps positions apart).
        When no compromised position follows a correct one, lead positions'
        groups are the live candidates, and a sub-decision scored in a
        play-out averaged exactly its candidate's final rounds (same
        intervals, order, scenarios): :meth:`scores` reuses that score.
        """
        if not any(self.pattern) or self.live.shape[0] == 0:
            return
        batch, candidates = self.batch, self.candidates
        # Protection obligations, one row per live candidate: its context's
        # obligations plus, for an active placement, its own support point
        # (the scalar _expected_final_width bookkeeping).
        live, owner = self.live.shape[0], self.owner[self.live]
        active = ~candidates.passive[self.live]
        support = np.full(live, np.nan)
        support[active] = _support_points(
            self.cand_lo[self.live][active],
            self.cand_hi[self.live][active],
            batch.transmitted_lo[owner[active]],
            batch.transmitted_hi[owner[active]],
            batch.required[owner[active]],
        )
        points, counts = _append_points(batch.protected[owner], batch.protected_count[owner], support, active)
        previous = (np.arange(live), np.zeros(self.scen_owner.shape[0], dtype=np.int64))  # obligation rows
        prefix, lead = self.prefix_lo.shape[0], (self.pattern + (False,)).index(False)
        for position, compromised in enumerate(self.pattern):
            if not compromised:
                continue
            rank, distinct, firsts = self._ranks(position - sum(self.pattern[:position]))
            sizes = distinct[owner]
            base = np.cumsum(sizes) - sizes
            # Each group's first round: its candidate and its rank's first scenario.
            rep_live = np.repeat(np.arange(live), sizes)
            groups = rep_live.shape[0]
            rep_scen = firsts[(np.cumsum(distinct) - distinct)[owner][rep_live] + np.arange(groups) - base[rep_live]]
            context = owner[rep_live]
            lo, hi = self.gather(rep_live, rep_scen, prefix + 1 + position)
            flags = np.broadcast_to(np.asarray((True,) + self.pattern[:position]), (groups, position + 1))
            obligations = previous[0][rep_live] + previous[1][rep_scen]
            sub = ContextBatch(
                n=batch.n[context],
                f=batch.f[context],
                width=batch.remaining_widths[context, position],
                delta_lo=batch.delta_lo[context],
                delta_hi=batch.delta_hi[context],
                own_lo=batch.delta_lo[context],
                own_hi=batch.delta_hi[context],
                transmitted_lo=lo,
                transmitted_hi=hi,
                transmitted_compromised=np.concatenate([batch.transmitted_compromised[context, :prefix], flags], axis=1),
                transmitted_count=np.full(groups, prefix + 1 + position),
                remaining_widths=batch.remaining_widths[context, position + 1 : len(self.pattern)],
                remaining_compromised=np.broadcast_to(
                    np.asarray(self.pattern[position + 1 :], dtype=bool), (groups, len(self.pattern) - position - 1)
                ),
                protected=points[obligations],
                protected_count=counts[obligations],
            )
            decisions, scores = _decide_batch(self.policy, sub)
            points, counts = _append_points(
                sub.protected, sub.protected_count, decisions[:, 2], ~np.isnan(decisions[:, 2])
            )
            previous = (base, rank)
            self.columns[position] = (base, rank, decisions[:, 0], decisions[:, 1])
            if position < lead and not any(self.pattern[lead:]):  # groups = live candidates
                self.reused = np.where(np.isnan(self.reused), scores, self.reused)

    def scores(self) -> np.ndarray:
        """Expected final fusion width per candidate (flat, context-major).

        A live candidate's ``reused`` score stands; the others, grouped by
        their scenario count ``S``, are fused as grids of whole candidates
        (:meth:`_fuse`) of at most ``_FUSE_CHUNK_ROWS`` rounds — one
        candidate's scenarios in slices should ``S`` exceed that.  As in the
        scalar ``_expected_final_width``, widths of scenarios with no fusion
        interval are skipped and the rest are added *sequentially* in
        scenario order: ``np.cumsum`` adds in order (``np.sum`` would
        pairwise-reduce and could flip a tie), a slice continues the running
        total, and a skipped scenario adds an exact ``+0.0``.
        """
        scores = np.full(self.cand_lo.shape[0], -np.inf)
        scores[self.live] = self.reused  # the NaNs are all fused below
        fused = np.flatnonzero(np.isnan(self.reused))
        per_candidate = self.per_candidate[fused]
        for count in np.flatnonzero(np.bincount(per_candidate)).tolist():
            chosen = fused[per_candidate == count]
            step = max(1, _FUSE_CHUNK_ROWS // count)
            for start in range(0, chosen.shape[0], step):
                part = chosen[start : start + step]
                total, valid = None, 0
                for begin in range(0, count, _FUSE_CHUNK_ROWS):
                    fusion = self._fuse(part, np.arange(begin, min(count, begin + _FUSE_CHUNK_ROWS)))
                    widths = np.where(fusion.valid, fusion.width, 0.0)
                    total = np.cumsum(widths if total is None else np.vstack([total, widths]), axis=0)[-1]
                    valid = valid + fusion.valid.sum(axis=0)
                scores[self.live[part]] = np.where(valid > 0, total / np.maximum(valid, 1), -np.inf)
        return scores

    def _fuse(self, part: np.ndarray, offsets: np.ndarray):
        """:func:`~repro.batch.fuse.grid_extremes` of the final rounds at
        scenario ``offsets`` of live candidates ``part`` (one scenario count).
        Narrow columns: the prefix, the candidate and the compromised
        positions before the first correct one (whose groups are the live
        candidates).  Wide columns: the contexts' scenario columns repeated
        per candidate, or, once a compromised position follows a correct one,
        every position's bounds per round (sub-decisions via ``base + rank``)."""
        cand = self.live[part]
        owner = self.owner[cand]
        # ``owner`` is sorted: its runs are the contexts and their candidate counts.
        head = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        contexts, repeats = owner[head], np.diff(np.r_[head, owner.shape[0]])
        scenario = self.scenario_start[contexts] + offsets[:, None]
        grid_lo, grid_hi = (bounds[scenario].transpose(2, 0, 1) for bounds in (self.scen_lo, self.scen_hi))
        lead = (self.pattern + (False,)).index(False)
        # ``np.take``: fancy indexing costs several times more at these sizes.
        sources = [(cand, self.cand_lo, self.cand_hi)] + [(base[part], lo, hi) for base, _, lo, hi in self.columns[:lead]]
        narrow = [(np.take(self.prefix_lo, owner, axis=1), np.take(self.prefix_hi, owner, axis=1))]
        narrow += [(np.take(lo, index)[None], np.take(hi, index)[None]) for index, lo, hi in sources]
        narrow_lo, narrow_hi = (np.concatenate(bounds)[:, None] for bounds in zip(*narrow))
        required = self.prefix_lo.shape[0] + 1 + len(self.pattern) - self.f
        if not any(self.pattern[lead:]):
            return grid_extremes(narrow_lo, narrow_hi, grid_lo, grid_hi, required, repeats=repeats)
        rounds = np.repeat(scenario, repeats, axis=1)  # each round's scenario
        wide = [
            (np.repeat(grid_lo[source], repeats, axis=1), np.repeat(grid_hi[source], repeats, axis=1))
            if isinstance(source, int)
            else (source[2][source[0][part] + source[1][rounds]], source[3][source[0][part] + source[1][rounds]])
            for source in self.columns[lead:]
        ]
        wide_lo, wide_hi = (np.stack(bounds) for bounds in zip(*wide))
        return grid_extremes(narrow_lo, narrow_hi, wide_lo, wide_hi, required)


def _first_best(scores: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per context, the first candidate within tie tolerance of its best score.

    ``offsets`` delimit the contexts' candidate segments in ``scores``; the
    result is ``_select``'s ``ties[0]``, as an index into each segment.
    """
    starts = offsets[:-1]
    best = np.maximum.reduceat(scores, starts)
    tied = scores >= np.repeat(best - TIE_TOLERANCE, np.diff(offsets))
    index = np.where(tied, np.arange(scores.shape[0]), scores.shape[0])
    return np.minimum.reduceat(index, starts) - starts


def _decide_batch(policy: VectorizedExpectationPolicy, batch: ContextBatch) -> tuple[np.ndarray, np.ndarray]:
    """Decide a batch of attack contexts; returns their ``(len(batch), 3)``
    memo entries and the chosen candidates' scores.

    Row ``i`` is context ``i``'s ``(lo, hi, support)``: the decision's bounds
    and the support point :func:`check_admissible
    <repro.attack.stealth.check_admissible>` reports for it, ``NaN`` for a
    passive decision (passive is tried first), so consumers never rerun the
    scalar admissibility sweep.  The scalar fallback to an inadmissible
    truthful reading is labelled passive; consumers only test for active mode.
    Score ``i`` is the chosen candidate's expected final width if this call
    scored it in a play-out, else ``NaN``: for a memo hit or a same-key
    repeat (whose entry may come from bounds equal only at 9 decimals), a
    single candidate, or a conservative-blocked choice (``-inf`` by the
    gate).  Scores are never memoised.

    Contexts are visited in order so memo-key collisions resolve
    first-computed-wins, exactly like the scalar round-major loop; a
    same-key context later in the batch reuses the first one's entry, as a
    cache hit would.  The memo-missing contexts get their candidate grids
    from one batched admissibility sweep; those with several candidates are
    grouped by ``(n, f, remaining-slot pattern)`` (one group for
    deterministic schedules; RandomSchedule rows can genuinely differ) and
    each group is scored by one :class:`_Playout`: the groups with future
    compromised sensors first decide them (calling back into this function
    one level deeper), then every group's final rounds are fused in chunked
    sweeps and each context selects its first best-scoring candidate.

    Shared by :class:`ExactExpectationBatchAttacker` (one call per schedule
    slot) and :meth:`_Playout.advance` (one call per future compromised
    position).  Each call emits one ``attack.candidates``, ``attack.recurse``
    and ``attack.score`` span.
    """
    memo = policy.memo
    entries: list = [None] * len(batch)
    pending: set[bytes] = set()
    deferred: list[tuple[int, bytes]] = []
    staged: list[int] = []
    keys = _memo_keys(policy.conservative, batch)
    for index, key in enumerate(keys):
        cached = memo.get(key)
        if cached is not None:
            policy.hits += 1
            entries[index] = cached
        elif key in pending:
            policy.hits += 1
            deferred.append((index, key))
        else:
            pending.add(key)
            staged.append(index)
    policy.misses += len(staged)
    staged = np.asarray(staged, dtype=np.int64)
    truthful = _trivially_truthful(batch)[staged]

    def store(contexts: np.ndarray, lo: np.ndarray, hi: np.ndarray, support: np.ndarray) -> None:
        for index, entry in zip(contexts.tolist(), zip(lo.tolist(), hi.tolist(), support.tolist())):
            entries[index] = memo[keys[index]] = entry

    plain = staged[truthful]
    store(plain, batch.own_lo[plain], batch.own_hi[plain], np.full(plain.shape[0], np.nan))
    staged = staged[~truthful]
    sub = batch.take(staged)
    with obs.span("attack.candidates", kernel="batch"):
        candidates = policy._prepare_candidates(sub) if staged.shape[0] else None
    groups: list[tuple[np.ndarray, _Playout]] = []
    with obs.span("attack.recurse", kernel="batch"):
        if candidates is not None:
            multi = np.flatnonzero(np.diff(candidates.offsets) > 1)
            signature = np.column_stack(
                [sub.n[multi], sub.f[multi], sub.transmitted_count[multi], sub.remaining_compromised[multi]]
            )
            _, first, inverse = np.unique(signature, axis=0, return_index=True, return_inverse=True)
            for label in np.argsort(first).tolist():
                members = multi[inverse.reshape(-1) == label]
                groups.append((members, _Playout(policy, sub.take(members), candidates.take(members))))
            for _members, playout in groups:
                playout.advance()
    scores = np.full(len(batch), np.nan)
    with obs.span("attack.score", kernel="batch"):
        if candidates is not None:
            chosen = candidates.offsets[:-1].copy()
            for members, playout in groups:
                values = playout.scores()
                best = _first_best(values, playout.candidates.offsets)
                chosen[members] += best
                scores[staged[members]] = values[playout.candidates.offsets[:-1] + best]
            scores[staged[candidates.blocked[chosen]]] = np.nan
            lo, hi = candidates.lo[chosen], candidates.hi[chosen]
            support = np.full(chosen.shape[0], np.nan)
            active = np.flatnonzero(~candidates.passive[chosen])
            support[active] = _support_points(
                lo[active], hi[active], sub.transmitted_lo[active], sub.transmitted_hi[active], sub.required[active]
            )
            store(staged, lo, hi, support)
    for index, key in deferred:
        entries[index] = memo[key]
    return np.asarray(entries, dtype=np.float64).reshape(len(batch), 3), scores


#: The :class:`ContextBatch` fields a slot's rows slice straight from the
#: :class:`~repro.batch.rounds.BatchSlotContext` arrays of the same name.
_SLOT_FIELDS = (
    "width", "delta_lo", "delta_hi", "own_lo", "own_hi", "transmitted_lo", "transmitted_hi",
    "transmitted_compromised", "remaining_widths", "remaining_compromised",
)


@dataclass
class ExactExpectationBatchAttacker(BatchAttacker):
    """Batched driver for the exact expectation attacker of problem (2).

    At every schedule slot the attacker slices the compromised rows of the
    :class:`~repro.batch.rounds.BatchSlotContext` into one
    :class:`ContextBatch` (the rows' protection obligations are kept as a
    padded point matrix), answers repeated contexts from the shared memo
    table (one decision per unique memo key per batch, honouring the scalar
    first-computed-wins semantics when keys collide across rows), and scores
    all remaining rows' candidate grids in **one** play-out per
    remaining-slot pattern (:func:`_decide_batch`).

    Parameters mirror :class:`~repro.attack.expectation.ExpectationPolicy`;
    tie-breaking is fixed to the deterministic ``"first"`` rule so the
    attacker consumes no randomness and stays round-for-round identical to
    the scalar oracle driven by the scalar engine (see the module docstring
    for the equivalence contract).
    """

    true_value_positions: int = 3
    placement_positions: int = 3
    grid_positions: int = 9
    conservative: bool = False
    _policy: VectorizedExpectationPolicy = field(init=False, repr=False)
    _protected: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)), repr=False)
    _protected_count: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64), repr=False)

    def __post_init__(self) -> None:
        self._policy = VectorizedExpectationPolicy(
            true_value_positions=self.true_value_positions,
            placement_positions=self.placement_positions,
            grid_positions=self.grid_positions,
            conservative=self.conservative,
        )

    @property
    def policy(self) -> VectorizedExpectationPolicy:
        """The grid parameters and the shared memo table with its hit/miss counters."""
        return self._policy

    def reset(self, batch: int) -> None:
        """Clear per-round protection obligations; the memo persists (its
        entries are deterministic functions of the context, like the scalar
        policy's cache surviving ``reset`` across rounds)."""
        self._protected = np.zeros((batch, 0))
        self._protected_count = np.zeros(batch, dtype=np.int64)

    def forge(self, context: BatchSlotContext, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        if self._protected_count.shape[0] != context.rows.shape[0]:
            self.reset(context.rows.shape[0])
        rows = np.flatnonzero(context.rows)
        count = rows.shape[0]
        batch = ContextBatch(
            n=np.full(count, context.n, dtype=np.int64),
            f=np.full(count, context.f, dtype=np.int64),
            transmitted_count=np.full(count, context.transmitted_lo.shape[1], dtype=np.int64),
            protected=self._protected[rows],
            protected_count=self._protected_count[rows],
            **{name: getattr(context, name)[rows] for name in _SLOT_FIELDS},
        )
        decisions, _scores = _decide_batch(self._policy, batch)
        # Active decisions' support points constrain the later compromised
        # slots of this round.
        support = np.full(context.rows.shape[0], np.nan)
        support[rows] = decisions[:, 2]
        self._protected, self._protected_count = _append_points(
            self._protected, self._protected_count, support, ~np.isnan(support)
        )
        lo = context.own_lo.copy()
        hi = context.own_hi.copy()
        lo[rows] = decisions[:, 0]
        hi[rows] = decisions[:, 1]
        return lo, hi
