"""The exact expectation-maximising attacker (problem (2)), vectorized.

:class:`repro.attack.expectation.ExpectationPolicy` scores every candidate
placement by enumerating a (true-value × placement) grid of futures and
fusing each one with a scalar Marzullo sweep — thousands of Python-level
fusion and admissibility sweeps per decision.  This module keeps the
*decision procedure* bit-for-bit identical while evaluating the whole
(candidate × true-value × placement) grid as broadcast tensor ops:

* the candidate placements of every context in a batch are generated as
  one flat bound array (same values, same order, same 9-decimal
  first-occurrence dedup as :func:`repro.attack.candidates.candidate_intervals`,
  via one exact integer rounding pass, :func:`_quantize`) and filtered by
  array comparisons that evaluate every candidate's passive/active
  admissibility — and the conservative-mode support rule — at once;
* every surviving ``(candidate, scenario)`` combination is a row of a
  lockstep *play-out* (:class:`_Playout`): index arrays into the candidate
  grid, the scenario grid (built row-wise with the scalar ``_linspace``
  float operations) and, with ``fa >= 2``, the sub-decisions of the later
  compromised slots; the rows are expanded into sensor-major ``(n, rows)``
  bound buffers at most ``_FUSE_CHUNK_ROWS`` at a time and fused by
  :func:`repro.batch.fuse.coverage_extremes` (bit-identical to the scalar
  :func:`repro.core.marzullo.fuse_or_none`), which counts endpoint coverage
  on such buffers without a transposing copy — every play-out chunk past
  a few hundred rows takes that sort-free kernel;
* the per-candidate mean accumulates the per-scenario widths sequentially in
  the scalar enumeration order, so the scores — and therefore the decisions,
  tie sets included — equal the scalar policy's exactly.

:class:`VectorizedExpectationPolicy` holds the grid parameters and the one
memo table, whose entries are ``(decision, mode, support)``: the decision
with the stealth mode and support point :func:`check_admissible
<repro.attack.stealth.check_admissible>` reports for it.
:class:`ExactExpectationBatchAttacker` drives it over whole batches behind
the :class:`repro.batch.rounds.BatchAttacker` interface: at each schedule
slot it collects every compromised row's context, answers repeated contexts
from the memo — the Ascending-schedule fast path, where the attacker
transmits before seeing anything and whole swaths of rounds share a decision
— and scores all the memo-missing rows in **one** play-out per
remaining-slot pattern (:func:`_decide_batch`, the only decision path).  With ``fa >= 2`` the
play-out decides each later compromised slot for all rows at once: rows that
share a sub-context form one group, and all groups go through the same
batched decision procedure one level deeper, so a slot costs a few array
passes per lookahead level instead of one Python play-out per
``(candidate, scenario)``.

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

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.attack.candidates import PASSIVE_WIDTH_TOL
from repro.attack.context import AttackContext
from repro.attack.expectation import TIE_TOLERANCE, feasible_true_region
from repro.attack.stealth import AttackerMode, active_mode_available, required_support
from repro.batch.fuse import coverage_extremes
from repro.batch.rounds import BatchAttacker, BatchSlotContext
from repro.core.exceptions import ScheduleError
from repro.core.interval import Interval
from repro.core.marzullo import coverage_profile

__all__ = ["VectorizedExpectationPolicy", "ExactExpectationBatchAttacker"]

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

#: Upper bound on the (candidate × scenario) rows fused per batched sweep;
#: bounds peak memory without changing any result — chunks reproduce the same
#: per-round sweeps.  At n = 10 a full chunk's two (n, rows) float64 bound
#: buffers take 10.5 MB, and the counts kernel of ``coverage_extremes`` adds
#: at most about 10 MB of transients (six uint8 counters and bool masks at
#: 0.65 MB each, plus one float64 (n, rows) buffer while it picks each
#: extreme).
_FUSE_CHUNK_ROWS = 65_536


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


def _memo_keys(conservative: bool, contexts: list[AttackContext]) -> list[tuple]:
    """Memo keys of many contexts from one :func:`_quantize` pass.

    A key holds the context's integers and flag tuples plus the quantized
    width, Δ, transmitted bounds, remaining widths and protected points as
    one ``bytes`` string.  The flag tuples fix the transmitted and remaining
    counts and the protected-point count is stored, so the string's layout
    is unambiguous: two keys are equal exactly when
    ``(conservative, ctx.cache_key())`` are.
    """
    values: list[float] = []
    ends: list[int] = []
    for ctx in contexts:
        values += (ctx.width, ctx.delta.lo, ctx.delta.hi)
        for interval in ctx.transmitted:
            values += (interval.lo, interval.hi)
        values += ctx.remaining_widths
        values += ctx.protected_points
        ends.append(8 * len(values))
    data = _quantize(np.asarray(values, dtype=np.float64)).tobytes()
    keys = []
    for ctx, start, end in zip(contexts, [0] + ends, ends):
        flags = (ctx.n, ctx.f, ctx.n_hidden, ctx.transmitted_compromised, ctx.remaining_compromised)
        keys.append((conservative, *flags, len(ctx.protected_points), data[start:end]))
    return keys


def _dedup_candidates(contexts: list[AttackContext], grid_positions: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Every context's deduplicated candidate grid, as flat bound arrays.

    Reproduces :func:`repro.attack.candidates.candidate_intervals` before
    its admissibility filter — truthful reading, passive extremes, endpoint
    alignments, uniform grid, first-occurrence dedup at 9 decimals — and
    returns ``(lo, hi, sizes)``, context-major.  Each context's raw
    candidates fill one row of a padded matrix with the scalar code's float
    operations, in its order; only the endpoint reference points stay
    per-context Python, since the iteration order of their ``set`` (built by
    the same insertion sequence) orders the candidates and so decides ties.
    The dedup is one :func:`_quantize` pass over all raw bounds and one
    stable ``lexsort`` on ``(owner, k_lo, k_hi)`` that keeps each context's
    first candidate of every rounded pair.
    """
    count = len(contexts)
    points: list[float] = []
    point_counts: list[int] = []
    window: list[tuple[float, float]] = []
    for context in contexts:
        delta = context.delta
        reference = {delta.lo, delta.hi}
        for interval in context.transmitted:
            reference.add(interval.lo)
            reference.add(interval.hi)
        for point in context.protected_points:
            reference.add(point)
        reference.add(context.own_reading.lo)
        reference.add(context.own_reading.hi)
        points += reference
        point_counts.append(len(reference))
        g_lows = [delta.lo] + [s.lo for s in context.transmitted] + list(context.protected_points)
        g_highs = [delta.hi] + [s.hi for s in context.transmitted] + list(context.protected_points)
        window.append((min(g_lows), max(g_highs)))
    width = np.asarray([context.width for context in contexts], dtype=np.float64)
    d_lo = np.asarray([context.delta.lo for context in contexts])
    d_hi = np.asarray([context.delta.hi for context in contexts])
    center = (d_lo + d_hi) / 2.0
    w = width[:, None]
    positions = max(2, grid_positions)  # clamped like the scalar code
    aligned = max(point_counts)
    grid = 4 + 2 * aligned  # first grid column
    lo, hi = np.empty((count, grid + positions)), np.empty((count, grid + positions))
    ok = np.ones(lo.shape, dtype=bool)
    # truthful reading, then passive extremes (when the width can contain Δ)
    lo[:, 0] = [context.own_reading.lo for context in contexts]
    hi[:, 0] = [context.own_reading.hi for context in contexts]
    lo[:, 1:4] = np.column_stack([d_hi - width, d_lo, center - width / 2.0])
    hi[:, 1:4] = np.column_stack([d_hi, d_lo + width, center + width / 2.0])
    ok[:, 1:4] = (width >= (d_hi - d_lo) - PASSIVE_WIDTH_TOL)[:, None]
    # endpoint alignments: [p, p + w] then [p - w, p] per reference point
    owner = np.repeat(np.arange(count), point_counts)
    starts = np.cumsum(point_counts) - point_counts
    column = np.arange(owner.shape[0]) - starts[owner]
    reference = np.zeros((count, aligned))
    reference[owner, column] = points
    present = np.arange(aligned) < np.asarray(point_counts)[:, None]
    lo[:, 4:grid:2] = reference
    hi[:, 4:grid:2] = reference + w
    lo[:, 5:grid:2] = reference - w
    hi[:, 5:grid:2] = reference
    ok[:, 4:grid] = np.repeat(present, 2, axis=1)
    # uniform grid over the window (one placement when it collapses)
    window_lo = np.asarray([extremes[0] for extremes in window]) - width
    window_hi = np.asarray([extremes[1] for extremes in window]) + width
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
    return lo[keep], hi[keep], np.bincount(owner[keep], minlength=count).tolist()


def _support_value(profile, candidate_lo: float, candidate_hi: float, required: int) -> float | None:
    """:func:`repro.attack.stealth.support_point` over a precomputed profile.

    Identical selection rule — first strictly-best-coverage segment in
    profile order, point of the overlap closest to the candidate centre — so
    the returned float equals the scalar call bit for bit.
    """
    center = (candidate_lo + candidate_hi) / 2.0
    if required <= 0:
        return center
    best_point: float | None = None
    best_coverage = -1
    for segment in profile:
        if segment.coverage < required:
            continue
        lo = max(segment.lo, candidate_lo)
        hi = min(segment.hi, candidate_hi)
        if hi < lo:
            continue
        if segment.coverage > best_coverage:
            best_coverage = segment.coverage
            best_point = min(max(center, lo), hi)
    return best_point


class _AdmissibilityTable:
    """One context's inputs to the vectorized stealth predicates.

    :func:`_admissibility` broadcasts these per candidate to evaluate the
    passive/active rules of :mod:`repro.attack.stealth` for whole arrays of
    candidate bounds at once; results match
    :func:`repro.attack.stealth.check_admissible` candidate for candidate.
    """

    __slots__ = (
        "delta_lo",
        "delta_hi",
        "protected",
        "required",
        "available",
        "transmitted",
        "transmitted_lo",
        "transmitted_hi",
        "_profile",
    )

    def __init__(self, context: AttackContext) -> None:
        self.delta_lo = context.delta.lo
        self.delta_hi = context.delta.hi
        self.protected = tuple(context.protected_points)
        self.required = required_support(context)
        self.available = active_mode_available(context)
        self.transmitted = context.transmitted
        self.transmitted_lo = np.asarray([s.lo for s in context.transmitted])
        self.transmitted_hi = np.asarray([s.hi for s in context.transmitted])
        self._profile = None

    @property
    def profile(self):
        """The transmitted prefix's coverage profile, built on first use.

        Only support *values* (protection obligations of active decisions)
        need the merged segment list; the admissibility masks get by with
        point-coverage queries on the raw bounds.
        """
        if self._profile is None:
            self._profile = coverage_profile(self.transmitted) if self.transmitted else []
        return self._profile


def _has_support(lo: np.ndarray, hi: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray, required) -> np.ndarray:
    """Candidates owning a point covered by >= ``required`` transmitted intervals.

    The vectorized truth-value of ``support_point(...) is not None``;
    ``t_lo``/``t_hi`` hold the transmitted bounds (one row per candidate, or
    one for all), ``required`` is a scalar or per candidate.  Coverage is
    piecewise constant with breakpoints at the transmitted endpoints, and at
    a breakpoint the (closed-interval) point coverage dominates both
    neighbouring pieces, so the maximum over ``[lo, hi]`` is attained at an
    endpoint clipped into the candidate or at ``lo`` — evaluating the point
    coverage there is exact.
    """
    required = np.asarray(required)
    count = t_lo.shape[1]
    if count == 0:
        return np.broadcast_to(required <= 0, lo.shape).copy()
    lo_col = lo[:, None]
    hi_col = hi[:, None]
    points = np.empty((lo.shape[0], 2 * count + 1))
    points[:, 0] = lo
    points[:, 1 : count + 1] = np.minimum(np.maximum(t_lo, lo_col), hi_col)
    points[:, count + 1 :] = np.minimum(np.maximum(t_hi, lo_col), hi_col)
    coverage = np.zeros(points.shape, dtype=np.int64)
    for j in range(count):
        coverage += (t_lo[:, j : j + 1] <= points) & (points <= t_hi[:, j : j + 1])
    return (required <= 0) | (coverage >= required.reshape(-1, 1)).any(axis=1)


def _admissibility(
    tables: list[_AdmissibilityTable], ctx_idx: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(admissible, passive)`` masks of flat candidate arrays.

    Candidate ``i`` belongs to ``tables[ctx_idx[i]]``.  The tables share a
    transmitted-prefix length, so the per-context scalars (Δ bounds,
    protected points, required support, active availability) broadcast per
    candidate.  ``passive`` marks the candidates admissible in passive mode
    (the mode :func:`~repro.attack.stealth.check_admissible` reports, since
    passive is tried first); admissible-but-not-passive candidates are
    active.
    """
    delta_lo = np.asarray([t.delta_lo for t in tables])[ctx_idx]
    delta_hi = np.asarray([t.delta_hi for t in tables])[ctx_idx]
    covers_protected = np.ones(lo.shape, dtype=bool)
    max_protected = max(len(t.protected) for t in tables)
    if max_protected:
        protected = np.zeros((len(tables), max_protected))
        real = np.zeros((len(tables), max_protected), dtype=bool)
        for row, t in enumerate(tables):
            protected[row, : len(t.protected)] = t.protected
            real[row, : len(t.protected)] = True
        spread = protected[ctx_idx]
        inside = (lo[:, None] <= spread) & (spread <= hi[:, None])
        covers_protected = (inside | ~real[ctx_idx]).all(axis=1)
    passive = (lo <= delta_lo) & (delta_hi <= hi) & covers_protected
    available = np.asarray([t.available for t in tables], dtype=bool)[ctx_idx]
    required = np.asarray([t.required for t in tables], dtype=np.int64)[ctx_idx]
    t_lo = np.stack([t.transmitted_lo for t in tables])[ctx_idx]
    t_hi = np.stack([t.transmitted_hi for t in tables])[ctx_idx]
    active = available & covers_protected & _has_support(lo, hi, t_lo, t_hi, required)
    return passive | active, passive


@dataclass
class _PreparedCandidates:
    """The admissible candidate grid of one context, as bound arrays."""

    lo: np.ndarray
    hi: np.ndarray
    passive: np.ndarray
    blocked: np.ndarray  # conservative-mode gate: score forced to -inf
    table: _AdmissibilityTable

    def __len__(self) -> int:
        return int(self.lo.shape[0])

    def interval(self, index: int) -> Interval:
        return Interval(float(self.lo[index]), float(self.hi[index]))


@dataclass
class VectorizedExpectationPolicy:
    """Grid parameters and memo table of the batched exact attacker.

    The parameters mirror :class:`~repro.attack.expectation.ExpectationPolicy`
    with ``tie_break="first"``, and :func:`_decide_batch` reproduces its
    decisions exactly — candidate enumeration, admissibility and
    conservative-mode rules, tie tolerance — with the inner loops replaced:

    * candidates are enumerated, deduplicated and checked for stealth
      admissibility as flat arrays over all contexts of a batch;
    * all ``(candidate, scenario)`` fusion problems are solved by chunked
      batched endpoint sweeps instead of one scalar sweep each;
    * per-scenario widths are bit-identical to the scalar sweep's, and the
      per-candidate mean adds them in the scalar enumeration order, so every
      score (and hence every decision) matches the scalar policy exactly.

    ``memo`` maps a :func:`_memo_keys` key to ``(decision, mode, support)``;
    ``hits`` and ``misses`` count its lookups like the scalar policy's
    tallies, so :meth:`stats` reads the same on both engines.
    """

    true_value_positions: int = 3
    placement_positions: int = 3
    grid_positions: int = 9
    conservative: bool = False
    memo: dict[tuple, tuple[Interval, AttackerMode, float | None]] = field(default_factory=dict, repr=False)
    hits: int = field(default=0, repr=False, compare=False)
    misses: int = field(default=0, repr=False, compare=False)

    def stats(self) -> dict:
        """Read-only memo statistics: hits, misses, resident entries."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self.memo)}

    # ------------------------------------------------------------------
    # Candidate preparation (vectorized candidate_intervals)
    # ------------------------------------------------------------------
    def _prepare_candidates_many(self, contexts: list[AttackContext]) -> list[_PreparedCandidates]:
        """Per-context admissible candidate grids, equal to
        :func:`repro.attack.candidates.candidate_intervals` candidate for
        candidate: one :func:`_dedup_candidates` pass over all contexts, then
        one :func:`_admissibility` sweep per transmitted-prefix length."""
        if not contexts:
            return []
        lo, hi, sizes = _dedup_candidates(contexts, self.grid_positions)
        tables = [_AdmissibilityTable(ctx) for ctx in contexts]
        counts = np.asarray([table.transmitted_lo.shape[0] for table in tables])
        owner = np.repeat(np.arange(len(contexts)), sizes)
        admissible = np.empty(lo.shape, dtype=bool)
        passive = np.empty(lo.shape, dtype=bool)
        for count in np.unique(counts).tolist():
            # One sweep per transmitted-prefix length, chunked so the flat
            # candidate matrices stay bounded (same cap as the fusion sweeps;
            # chunks make the same element-wise comparisons).
            member = counts == count
            group = [table for table, keep in zip(tables, member.tolist()) if keep]
            local = np.cumsum(member) - 1
            index = np.flatnonzero(member[owner])
            for start in range(0, index.shape[0], _FUSE_CHUNK_ROWS):
                chunk = index[start : start + _FUSE_CHUNK_ROWS]
                admissible[chunk], passive[chunk] = _admissibility(group, local[owner[chunk]], lo[chunk], hi[chunk])
        bounds = np.cumsum([0] + sizes).tolist()
        return [
            self._finalize_candidates(ctx, lo[a:b], hi[a:b], table, admissible[a:b], passive[a:b])
            for ctx, table, a, b in zip(contexts, tables, bounds, bounds[1:])
        ]

    def _finalize_candidates(
        self, context: AttackContext, lo, hi, table: _AdmissibilityTable, admissible, passive
    ) -> _PreparedCandidates:
        """Fallback ladder + conservative gate over evaluated masks."""
        if not bool(admissible.any()):
            # Same fallback ladder as candidate_intervals: a Δ-centred
            # placement if admissible, else the truthful reading.
            centre_lo = np.asarray([context.delta.center - context.width / 2.0])
            centre_hi = centre_lo + context.width
            centre_ok, centre_passive = _admissibility([table], np.zeros(1, dtype=np.int64), centre_lo, centre_hi)
            if bool(centre_ok[0]):
                lo, hi, passive = centre_lo, centre_hi, centre_passive
            else:
                lo = np.asarray([context.own_reading.lo])
                hi = np.asarray([context.own_reading.hi])
                passive = np.ones(1, dtype=bool)
        else:
            lo, hi, passive = lo[admissible], hi[admissible], passive[admissible]
        if self.conservative and len(lo) > 1:
            t_lo = table.transmitted_lo[None, :]
            t_hi = table.transmitted_hi[None, :]
            blocked = ~passive & ~_has_support(lo, hi, t_lo, t_hi, context.n - context.f - 1)
        else:
            blocked = np.zeros(lo.shape, dtype=bool)
        return _PreparedCandidates(lo=lo, hi=hi, passive=passive, blocked=blocked, table=table)


def _trivially_truthful(context: AttackContext) -> bool:
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
    delta = context.delta
    width = context.width
    return (
        not context.protected_points
        and delta.lo == context.own_reading.lo
        and delta.hi == context.own_reading.hi
        # Exact float collapses: every passive extreme / aligned / grid
        # candidate that contains Δ reproduces Δ's bounds bit for bit, so the
        # scalar dedup folds them all into the truthful reading (C = 1).
        # Generic width mismatches (lookahead sub-decisions for a wider or
        # narrower slot) fail these checks and take the full enumeration.
        and delta.hi - width == delta.lo
        and delta.lo + width == delta.hi
        and delta.center - width / 2.0 == delta.lo
        and delta.center + width / 2.0 == delta.hi
        and not active_mode_available(context)
    )


def _scenario_grid(
    policy: VectorizedExpectationPolicy, contexts: list[AttackContext]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The future *correct* sensors' bounds in every scenario of every context.

    Returns ``(lo, hi, count)``.  ``lo``/``hi`` have one row per scenario —
    context-major, then in the order of
    :meth:`~repro.attack.expectation.ExpectationPolicy._future_scenarios`
    (true value outermost, the last remaining correct sensor's placement
    fastest) — and one column per remaining correct sensor, in slot order;
    future compromised sensors contribute no columns (their placements are
    decided, not enumerated).  ``count[i]`` is context ``i``'s number of
    scenarios.  The contexts share their ``remaining_compromised`` pattern.

    Grid points are computed with ``_linspace``'s float operations
    (``lo + i·step``, or the midpoint of a collapsed grid), so they are the
    same floats.  A context with no sensor left has one empty scenario, and
    a feasible region collapsed to a point has a single true value.  A
    placement window ``[t - w, t]`` would only collapse if ``t - w`` rounded
    to ``t`` (``|t| ≳ 2⁵²·w``), so every placement grid has the same length.
    """
    count = len(contexts)
    if not contexts[0].remaining_compromised:
        empty = np.empty((count, 0))
        return empty, empty, np.ones(count, dtype=np.int64)
    regions = [feasible_true_region(ctx) for ctx in contexts]
    region_lo = np.asarray([region.lo for region in regions])
    region_hi = np.asarray([region.hi for region in regions])
    widths = np.asarray([ctx.unseen_correct_widths for ctx in contexts], dtype=np.float64)
    widths = widths.reshape(count, -1)
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
    contexts here share their ``remaining_compromised`` pattern, so all their
    rounds advance together, held as index arrays with one entry per *row*
    — a context's unblocked candidate × one of its scenarios, in the scalar
    context-major, candidate-major, scenario-minor order: the row's
    candidate, its scenario and, per future compromised position, the
    sub-decision it received.  :meth:`assemble` expands a row range into the
    rounds' bound matrices (transmitted prefix, candidate, then the future
    sensors in slot order), so the fusion sweeps compare exactly what the
    scalar sweep compares, at most ``_FUSE_CHUNK_ROWS`` rows at a time.

    :meth:`advance` decides the future compromised positions;
    :meth:`scores` fuses the final rounds and averages each candidate's
    widths.  Conservative-blocked candidates are never played out and score
    ``-inf``, like the scalar ``_expected_final_width`` gate.
    """

    def __init__(
        self,
        policy: VectorizedExpectationPolicy,
        items: list[tuple[_PreparedCandidates, AttackContext]],
    ) -> None:
        self.policy = policy
        self.items = items
        contexts = [context for _prepared, context in items]
        self.pattern = contexts[0].remaining_compromised
        self.f = contexts[0].f
        sizes = [len(prepared) for prepared, _context in items]
        #: Where each context's candidates start in the flat candidate arrays.
        self.offsets = np.cumsum([0] + sizes)
        self.owner = np.repeat(np.arange(len(items)), sizes)
        self.cand_lo = np.concatenate([prepared.lo for prepared, _context in items])
        self.cand_hi = np.concatenate([prepared.hi for prepared, _context in items])
        blocked = np.concatenate([prepared.blocked for prepared, _context in items])
        self.live = np.flatnonzero(~blocked)
        # Sensor-major (prefix, contexts), the layout ``assemble`` fills.
        self.prefix_lo = np.stack([prepared.table.transmitted_lo for prepared, _context in items], axis=1)
        self.prefix_hi = np.stack([prepared.table.transmitted_hi for prepared, _context in items], axis=1)
        self.scen_lo, self.scen_hi, scenarios = _scenario_grid(policy, contexts)
        self.scen_owner = np.repeat(np.arange(len(items)), scenarios)
        self.per_candidate = scenarios[self.owner[self.live]]
        self.row_start = np.cumsum(self.per_candidate) - self.per_candidate
        self.cand = np.repeat(self.live, self.per_candidate)
        scenario_start = np.cumsum(scenarios) - scenarios
        self.scen = (
            scenario_start[self.owner[self.cand]]
            + np.arange(self.cand.shape[0])
            - np.repeat(self.row_start, self.per_candidate)
        )
        # Per future position: the scenario column of a correct sensor, or,
        # once ``advance`` has decided a compromised one, the row -> group
        # index and the groups' decisions (as Intervals and bound arrays).
        self.columns: list = []
        for position, compromised in enumerate(self.pattern):
            self.columns.append(None if compromised else position - sum(self.pattern[:position]))

    def assemble(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``(stop - start, sensors)`` bound matrices of rows ``start:stop``.

        Both are ``.T`` views of sensor-major ``(sensors, rows)`` buffers, so
        the counts kernel of :func:`coverage_extremes` reads them without a
        transposing copy.
        """
        cand = self.cand[start:stop]
        scen = self.scen[start:stop]
        owner = self.owner[cand]
        prefix = self.prefix_lo.shape[0]
        shape = (prefix + 1 + len(self.pattern), cand.shape[0])
        lo = np.empty(shape)
        hi = np.empty(shape)
        lo[:prefix] = self.prefix_lo[:, owner]
        hi[:prefix] = self.prefix_hi[:, owner]
        lo[prefix] = self.cand_lo[cand]
        hi[prefix] = self.cand_hi[cand]
        for column, source in enumerate(self.columns, start=prefix + 1):
            if isinstance(source, int):
                lo[column] = self.scen_lo[scen, source]
                hi[column] = self.scen_hi[scen, source]
            else:
                group, _decisions, group_lo, group_hi = source
                lo[column] = group_lo[group[start:stop]]
                hi[column] = group_hi[group[start:stop]]
        return lo.T, hi.T

    def advance(self) -> None:
        """Decide every future compromised position, in slot order.

        At each position, rows whose candidate and correct placements so far
        coincide share their sub-context verbatim, and hence their
        sub-decision and protection obligations.  One
        :class:`AttackContext` is built per such group, in first-occurrence
        order so the memo fills like the scalar play-out, and one
        :func:`_decide_batch` call decides them all (recursing for the later
        positions).  Decisions and protection-obligation tuple ids scatter
        back to the rows through the group index.  Memo keys cannot collide
        across positions: the transmitted-prefix length is part of the key.
        """
        if not any(self.pattern) or self.cand.shape[0] == 0:
            return
        policy = self.policy
        # Protection obligations as tuple ids: each live candidate starts from
        # its context's obligations plus, for an active placement, its own
        # support point (the scalar _expected_final_width bookkeeping).
        protections: list[tuple[float, ...]] = []
        candidates: dict[int, Interval] = {}
        seed = np.zeros(self.cand_lo.shape[0], dtype=np.int64)
        for index in self.live.tolist():
            owner = int(self.owner[index])
            prepared, context = self.items[owner]
            local = index - int(self.offsets[owner])
            candidates[index] = prepared.interval(local)
            obligations = context.protected_points
            if not prepared.passive[local]:
                support = _support_value(
                    prepared.table.profile,
                    float(prepared.lo[local]),
                    float(prepared.hi[local]),
                    prepared.table.required,
                )
                assert support is not None  # active admissibility guarantees it
                obligations = obligations + (support,)
            seed[index] = len(protections)
            protections.append(obligations)
        protection = seed[self.cand]
        placements_lo = self.scen_lo.tolist()
        placements_hi = self.scen_hi.tolist()
        correct_seen = 0
        for position, compromised in enumerate(self.pattern):
            if not compromised:
                correct_seen += 1
                continue
            keys = self.cand
            if correct_seen:
                # Rows share a sub-context only if their placements so far
                # are bit-for-bit equal (within one owning context).
                seen = np.column_stack(
                    [self.scen_owner, self.scen_lo[:, :correct_seen].view(np.int64)]
                )
                _, placement = np.unique(seen, axis=0, return_inverse=True)
                placement = placement.reshape(-1)
                keys = keys * (int(placement.max()) + 1) + placement[self.scen]
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            order = np.argsort(first)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.shape[0])
            group = rank[inverse.reshape(-1)]
            representatives = first[order].tolist()
            sub_contexts = []
            for row in representatives:
                cand = int(self.cand[row])
                scen = int(self.scen[row])
                context = self.items[int(self.owner[cand])][1]
                transmitted = list(context.transmitted)
                transmitted.append(candidates[cand])
                for source in self.columns[:position]:
                    if isinstance(source, int):
                        transmitted.append(
                            Interval(placements_lo[scen][source], placements_hi[scen][source])
                        )
                    else:
                        transmitted.append(source[1][source[0][row]])
                sub_contexts.append(
                    AttackContext(
                        n=context.n,
                        f=context.f,
                        slot_index=context.slot_index + 1 + position,
                        sensor_index=-1,
                        width=context.remaining_widths[position],
                        # The scalar ``_own_reading_guess`` stand-in: Δ.
                        own_reading=context.delta,
                        delta=context.delta,
                        transmitted=tuple(transmitted),
                        transmitted_compromised=context.transmitted_compromised
                        + (True,)
                        + self.pattern[:position],
                        remaining_widths=context.remaining_widths[position + 1 :],
                        remaining_compromised=self.pattern[position + 1 :],
                        protected_points=protections[protection[row]],
                    )
                )
            entries = _decide_batch(policy, sub_contexts)
            group_protection = protection[representatives]
            for index, (sub_context, (_decision, mode, support)) in enumerate(zip(sub_contexts, entries)):
                if mode is AttackerMode.ACTIVE and support is not None:
                    group_protection[index] = len(protections)
                    protections.append(sub_context.protected_points + (support,))
            protection = group_protection[group]
            decisions = [entry[0] for entry in entries]
            self.columns[position] = (
                group,
                decisions,
                np.asarray([decision.lo for decision in decisions]),
                np.asarray([decision.hi for decision in decisions]),
            )

    def scores(self) -> np.ndarray:
        """Expected final fusion width per candidate (flat, context-major).

        Mirrors the scalar ``_expected_final_width`` term for term: widths
        of scenarios with no fusion interval are skipped, and the rest are
        added *sequentially* in scenario order — ``np.cumsum`` adds left to
        right (``np.sum`` would pairwise-reduce and drift in the last bits,
        which could flip a tie), and a skipped scenario adds an exact
        ``+0.0`` — so each mean equals the scalar running total's.
        """
        total = self.cand.shape[0]
        widths = np.empty(total)
        valid = np.empty(total, dtype=bool)
        for start in range(0, total, _FUSE_CHUNK_ROWS):
            stop = min(start + _FUSE_CHUNK_ROWS, total)
            lo, hi = self.assemble(start, stop)
            fusion = coverage_extremes(lo, hi, lo.shape[1] - self.f)
            widths[start:stop] = fusion.hi - fusion.lo
            valid[start:stop] = fusion.valid
        scores = np.full(self.cand_lo.shape[0], -np.inf)
        # Contexts can differ in their number of scenarios (a collapsed
        # feasible region has one true value); score each count separately.
        for count in np.unique(self.per_candidate).tolist():
            chosen = np.flatnonzero(self.per_candidate == count)
            rows = self.row_start[chosen][:, None] + np.arange(count)
            ok = valid[rows]
            totals = np.cumsum(np.where(ok, widths[rows], 0.0), axis=1)[:, -1]
            counts = ok.sum(axis=1)
            scores[self.live[chosen]] = np.where(
                counts > 0, totals / np.maximum(counts, 1), -np.inf
            )
        return scores


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


def _store_decision(memo: dict, key: tuple, prepared: _PreparedCandidates, selected: int) -> tuple:
    """Memoise a computed decision with its stealth mode and support point.

    The mode/support pair equals what :func:`check_admissible
    <repro.attack.stealth.check_admissible>` reports for the decision in this
    context (passive is tried first; the active support point comes from the
    same coverage profile and selection rule), so consumers never rerun the
    scalar admissibility sweep.  The scalar fallback case whose only
    "candidate" is an inadmissible truthful reading is labelled passive here;
    consumers only test for active mode, for which both labels behave
    identically.
    """
    decision = prepared.interval(selected)
    if prepared.passive[selected]:
        entry = (decision, AttackerMode.PASSIVE, None)
    else:
        table = prepared.table
        support = _support_value(
            table.profile, float(prepared.lo[selected]), float(prepared.hi[selected]), table.required
        )
        entry = (decision, AttackerMode.ACTIVE, support)
    memo[key] = entry
    return entry


def _decide_batch(policy: VectorizedExpectationPolicy, contexts: list[AttackContext]) -> list[tuple]:
    """Decide a batch of attack contexts; returns their memo entries.

    Each entry is ``(decision, mode, support)`` (see :func:`_store_decision`).

    Contexts are visited in order so memo-key collisions resolve
    first-computed-wins, exactly like the scalar round-major loop.  The
    memo-missing contexts get their candidate grids from one batched
    admissibility sweep; those with several candidates are grouped by their
    remaining-slot pattern (identical for deterministic schedules;
    RandomSchedule rows can genuinely differ) and each group is scored by one
    :class:`_Playout`: the groups with future compromised sensors first
    decide them (calling back into this function one level deeper), then
    every group's final rounds are fused in chunked sweeps and each context
    selects its first best-scoring candidate.

    Shared by :class:`ExactExpectationBatchAttacker` (one call per schedule
    slot) and :meth:`_Playout.advance` (one call per future compromised
    position).  Each call emits one ``attack.candidates``, ``attack.recurse``
    and ``attack.score`` span.
    """
    memo = policy.memo
    entries: list[tuple | None] = [None] * len(contexts)
    pending_keys: set[tuple] = set()
    deferred: list[tuple[int, tuple]] = []
    staged: list[tuple[int, tuple, AttackContext]] = []
    for index, (ctx, key) in enumerate(zip(contexts, _memo_keys(policy.conservative, contexts))):
        cached = memo.get(key)
        if cached is not None:
            policy.hits += 1
            entries[index] = cached
            continue
        if key in pending_keys:
            # A same-key context earlier in this batch is already being
            # computed; reuse its (forthcoming) entry like the scalar loop
            # would reuse its cache entry.
            policy.hits += 1
            deferred.append((index, key))
            continue
        if _trivially_truthful(ctx):
            policy.misses += 1
            entries[index] = memo[key] = (ctx.own_reading, AttackerMode.PASSIVE, None)
            continue
        staged.append((index, key, ctx))
        pending_keys.add(key)

    with obs.span("attack.candidates", kernel="batch"):
        prepared_grids = policy._prepare_candidates_many([ctx for _index, _key, ctx in staged])
    # Single-candidate grids resolve on the spot; same-key followers land in
    # ``deferred`` and read the stored entry at the end, as a cache hit
    # would.
    patterns: dict[tuple, list[tuple[int, tuple, _PreparedCandidates, AttackContext]]] = {}
    for (index, key, ctx), prepared in zip(staged, prepared_grids):
        if len(prepared) == 1:
            policy.misses += 1
            entries[index] = _store_decision(memo, key, prepared, 0)
        else:
            patterns.setdefault(ctx.remaining_compromised, []).append((index, key, prepared, ctx))

    with obs.span("attack.recurse", kernel="batch"):
        playouts = {
            pattern: _Playout(policy, [entry[2:] for entry in members])
            for pattern, members in patterns.items()
            if any(pattern)
        }
        for playout in playouts.values():
            playout.advance()

    with obs.span("attack.score", kernel="batch"):
        for pattern, members in patterns.items():
            playout = playouts.get(pattern) or _Playout(policy, [entry[2:] for entry in members])
            selected = _first_best(playout.scores(), playout.offsets).tolist()
            for (index, key, prepared, _ctx), choice in zip(members, selected):
                policy.misses += 1
                entries[index] = _store_decision(memo, key, prepared, choice)

    for index, key in deferred:
        entries[index] = memo[key]
    return entries


@dataclass
class ExactExpectationBatchAttacker(BatchAttacker):
    """Batched driver for the exact expectation attacker of problem (2).

    At every schedule slot the attacker reconstructs each compromised row's
    :class:`~repro.attack.context.AttackContext` from the batch arrays,
    answers repeated contexts from the shared memo table (one decision per
    unique memo key per batch, honouring the scalar first-computed-wins
    semantics when keys collide across rows), and scores all remaining rows'
    candidate grids in **one** play-out per remaining-slot pattern
    (:func:`_decide_batch`).

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
    _protected: list[tuple[float, ...]] = field(default_factory=list, repr=False)

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
        self._protected = [() for _ in range(batch)]

    # ------------------------------------------------------------------
    # BatchAttacker interface
    # ------------------------------------------------------------------
    def forge(
        self, context: BatchSlotContext, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        if context.remaining_widths is None or context.transmitted_compromised is None:
            raise ScheduleError(
                "ExactExpectationBatchAttacker needs the lookahead fields of "
                "BatchSlotContext (remaining_widths / remaining_compromised / "
                "transmitted_compromised); drive it through repro.batch.rounds.batch_rounds"
            )
        if len(self._protected) != context.rows.shape[0]:
            self.reset(context.rows.shape[0])
        lo = context.own_lo.copy()
        hi = context.own_hi.copy()
        row_indices = [int(i) for i in np.flatnonzero(context.rows)]
        contexts = [self._row_context(context, i) for i in row_indices]
        entries = _decide_batch(self._policy, contexts)
        for row, (decision, mode, support) in zip(row_indices, entries):
            # Obligations constrain the later compromised slots of this round.
            if mode is AttackerMode.ACTIVE and support is not None:
                self._protected[row] = self._protected[row] + (support,)
            lo[row] = decision.lo
            hi[row] = decision.hi
        return lo, hi

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _row_context(self, context: BatchSlotContext, row: int) -> AttackContext:
        """One row's scalar attack context, rebuilt from the batch arrays."""
        return AttackContext(
            n=context.n,
            f=context.f,
            slot_index=context.slot,
            sensor_index=int(context.sensor[row]),
            width=float(context.width[row]),
            own_reading=Interval(float(context.own_lo[row]), float(context.own_hi[row])),
            delta=Interval(float(context.delta_lo[row]), float(context.delta_hi[row])),
            transmitted=tuple(
                Interval(float(a), float(b))
                for a, b in zip(context.transmitted_lo[row], context.transmitted_hi[row])
            ),
            transmitted_compromised=tuple(
                bool(flag) for flag in context.transmitted_compromised[row]
            ),
            remaining_widths=tuple(float(w) for w in context.remaining_widths[row]),
            remaining_compromised=tuple(
                bool(flag) for flag in context.remaining_compromised[row]
            ),
            protected_points=self._protected[row],
        )
