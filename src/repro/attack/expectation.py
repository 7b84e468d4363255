"""The expectation-maximising attacker of problem (2) in the paper.

When the attacker has not yet seen every correct interval she has, in
general, no optimal policy (Fig. 2 of the paper); a reasonable goal is to
maximise the *expected* width of the final fusion interval over all possible
placements of the sensors that will transmit after her.  This module
implements that attacker by explicit enumeration, mirroring the paper's own
methodology ("we have discretized the real line with a sufficiently high
precision in order to compute the expectation").

The generative model of the unseen future used for the expectation is the
same one the experiments use to generate measurements:

* the true value is uniform over the attacker's feasible region — the
  intersection of ``Δ`` with every correct interval seen so far;
* every unseen *correct* interval of width ``w`` is uniform over the
  placements of width ``w`` that contain the true value;
* every unseen *compromised* interval is placed by recursively applying the
  same expectation-maximising policy at its own slot (with what it will have
  seen by then), which approximates the joint optimisation of problem (2) by
  backward induction.

Decisions are memoised on the decision-relevant part of the context
(:meth:`AttackContext.cache_key`, extended with the policy's ``conservative``
flag), which is what makes the exhaustive Table I style experiments
tractable: under the Ascending schedule the attacker's context barely varies
across the outer enumeration, so her (expensive) decision is computed only a
handful of times.

The NumPy-vectorized counterpart — identical decisions, the inner
(true-value × placement × candidate) grid evaluated as broadcast tensor ops —
lives in :mod:`repro.batch.expectation`; the catalogue of every attacker and
the paper equation it implements is in ``docs/ATTACKERS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.attack.candidates import candidate_intervals
from repro.attack.context import AttackContext
from repro.attack.policy import AttackPolicy
from repro.attack.stealth import AttackerMode, check_admissible, support_point
from repro.core.exceptions import AttackError
from repro.core.interval import Interval, intersect_all
from repro.core.marzullo import fuse_or_none

__all__ = ["ExpectationPolicy", "TIE_TOLERANCE", "feasible_true_region"]

#: Scores within this distance of the best candidate's score count as tied;
#: shared with the vectorized scorer so both build identical tie sets.
TIE_TOLERANCE = 1e-9


def feasible_true_region(context: AttackContext) -> Interval:
    """Where the true value can be, given Δ and the seen correct intervals."""
    pieces = [context.delta, *context.seen_correct_intervals]
    try:
        return intersect_all(pieces)
    except Exception:
        # Seen correct intervals always contain the true value and so does
        # Δ, so the intersection cannot actually be empty; the fallback is
        # purely defensive.
        return context.delta


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """``count`` evenly spaced points covering ``[lo, hi]`` (endpoints included)."""
    if count <= 1 or hi <= lo:
        return [(lo + hi) / 2.0]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


@dataclass
class ExpectationPolicy(AttackPolicy):
    """Expectation-maximising attacker (see module docstring).

    Parameters
    ----------
    true_value_positions:
        Number of grid points used for the unknown true value inside the
        attacker's feasible region.
    placement_positions:
        Number of grid points used for each unseen correct interval's
        placement (per true-value hypothesis).
    grid_positions:
        Resolution of the candidate grid for the attacker's own interval.
    conservative:
        If ``True``, active-mode placements must additionally share a point
        with at least ``n - f - 1`` *already transmitted* intervals — the
        attacker does not count her own not-yet-sent compromised intervals as
        guaranteed support.  The paper's theory (the ``n - f - far`` mode
        switch) permits counting them, which is the default behaviour; the
        conservative variant reproduces the weaker attacker the paper's
        Table I simulation appears to use for ``fa = 2`` and is exercised by
        the attacker-strength ablation benchmark.
    tie_break:
        ``"random"`` (default) picks uniformly among tied candidates so a
        symmetric configuration is attacked symmetrically across rounds;
        ``"first"`` deterministically keeps the first tied candidate and
        consumes no randomness — the variant the engine layer exposes, so the
        scalar and batch backends stay bit-comparable (their RNG streams
        never diverge on tie-breaking).
    """

    true_value_positions: int = 3
    placement_positions: int = 3
    grid_positions: int = 9
    conservative: bool = False
    tie_break: str = "random"
    _hits: int = field(default=0, repr=False, compare=False)
    _misses: int = field(default=0, repr=False, compare=False)
    _cache: dict[tuple, Interval] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.tie_break not in ("random", "first"):
            raise AttackError(f"tie_break must be 'random' or 'first', got {self.tie_break!r}")

    # ------------------------------------------------------------------
    # AttackPolicy interface
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Decisions are deterministic given the context, so the cache can
        safely persist across rounds; ``reset`` is a no-op kept for symmetry.

        The hit/miss tallies persist too: they count the memo's lifetime
        behaviour, and the engines construct a **fresh policy per run**, so
        each ``compare()`` leg starts from zero without ``reset`` having to
        clear anything (``tests/attack/test_expectation.py`` pins both)."""

    # ------------------------------------------------------------------
    # Memo accounting (read-only outside; ``_cached_decide`` keeps the
    # tallies as plain ints so the hot loop stays cheap)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Read-only memo statistics: hits, misses, resident entries."""
        return {"hits": self._hits, "misses": self._misses, "entries": len(self._cache)}

    def choose_interval(self, context: AttackContext, rng: np.random.Generator) -> Interval:
        return self._cached_decide(context, rng)

    # ------------------------------------------------------------------
    # Memoisation
    # ------------------------------------------------------------------
    def _memo_key(self, context: AttackContext) -> tuple:
        """Memo-table key: the context's :meth:`~AttackContext.cache_key` plus
        the ``conservative`` flag (which changes the scoring rule, so the two
        attacker variants must never share an entry; the batched keys of
        :mod:`repro.batch.expectation` carry the flag too)."""
        return (self.conservative, context.cache_key())

    def _cached_decide(
        self, context: AttackContext, rng: np.random.Generator | None = None
    ) -> Interval:
        key = self._memo_key(context)
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1
        decision = self._decide(context, rng)
        self._cache[key] = decision
        return decision

    # ------------------------------------------------------------------
    # Decision procedure
    # ------------------------------------------------------------------
    def _decide(self, context: AttackContext, rng: np.random.Generator | None = None) -> Interval:
        candidates = candidate_intervals(context, self.grid_positions)
        if len(candidates) == 1:
            return candidates[0]
        scores = [self._expected_final_width(candidate, context) for candidate in candidates]
        return self._select(candidates, scores, rng)

    def _select(
        self,
        candidates: Sequence[Interval],
        scores: Sequence[float],
        rng: np.random.Generator | None,
    ) -> Interval:
        """Pick the best-scoring candidate, resolving ties per ``tie_break``."""
        best_score = max(scores)
        # Several placements are frequently tied (attacking symmetrically to
        # the left or to the right of what has been seen gives the same
        # expected width); pick uniformly among the ties so the attacker does
        # not systematically favour one side across rounds.
        ties = [
            candidate
            for score, candidate in zip(scores, candidates)
            if score >= best_score - TIE_TOLERANCE
        ]
        if self.tie_break == "random" and rng is not None and len(ties) > 1:
            return ties[int(rng.integers(0, len(ties)))]
        return ties[0]

    def _expected_final_width(self, candidate: Interval, context: AttackContext) -> float:
        """Expected fusion width after the rest of the round plays out."""
        admissibility = check_admissible(candidate, context)
        if not admissibility.admissible:
            return -np.inf
        if (
            self.conservative
            and admissibility.mode is AttackerMode.ACTIVE
            and support_point(candidate, context.transmitted, context.n - context.f - 1) is None
        ):
            return -np.inf
        protected = context.protected_points
        if admissibility.mode is AttackerMode.ACTIVE and admissibility.support is not None:
            protected = protected + (admissibility.support,)

        widths_total = 0.0
        count = 0
        for scenario in self._future_scenarios(context):
            final = self._play_out(candidate, context, scenario, protected)
            if final is None:
                continue
            widths_total += final
            count += 1
        if count == 0:
            return -np.inf
        return widths_total / count

    def _future_scenarios(self, context: AttackContext) -> Iterator[list[tuple[float, bool, Interval | None]]]:
        """Yield scenarios for the sensors transmitting after the current slot.

        Each scenario is a list (in schedule order) of tuples
        ``(width, compromised, interval_or_None)`` where correct sensors get a
        concrete interval and compromised sensors get ``None`` (their interval
        is decided recursively during play-out).
        """
        region = feasible_true_region(context)
        remaining = list(zip(context.remaining_widths, context.remaining_compromised))
        if not remaining:
            yield []
            return
        for true_value in _linspace(region.lo, region.hi, self.true_value_positions):
            yield from self._scenarios_for_true_value(remaining, true_value, 0, [])

    def _scenarios_for_true_value(
        self,
        remaining: Sequence[tuple[float, bool]],
        true_value: float,
        index: int,
        acc: list[tuple[float, bool, Interval | None]],
    ) -> Iterator[list[tuple[float, bool, Interval | None]]]:
        if index == len(remaining):
            yield list(acc)
            return
        width, compromised = remaining[index]
        if compromised:
            acc.append((width, True, None))
            yield from self._scenarios_for_true_value(remaining, true_value, index + 1, acc)
            acc.pop()
            return
        for lo in _linspace(true_value - width, true_value, self.placement_positions):
            acc.append((width, False, Interval(lo, lo + width)))
            yield from self._scenarios_for_true_value(remaining, true_value, index + 1, acc)
            acc.pop()

    def _play_out(
        self,
        candidate: Interval,
        context: AttackContext,
        scenario: Sequence[tuple[float, bool, Interval | None]],
        protected: tuple[float, ...],
    ) -> float | None:
        """Simulate the remainder of the round for one scenario.

        Returns the final fusion width, or ``None`` if the scenario leads to a
        configuration with no fusion interval (which cannot happen for
        feasible scenarios and is treated as "skip").
        """
        transmitted = list(context.transmitted) + [candidate]
        transmitted_compromised = list(context.transmitted_compromised) + [True]
        own_readings = self._own_reading_guess(context)

        for position, (width, compromised, interval) in enumerate(scenario):
            if not compromised:
                assert interval is not None
                transmitted.append(interval)
                transmitted_compromised.append(False)
                continue
            remaining_tail = scenario[position + 1 :]
            sub_context = AttackContext(
                n=context.n,
                f=context.f,
                slot_index=context.slot_index + 1 + position,
                sensor_index=-1,
                width=width,
                own_reading=own_readings,
                delta=context.delta,
                transmitted=tuple(transmitted),
                transmitted_compromised=tuple(transmitted_compromised),
                remaining_widths=tuple(w for w, _c, _i in remaining_tail),
                remaining_compromised=tuple(c for _w, c, _i in remaining_tail),
                protected_points=protected,
            )
            decision = self._cached_decide(sub_context)
            sub_admissibility = check_admissible(decision, sub_context)
            if sub_admissibility.mode is AttackerMode.ACTIVE and sub_admissibility.support is not None:
                protected = protected + (sub_admissibility.support,)
            transmitted.append(decision)
            transmitted_compromised.append(True)

        fusion = fuse_or_none(transmitted, context.f)
        if fusion is None:
            return None
        return fusion.width

    def _own_reading_guess(self, context: AttackContext) -> Interval:
        """Stand-in reading for later compromised sensors inside the lookahead.

        The attacker controls those sensors, so their correct readings contain
        the true value and intersect Δ; using Δ itself keeps the recursion
        admissible without widening the attacker's assumed knowledge.
        """
        return context.delta
