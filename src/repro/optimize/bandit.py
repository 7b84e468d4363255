"""The bandit strategy: successive halving over a seeded population.

A best-arm-identification view of schedule search: candidates are arms,
Monte-Carlo rounds are pulls, and the sample budget concentrates on the
arms that look best at low fidelity.  ``bandit_rounds`` rungs run budgets
``samples / 2**(R-1-r)`` (so the final rung is the full ``samples``), and
after each rung only the better half of the field advances.

Two properties keep it honest:

* The population is drawn from the dedicated stream
  ``derive_rng(seed, BANDIT_STREAM)`` — baseline orderings first, then
  random permutations deduplicated by canonical form — so the field is a
  pure function of the spec.
* The final rung always re-includes every baseline at the full budget, so
  the reported best can never be worse than the paper's fixed orderings
  and the payload's baseline rows exist whatever the halving eliminated.

Low-fidelity rungs share rounds with the full-budget measurement (budgets
shard from the front and streams are keyed per shard), so promoting a
survivor re-uses its earlier rounds as common random numbers rather than
contradicting them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, ClassVar

from repro import obs
from repro.optimize.base import Optimizer, sort_key
from repro.optimize.evaluator import BANDIT_STREAM, baseline_permutations
from repro.scheduling.enumeration import count_distinct_schedules
from repro.utils.seeding import derive_rng

if TYPE_CHECKING:
    from repro.optimize.evaluator import ScheduleEvaluator
    from repro.scenarios.spec import OptimizationScenario

__all__ = ["BanditOptimizer", "seed_population"]


def seed_population(
    spec: "OptimizationScenario", evaluator: "ScheduleEvaluator"
) -> list[tuple[int, ...]]:
    """The initial field: baselines first, then seeded random distinct arms.

    Grows the field to ``bandit_population`` distinct canonical schedules
    (or the whole space, if smaller).  Rejection-sampling distinct classes
    could stall on tiny spaces, so draws are capped well past the coupon-
    collector regime and the field simply stays smaller if the space is
    exhausted first.
    """
    field: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _, permutation in baseline_permutations(spec):
        if permutation not in seen:
            seen.add(permutation)
            field.append(permutation)
    total = count_distinct_schedules(evaluator.widths, evaluator.attacked)
    target = max(len(field), min(spec.bandit_population, total))
    rng = derive_rng(spec.seed, BANDIT_STREAM)
    draws = 0
    while len(field) < target and draws < 200 * spec.bandit_population:
        draws += 1
        candidate = evaluator.canonical(int(index) for index in rng.permutation(len(evaluator.widths)))
        if candidate not in seen:
            seen.add(candidate)
            field.append(candidate)
    return field


class BanditOptimizer(Optimizer):
    """Successive halving: reallocate the sample budget to survivors."""

    name: ClassVar[str] = "bandit"

    def plan(self, spec: "OptimizationScenario") -> list[tuple]:
        # Halving decisions depend on the previous rung: one sequential task.
        return [("halving", spec.bandit_rounds)]

    def execute(
        self, spec: "OptimizationScenario", evaluator: "ScheduleEvaluator", params: tuple
    ) -> dict:
        _, rounds = params
        field = seed_population(spec, evaluator)
        rungs = []
        for rung in range(rounds - 1):
            budget = max(1, spec.samples // 2 ** (rounds - 1 - rung))
            ranked = sorted(
                (evaluator.evaluate(permutation, budget) for permutation in field), key=sort_key
            )
            rungs.append({"budget": budget, "candidates": len(field)})
            obs.add("repro_bandit_rung_candidates_total", len(field), rung=str(rung))
            survivors = max(1, math.ceil(len(ranked) / 2))
            obs.add("repro_bandit_rung_survivors_total", survivors, rung=str(rung))
            field = [tuple(row["permutation"]) for row in ranked[:survivors]]
        # Final rung at the full budget; baselines always re-enter so the
        # payload can compare best-found against every paper ordering.
        finalists: list[tuple[int, ...]] = list(field)
        for _, permutation in baseline_permutations(spec):
            if permutation not in finalists:
                finalists.append(permutation)
        rows = [evaluator.evaluate(permutation, spec.samples) for permutation in finalists]
        rungs.append({"budget": spec.samples, "candidates": len(finalists)})
        obs.add("repro_bandit_rung_candidates_total", len(finalists), rung=str(rounds - 1))
        return {"rows": rows, "history": {"bandit": {"rungs": rungs}}}

