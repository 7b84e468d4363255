"""Candidate evaluation: canonical schedules, packed engine passes, memo.

Every optimizer strategy measures candidates through one
:class:`ScheduleEvaluator`, which enforces the three properties the
subsystem's determinism pins rely on:

1. **Canonicalization.**  A proposed permutation is first reduced with
   :func:`repro.scheduling.enumeration.canonical_schedule`, so symmetric
   proposals (swapping equal-width, equally-attacked sensors) collapse
   onto one plan and share one measurement.
2. **Stateless streams.**  A candidate's budget is sharded into
   ``spec.shard_samples`` chunks and shard ``i`` draws from stream ``i``
   of ``jumped_rngs(seed, shards, EVAL_STREAM, *canonical)`` — a pure
   function of the spec and the candidate (the entropy pool is hashed once
   per candidate; shards are ``PCG64.jumped`` offsets, which keeps stream
   derivation out of the hot loop).  The measured width is therefore identical
   no matter which strategy asks, in which order, on which worker, or on
   which engine backend (the engines are bit-identical by conformance).
   Because budgets shard from the front, a half-budget bandit rung shares
   its rounds with the full-budget measurement's prefix — common random
   numbers across rungs, for free.
3. **Packing.**  All shards of a candidate go through one
   :meth:`repro.engine.base.Engine.run_many` call, so a candidate costs a
   single batch pass instead of one engine invocation per shard — the ≥5x
   candidate-evaluations/sec gate of ``benchmarks/bench_optimize.py``.

Repeat evaluations (an annealing chain revisiting a neighbourhood, a
bandit re-measuring survivors at the previous rung's budget) are memo
hits: the value is a pure function, so caching it is exact, not an
approximation.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import obs
from repro.engine import get_engine
from repro.scenarios.spec import shard_sizes
from repro.scheduling.enumeration import canonical_schedule
from repro.scheduling.schedule import FixedSchedule
from repro.utils.seeding import jumped_rngs

if TYPE_CHECKING:  # annotation-only: repro.scenarios lazily imports us back
    from repro.scenarios.spec import OptimizationScenario

__all__ = ["EVAL_STREAM", "ANNEAL_STREAM", "BANDIT_STREAM", "ScheduleEvaluator", "baseline_permutations"]

#: Spawn-key stream discriminators.  Candidate measurements, the annealing
#: proposal chain and the bandit population draw from disjoint child
#: streams of the spec seed, keyed so no two derivations can collide.
EVAL_STREAM = 0
ANNEAL_STREAM = 1
BANDIT_STREAM = 2


def baseline_permutations(spec: "OptimizationScenario") -> list[tuple[str, tuple[int, ...]]]:
    """The baseline orderings as ``(schedule spec, canonical permutation)``.

    Resolves each deterministic baseline in ``spec.case.schedules`` to the
    concrete permutation it induces on the case's widths and reduces it to
    canonical form — so a baseline's measurement is exactly the
    measurement of the matching search candidate (same plan, same
    streams), and "best-found vs the paper's orderings" compares like with
    like.  A pure function of the spec: merges may call it without
    simulating.
    """
    from repro.scenarios.spec import schedule_from_spec

    config = spec.case.comparison_config()
    # Deterministic orderings never consume randomness (the spec validator
    # rejects "random"); the generator argument is just the signature.
    rng = np.random.default_rng(0)
    pairs = []
    for text in spec.case.schedules:
        order = schedule_from_spec(text).order(config.lengths, rng)
        pairs.append((text, canonical_schedule(order, config.lengths, config.resolved_attacked)))
    return pairs


class ScheduleEvaluator:
    """Measure candidate schedules for one :class:`OptimizationScenario`.

    One evaluator per shard task; the memo lives for the task's lifetime.
    Values are pure functions of ``(spec, candidate, samples)``, so two
    tasks measuring the same candidate agree bit for bit — cross-task
    deduplication would save time but never changes a payload.
    """

    def __init__(self, spec: "OptimizationScenario") -> None:
        self.spec = spec
        self.config = spec.case.comparison_config()
        self.attack = spec.case.attack
        self.faults = spec.case.faults()
        self.engine = get_engine(spec.engine)
        self._memo: dict[tuple, dict] = {}
        #: Measurements requested (memo hits included).
        self.evaluations = 0
        #: Distinct ``(candidate, samples)`` measurements actually run.
        self.unique_evaluations = 0
        #: Packed ``run_many`` engine passes dispatched.
        self.engine_passes = 0
        #: Monte-Carlo rounds simulated across all passes.
        self.rounds_simulated = 0

    @property
    def widths(self) -> tuple[float, ...]:
        return self.config.lengths

    @property
    def attacked(self) -> tuple[int, ...]:
        return self.config.resolved_attacked

    def canonical(self, permutation: Sequence[int]) -> tuple[int, ...]:
        """Reduce a proposal to its equivalence-class representative."""
        return canonical_schedule(permutation, self.widths, self.attacked)

    def counters(self) -> dict:
        """Bookkeeping for payloads and the packing benchmark."""
        return {
            "evaluations": self.evaluations,
            "unique_evaluations": self.unique_evaluations,
            "engine_passes": self.engine_passes,
            "rounds_simulated": self.rounds_simulated,
        }

    def evaluate(self, permutation: Sequence[int], samples: int) -> dict:
        """Measure one candidate at ``samples`` rounds; memoized and exact."""
        canonical = self.canonical(permutation)
        self.evaluations += 1
        key = (canonical, int(samples))
        row = self._memo.get(key)
        if row is not None:
            obs.add("repro_optimize_evaluations_total", 1, outcome="memo")
            return row
        budgets = shard_sizes(int(samples), self.spec.shard_samples)
        rngs = jumped_rngs(self.spec.seed, len(budgets), EVAL_STREAM, *canonical)
        started = perf_counter() if obs.enabled() else None
        with obs.span("optimize.evaluate", engine=self.engine.name, samples=int(samples)):
            results = self.engine.run_many(
                self.config,
                FixedSchedule(canonical),
                self.attack,
                self.faults,
                budgets=budgets,
                rngs=rngs,
                channel=self.spec.case.channel,
            )
        if started is not None:
            obs.add("repro_optimize_evaluations_total", 1, outcome="unique")
            obs.observe("repro_optimize_evaluation_seconds", perf_counter() - started)
        self.unique_evaluations += 1
        self.engine_passes += 1
        self.rounds_simulated += int(samples)
        valid = sum(int(np.count_nonzero(result.valid)) for result in results)
        width_sum = sum(float(result.widths[result.valid].sum()) for result in results)
        detected = sum(int(np.count_nonzero(result.attacker_detected)) for result in results)
        row = {
            "schedule": "fixed:" + ",".join(str(index) for index in canonical),
            "permutation": list(canonical),
            "samples": int(samples),
            "valid": valid,
            "expected_width": width_sum / valid if valid else float("nan"),
            "detected_fraction": detected / int(samples),
        }
        self._memo[key] = row
        return row