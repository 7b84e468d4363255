"""The simulated-annealing strategy: a seeded, resumable local search.

The chain starts from the best *baseline* ordering (so its best-found can
never be worse than the paper's fixed schedules), and at step ``k`` draws
everything it needs — move type, slot indices, the acceptance uniform —
from the dedicated stream ``derive_rng(seed, ANNEAL_STREAM, k)``.  Because
each step's stream is a pure function of ``(spec, k)`` and candidate
measurements are pure functions of ``(spec, candidate)``, the chain is
**resumable**: serialise :func:`chain_state` as JSON anywhere, rebuild an
evaluator later (any process, any engine backend) and
:func:`advance_chain` continues bit-identically — running steps
``[0, j)`` then ``[j, n)`` equals running ``[0, n)`` in one go.

The neighbourhood is the classic pair for permutation spaces: *swap* (two
slots exchange sensors) and *insert* (one sensor moves to another slot,
shifting the span between).  Proposals are canonicalised before
evaluation, so symmetric moves cost a memo hit, not an engine pass.

Temperature follows a geometric ladder ``t0 * scale * cooling**k`` where
``scale`` is the starting schedule's measured width — the spec's
``anneal_initial_temperature`` is therefore *relative* to the problem's
width scale, and one setting transfers across Table I rows.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, ClassVar, Sequence

from repro import obs
from repro.core.exceptions import ExperimentError
from repro.optimize.base import Optimizer, best_row, sort_key
from repro.optimize.evaluator import ANNEAL_STREAM, baseline_permutations
from repro.utils.seeding import derive_rng

if TYPE_CHECKING:
    from repro.optimize.evaluator import ScheduleEvaluator
    from repro.scenarios.spec import OptimizationScenario

__all__ = ["AnnealOptimizer", "advance_chain", "chain_state", "run_chain"]


def _width(row: dict) -> float:
    """A row's width as a totally ordered float (degenerate rows last)."""
    return row["expected_width"] if row["valid"] else math.inf


def _propose(current: Sequence[int], rng) -> tuple[int, ...]:
    """One neighbourhood move on ``current`` drawn from ``rng``."""
    order = list(current)
    if len(order) < 2:
        return tuple(order)
    move = int(rng.integers(2))
    first, second = (int(index) for index in rng.choice(len(order), size=2, replace=False))
    if move == 0:
        order[first], order[second] = order[second], order[first]
    else:
        order.insert(second, order.pop(first))
    return tuple(order)


def chain_state(spec: "OptimizationScenario", evaluator: "ScheduleEvaluator") -> dict:
    """The chain's step-0 state: a plain JSON-serialisable dict.

    Evaluates every baseline ordering at the full budget (they are part of
    the payload regardless) and seats the chain on the best of them.
    ``visited`` records every distinct canonical candidate the chain has
    measured, in first-visit order — re-evaluating it later is all memo
    hits, which is how :class:`AnnealOptimizer.execute` rebuilds its rows
    after a resume.
    """
    baseline_rows = [
        evaluator.evaluate(permutation, spec.samples)
        for _, permutation in baseline_permutations(spec)
    ]
    start = best_row(baseline_rows)
    width = _width(start)
    visited: list[list[int]] = []
    for row in baseline_rows:
        if row["permutation"] not in visited:
            visited.append(row["permutation"])
    return {
        "step": 0,
        "start": list(start["permutation"]),
        "current": list(start["permutation"]),
        "best": list(start["permutation"]),
        "accepted": 0,
        "temperature_scale": width if math.isfinite(width) and width > 0 else 1.0,
        "visited": visited,
    }


def advance_chain(
    spec: "OptimizationScenario", evaluator: "ScheduleEvaluator", state: dict
) -> dict:
    """One annealing step; returns the successor state (input unchanged)."""
    step = state["step"]
    rng = derive_rng(spec.seed, ANNEAL_STREAM, step)
    proposal = evaluator.canonical(_propose(state["current"], rng))
    row = evaluator.evaluate(proposal, spec.samples)
    current_row = evaluator.evaluate(state["current"], spec.samples)  # memo hit
    best = evaluator.evaluate(state["best"], spec.samples)  # memo hit
    visited = [list(permutation) for permutation in state["visited"]]
    if row["permutation"] not in visited:
        visited.append(row["permutation"])
    delta = _width(row) - _width(current_row)
    temperature = (
        spec.anneal_initial_temperature * state["temperature_scale"] * spec.anneal_cooling**step
    )
    accept = delta <= 0
    if not accept and temperature > 0 and math.isfinite(delta):
        accept = float(rng.random()) < math.exp(-delta / temperature)
    return {
        "step": step + 1,
        "start": list(state["start"]),
        "current": row["permutation"] if accept else list(state["current"]),
        "best": min((row, best), key=sort_key)["permutation"],
        "accepted": state["accepted"] + int(accept),
        "temperature_scale": state["temperature_scale"],
        "visited": visited,
    }


def run_chain(
    spec: "OptimizationScenario",
    evaluator: "ScheduleEvaluator",
    state: dict | None = None,
    until_step: int | None = None,
) -> dict:
    """Advance the chain to ``until_step`` (default: ``spec.anneal_steps``)."""
    if state is None:
        state = chain_state(spec, evaluator)
    if until_step is None:
        until_step = spec.anneal_steps
    if state["step"] > until_step:
        raise ExperimentError(
            f"cannot rewind an annealing chain: state is at step {state['step']}, "
            f"asked to stop at {until_step}"
        )
    while state["step"] < until_step:
        state = advance_chain(spec, evaluator, state)
    return state


class AnnealOptimizer(Optimizer):
    """Simulated annealing over the swap/insert neighbourhood."""

    name: ClassVar[str] = "anneal"

    def plan(self, spec: "OptimizationScenario") -> list[tuple]:
        # The chain is inherently sequential: one task, resumable by state.
        return [("chain", spec.anneal_steps)]

    def execute(
        self, spec: "OptimizationScenario", evaluator: "ScheduleEvaluator", params: tuple
    ) -> dict:
        _, steps = params
        state = run_chain(spec, evaluator, until_step=steps)
        # Acceptance telemetry: counts come straight from the chain state, so
        # they are exact after a resume too (the state carries the tallies).
        obs.add("repro_anneal_steps_total", state["step"])
        obs.add("repro_anneal_accepted_total", state["accepted"])
        rows = [evaluator.evaluate(permutation, spec.samples) for permutation in state["visited"]]
        return {
            "rows": rows,
            "history": {
                "anneal": {
                    "steps": state["step"],
                    "accepted": state["accepted"],
                    "start": state["start"],
                    "final_temperature": (
                        spec.anneal_initial_temperature
                        * state["temperature_scale"]
                        * spec.anneal_cooling ** max(state["step"] - 1, 0)
                    ),
                }
            },
        }

