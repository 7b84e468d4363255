"""The exhaustive strategy: measure every distinct schedule.

Ground truth for small sensor sets.  The candidate space is the set of
schedule equivalence classes (:func:`repro.scheduling.enumeration
.enumerate_schedules`), so ties in the width grid shrink the work — the
paper's Table I rows range from 5 to a few hundred distinct schedules even
where ``n!`` reaches 40320.  The plan chunks the enumeration into
``spec.shard_candidates``-sized index ranges, which the runner fans out
over worker processes; because every candidate's measurement derives
statelessly from the spec (see
:class:`~repro.optimize.evaluator.ScheduleEvaluator`), the chunked result
is bit-identical to a single sequential sweep.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, ClassVar

from repro.optimize.base import Optimizer
from repro.scheduling.enumeration import enumerate_schedules

if TYPE_CHECKING:
    from repro.optimize.evaluator import ScheduleEvaluator
    from repro.scenarios.spec import OptimizationScenario

__all__ = ["ExhaustiveOptimizer"]


class ExhaustiveOptimizer(Optimizer):
    """Enumerate and measure the whole schedule space."""

    name: ClassVar[str] = "exhaustive"

    def plan(self, spec: "OptimizationScenario") -> list[tuple]:
        # The spec refuses spaces above its max_candidates when it is built.
        count = spec.candidate_count()
        return [
            ("chunk", start, min(spec.shard_candidates, count - start))
            for start in range(0, count, spec.shard_candidates)
        ]

    def execute(
        self, spec: "OptimizationScenario", evaluator: "ScheduleEvaluator", params: tuple
    ) -> dict:
        _, start, size = params
        candidates = itertools.islice(
            enumerate_schedules(evaluator.widths, evaluator.attacked), start, start + size
        )
        rows = [evaluator.evaluate(candidate, spec.samples) for candidate in candidates]
        return {"rows": rows, "history": {}}

