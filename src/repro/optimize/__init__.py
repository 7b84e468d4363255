"""Schedule search: the repro as a design tool (``docs/OPTIMIZATION.md``).

The paper evaluates a handful of fixed transmission schedules; this package
*searches* the schedule space for a configuration's best ordering.  Three
strategies register on import — ``exhaustive``, ``anneal`` and ``bandit`` —
all measuring candidates through the shared
:class:`~repro.optimize.evaluator.ScheduleEvaluator`, whose stateless
per-candidate RNG streams and packed :meth:`~repro.engine.base.Engine
.run_many` passes make every measurement a pure function of the spec.

Entry points: an :class:`~repro.scenarios.spec.OptimizationScenario` run
through the standard runner/store/CLI stack (``python -m repro optimize``),
or the registry directly (:func:`get_optimizer`).
"""

from repro.optimize.base import (
    Optimizer,
    available_optimizers,
    best_row,
    get_optimizer,
    register_optimizer,
    sort_key,
)
from repro.optimize.evaluator import (
    ANNEAL_STREAM,
    BANDIT_STREAM,
    EVAL_STREAM,
    ScheduleEvaluator,
    baseline_permutations,
)

# Strategy modules register themselves on import; keep them after the
# registry so their module-level register_optimizer calls resolve.
from repro.optimize.anneal import AnnealOptimizer, advance_chain, chain_state, run_chain
from repro.optimize.bandit import BanditOptimizer, seed_population
from repro.optimize.exhaustive import ExhaustiveOptimizer
from repro.optimize.report import MAX_REPORTED_ROWS, assemble_payload

__all__ = [
    "Optimizer",
    "register_optimizer",
    "available_optimizers",
    "get_optimizer",
    "sort_key",
    "best_row",
    "EVAL_STREAM",
    "ANNEAL_STREAM",
    "BANDIT_STREAM",
    "ScheduleEvaluator",
    "baseline_permutations",
    "ExhaustiveOptimizer",
    "AnnealOptimizer",
    "advance_chain",
    "chain_state",
    "run_chain",
    "BanditOptimizer",
    "seed_population",
    "MAX_REPORTED_ROWS",
    "assemble_payload",
]
