"""Schedule search: the repro as a design tool (``docs/OPTIMIZATION.md``).

The paper evaluates a handful of fixed transmission schedules; this package
*searches* the schedule space for a configuration's best ordering.  Three
strategies are registered with :mod:`repro.optimize.base` — ``exhaustive``,
``anneal`` and ``bandit``, each imported on first use — all measuring
candidates through the shared :class:`~repro.optimize.evaluator.ScheduleEvaluator`, whose stateless
per-candidate RNG streams and packed :meth:`~repro.engine.base.Engine
.run_many` passes make every measurement a pure function of the spec.

Entry points: an :class:`~repro.scenarios.spec.OptimizationScenario` run
through the standard runner/store/CLI stack (``python -m repro optimize``),
or the registry directly (:func:`get_optimizer`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": (
            "Optimizer",
            "available_optimizers",
            "best_row",
            "get_optimizer",
            "register_optimizer",
            "sort_key",
        ),
        "evaluator": (
            "ANNEAL_STREAM",
            "BANDIT_STREAM",
            "EVAL_STREAM",
            "ScheduleEvaluator",
            "baseline_permutations",
        ),
        "anneal": ("AnnealOptimizer", "advance_chain", "chain_state", "run_chain"),
        "bandit": ("BanditOptimizer", "seed_population"),
        "exhaustive": ("ExhaustiveOptimizer",),
        "report": ("MAX_REPORTED_ROWS", "assemble_payload"),
    },
)
