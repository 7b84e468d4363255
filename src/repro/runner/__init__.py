"""Sharded parallel execution and content-addressed caching of scenarios.

See ``docs/SCENARIOS.md`` for the runner's determinism guarantees and the
artifact-store layout.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "runner": (
            "ScenarioRun",
            "ShardTask",
            "comparison_stats_row",
            "execute_task",
            "merge_outcomes",
            "plan_tasks",
            "resolve_spec_engine",
            "run_scenario",
        ),
        "store": ("DEFAULT_STORE_DIR", "STORE_ENV_VAR", "ArtifactStore", "default_store"),
    },
)
