"""Declarative scenario subsystem: experiments as data.

See ``docs/SCENARIOS.md`` for the full subsystem contract (spec schema,
registry, runner guarantees, store layout).  The registry loads the
built-in catalogue (:mod:`repro.scenarios.catalog`) on first use, so

    from repro.scenarios import get_scenario
    from repro.runner import run_scenario

    result = run_scenario(get_scenario("table1-row1"), workers=8)

is all it takes to reproduce a paper artifact.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "registry": (
            "available_scenarios",
            "get_scenario",
            "list_scenarios",
            "near_misses",
            "register_scenario",
        ),
        "spec": (
            "CaseStudyScenario",
            "ComparisonCase",
            "ComparisonScenario",
            "FigureScenario",
            "OptimizationScenario",
            "ScenarioSpec",
            "schedule_from_spec",
            "spec_dict",
            "spec_key",
        ),
    },
)
