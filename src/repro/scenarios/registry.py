"""The scenario registry: named, pre-populated, extensible.

Mirrors the engine registry (:mod:`repro.engine.base`): a flat name → spec
mapping with loud failures on collisions and unknown names.  The catalogue
of built-in scenarios (:mod:`repro.scenarios.catalog`) is registered on the
registry's first use, ahead of anything else, so it keeps its order and
third-party names still collide with it; code can add its own specs with
:func:`register_scenario` and they become reachable from
``python -m repro run`` immediately.
"""

from __future__ import annotations

import difflib
from typing import Iterable

from repro.core.exceptions import ExperimentError
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "register_scenario",
    "get_scenario",
    "available_scenarios",
    "list_scenarios",
    "near_misses",
]

_SCENARIOS: dict[str, ScenarioSpec] = {}
_CATALOG_LOADED = False


def _scenarios() -> dict[str, ScenarioSpec]:
    """The name → spec table, with the built-in catalogue registered first."""
    global _CATALOG_LOADED
    if not _CATALOG_LOADED:
        # Set before the import: the catalogue registers through this module.
        _CATALOG_LOADED = True
        import repro.scenarios.catalog  # noqa: F401
    return _SCENARIOS


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    """Register ``spec`` under its own name; returns the spec for chaining."""
    if not isinstance(spec, ScenarioSpec):
        raise ExperimentError(f"expected a ScenarioSpec, got {type(spec).__name__}")
    scenarios = _scenarios()
    if spec.name in scenarios and not replace:
        raise ExperimentError(
            f"scenario {spec.name!r} is already registered (pass replace=True)"
        )
    scenarios[spec.name] = spec
    return spec


def near_misses(name: str, candidates: Iterable[str], limit: int = 3) -> list[str]:
    """Close matches for a mistyped name, for did-you-mean error messages."""
    return difflib.get_close_matches(name, list(candidates), n=limit, cutoff=0.5)


def _unknown_name_message(name: str) -> str:
    close = near_misses(name, available_scenarios())
    hint = f"; did you mean: {', '.join(close)}?" if close else ""
    return (
        f"unknown scenario {name!r}{hint} "
        "(run `python -m repro list` for the full catalogue)"
    )


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name.

    An unknown name raises with the closest registered names (a
    did-you-mean hint) instead of dumping the whole catalogue — the CLI
    turns this into its non-zero exit path.
    """
    spec = _scenarios().get(name)
    if spec is None:
        raise ExperimentError(_unknown_name_message(name))
    return spec


def available_scenarios() -> tuple[str, ...]:
    """Names of all registered scenarios, sorted."""
    return tuple(sorted(_scenarios()))


def list_scenarios(tag: str | None = None, kind: str | None = None) -> tuple[ScenarioSpec, ...]:
    """All registered specs (sorted by name), optionally filtered by tag/kind."""
    specs = (_scenarios()[name] for name in available_scenarios())
    return tuple(
        spec
        for spec in specs
        if (tag is None or tag in spec.tags) and (kind is None or spec.kind == kind)
    )
