"""Lazy package exports: every public name still resolves.

The package ``__init__`` files name their exports in a map instead of
importing them (:mod:`repro._lazy`); these tests catch a name missing from,
misspelt in, or pointed at the wrong submodule of that map.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.core.exceptions import ExperimentError
from repro.scenarios.spec import (
    ATTACKED_SENSOR_NAMES,
    BUILTIN_STRATEGIES,
    FIGURE_NAMES,
    CaseStudyScenario,
    spec_dict,
    spec_from_dict,
)

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves_and_is_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert export in listed
        # A resolved name is cached in the package, so the next read is a
        # plain attribute lookup.
        assert vars(package)[export] is value


def lazy_map(name: str) -> dict[str, tuple[str, ...]] | None:
    """The submodule-to-names map ``name``'s ``__init__`` hands to
    ``lazy_exports``; ``None`` for a package that exports eagerly."""
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            return ast.literal_eval(node.args[1])
    return None


LAZY_PACKAGES = [name for name in PACKAGES if lazy_map(name) is not None]


def test_every_package_but_obs_exports_lazily():
    assert sorted(set(PACKAGES) - set(LAZY_PACKAGES)) == ["repro.obs"]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_all_is_the_map_in_map_order(name):
    names = [export for exports in lazy_map(name).values() for export in exports]
    extra = ["__version__"] if name == "repro" else []
    assert importlib.import_module(name).__all__ == names + extra


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_every_mapped_name_is_in_its_submodule_all(name):
    for module, exports in lazy_map(name).items():
        submodule = importlib.import_module(f"{name}.{module}")
        assert sorted(set(exports) - set(submodule.__all__)) == [], submodule.__name__


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_every_exported_name(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    core = importlib.import_module("repro.core")
    with pytest.raises(AttributeError, match="module 'repro.core' has no attribute 'fusee'"):
        core.fusee  # noqa: B018
    assert not hasattr(repro, "fusee")


def test_exports_match_the_defining_module():
    from repro.batch.rounds import batch_rounds
    from repro.core.marzullo import fuse
    from repro.engine.batch import BatchEngine

    assert repro.fuse is fuse
    assert repro.BatchEngine is BatchEngine
    assert repro.batch.batch_rounds is batch_rounds


def test_figure_names_are_the_figure_table():
    from repro.scenarios.figures import FIGURES

    assert FIGURE_NAMES == tuple(sorted(FIGURES))


def test_builtin_strategies_are_the_registered_ones():
    from repro.optimize import get_optimizer

    assert [get_optimizer(name).name for name in BUILTIN_STRATEGIES] == list(BUILTIN_STRATEGIES)


def test_attacked_sensor_names_are_the_selector_spellings():
    from repro.vehicle.selection import selector_from_spec

    for name in ATTACKED_SENSOR_NAMES:
        selector_from_spec(name)
        assert CaseStudyScenario(name="ok", attacked_sensor=name).case_study_config()
    with pytest.raises(ExperimentError, match="unknown attacked-sensor"):
        selector_from_spec("everything")


@pytest.mark.parametrize(
    "kind_name, field, value, message",
    [
        ("fig1-marzullo", "figure", "fig99", "unknown figure"),
        ("optimize-table1-row4", "strategy", "aneal", "did you mean 'anneal'"),
        ("optimize-table1-row4", "max_candidates", 3, "max_candidates=3"),
        ("table2-proxy", "attacked_sensor", "everything", "unknown attacked-sensor"),
        ("table2-proxy", "attacked_sensor", 4, "out of range for 4 sensors"),
    ],
)
def test_wire_specs_are_still_validated_when_built(kind_name, field, value, message):
    from repro.scenarios import get_scenario

    payload = spec_dict(get_scenario(kind_name))
    payload[field] = value
    with pytest.raises(ExperimentError, match=message):
        spec_from_dict(payload)
