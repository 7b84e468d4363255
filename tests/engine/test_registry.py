"""Engine registry: resolution rules, the fixed default, attack specs."""

import pytest

from repro.core import ExperimentError
from repro.engine import (
    DEFAULT_ENGINE,
    BatchEngine,
    Engine,
    ExpectationAttack,
    ScalarEngine,
    StretchAttack,
    TruthfulAttack,
    available_engines,
    get_engine,
    register_engine,
    resolve_attack,
)
from repro.engine.base import _REGISTRY
from repro.scheduling import AscendingSchedule, ScheduleComparisonConfig

CONFIG = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1)


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert available_engines() == ("batch", "scalar")

    def test_get_engine_by_name(self):
        assert isinstance(get_engine("scalar"), ScalarEngine)
        assert isinstance(get_engine("batch"), BatchEngine)

    def test_get_engine_passthrough_instance(self):
        engine = BatchEngine()
        assert get_engine(engine) is engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ExperimentError, match="unknown engine"):
            get_engine("warp")

    def test_unknown_engine_lists_available_with_did_you_mean(self):
        # A near-miss typo gets the available list plus a suggestion.
        with pytest.raises(ExperimentError, match="did you mean 'batch'") as excinfo:
            get_engine("bacth")
        assert "available engines: " + ", ".join(available_engines()) in str(excinfo.value)

    @pytest.mark.parametrize("name", ["numba", "fused"])
    def test_removed_engine_name_is_unknown(self, name):
        # The former JIT backend's name and the former alias of the batch
        # engine are ordinary unknown names, listed with the registered ones.
        with pytest.raises(ExperimentError, match=f"unknown engine '{name}'") as excinfo:
            get_engine(name)
        assert "available engines: batch, scalar" in str(excinfo.value)

    def test_default_is_scalar(self):
        assert DEFAULT_ENGINE == "scalar"
        assert isinstance(get_engine(None), ScalarEngine)
        assert isinstance(get_engine(), ScalarEngine)

    def test_reregistration_guard(self):
        with pytest.raises(ExperimentError, match="already registered"):
            register_engine("scalar", ScalarEngine)
        with pytest.raises(ExperimentError, match="non-empty"):
            register_engine("", ScalarEngine)

    def test_third_party_engine_pluggable(self):
        class WarpEngine(BatchEngine):
            name = "warp"

        register_engine("warp", WarpEngine)
        try:
            assert "warp" in available_engines()
            assert isinstance(get_engine("warp"), WarpEngine)
            assert isinstance(get_engine("warp"), Engine)
        finally:
            _REGISTRY.pop("warp", None)


class TestAttackSpecs:
    def test_string_spellings(self):
        assert resolve_attack("truthful") == TruthfulAttack()
        assert resolve_attack("stretch") == StretchAttack(side=1)
        assert resolve_attack("stretch-left") == StretchAttack(side=-1)
        assert resolve_attack("expectation") == ExpectationAttack()
        assert resolve_attack("expectation-conservative") == ExpectationAttack(conservative=True)

    def test_instances_pass_through(self):
        spec = StretchAttack(side=-1)
        assert resolve_attack(spec) is spec
        expectation = ExpectationAttack(grid_positions=5)
        assert resolve_attack(expectation) is expectation

    def test_invalid_spec_rejected(self):
        with pytest.raises(ExperimentError):
            resolve_attack("nuke")
        with pytest.raises(ExperimentError):
            StretchAttack(side=2)
        with pytest.raises(ExperimentError):
            ExpectationAttack(grid_positions=0)


class TestEngineErrors:
    def test_nonpositive_samples_rejected(self):
        for engine in (ScalarEngine(), BatchEngine()):
            with pytest.raises(ExperimentError):
                engine.run_rounds(CONFIG, AscendingSchedule(), samples=0)
