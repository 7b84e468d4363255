"""Engine registry: resolution rules, env default, call-site routing."""

import numpy as np
import pytest

from repro.batch.kernels import kernels_available
from repro.core import ExperimentError
from repro.core.exceptions import EngineUnavailableError
from repro.engine import (
    BatchEngine,
    Engine,
    ExpectationAttack,
    ScalarEngine,
    StretchAttack,
    TruthfulAttack,
    available_engines,
    default_engine_name,
    get_engine,
    register_engine,
    resolve_attack,
)
from repro.engine.base import ENGINE_ENV_VAR, _REGISTRY
from repro.scheduling import AscendingSchedule, ScheduleComparisonConfig, compare_schedules

CONFIG = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1)


class TestRegistry:
    def test_builtin_engines_registered(self):
        # The optional "numba" engine registers only when numba is importable
        # (or REPRO_NUMBA_PUREPY forces the pure-Python kernels); the three
        # stdlib+numpy backends are always there.
        names = available_engines()
        assert {"batch", "fused", "scalar"} <= set(names)
        assert set(names) <= {"batch", "fused", "numba", "scalar"}
        assert ("numba" in names) == kernels_available()

    def test_list_engines_alias(self):
        from repro.engine import list_engines

        assert list_engines() == available_engines()

    def test_get_engine_by_name(self):
        assert isinstance(get_engine("scalar"), ScalarEngine)
        assert isinstance(get_engine("batch"), BatchEngine)
        # "fused" stays registered so scenarios and store keys naming it resolve.
        assert type(get_engine("fused")) is BatchEngine

    def test_numba_engine_resolves_when_available(self):
        if not kernels_available():
            pytest.skip("numba kernels unavailable (no numba, no REPRO_NUMBA_PUREPY)")
        from repro.engine.numba_engine import NumbaEngine

        assert isinstance(get_engine("numba"), NumbaEngine)

    def test_get_engine_passthrough_instance(self):
        engine = BatchEngine()
        assert get_engine(engine) is engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ExperimentError, match="unknown engine"):
            get_engine("warp")

    def test_unknown_engine_lists_available_with_did_you_mean(self):
        # A near-miss typo gets the available list plus a suggestion.
        with pytest.raises(ExperimentError, match="did you mean 'fused'") as excinfo:
            get_engine("fussed")
        assert "available engines: " + ", ".join(available_engines()) in str(excinfo.value)

    def test_unavailable_optional_engine_gets_install_hint(self, monkeypatch):
        # With numba uninstalled, --engine numba must diagnose the missing
        # optional dependency (EngineUnavailableError), never an ImportError
        # traceback and never a did-you-mean typo hint.
        monkeypatch.delitem(_REGISTRY, "numba", raising=False)
        with pytest.raises(EngineUnavailableError, match="pip install numba"):
            get_engine("numba")
        monkeypatch.setenv(ENGINE_ENV_VAR, "numba")
        with pytest.raises(EngineUnavailableError, match=ENGINE_ENV_VAR):
            default_engine_name()

    def test_default_is_scalar(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        assert default_engine_name() == "scalar"
        assert isinstance(get_engine(None), ScalarEngine)

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "batch")
        assert default_engine_name() == "batch"
        assert isinstance(get_engine(), BatchEngine)

    def test_env_with_unknown_engine_rejected(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "warp")
        with pytest.raises(ExperimentError, match=ENGINE_ENV_VAR):
            default_engine_name()

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


class TestCompareSchedulesRouting:
    def test_engine_scalar_route(self):
        comparison = compare_schedules(
            CONFIG, [AscendingSchedule()], engine="scalar", samples=200
        )
        row = comparison.row("ascending")
        assert row.combinations == 200
        assert row.expected_width > 0

    def test_engine_and_method_conflict_rejected(self):
        with pytest.raises(ExperimentError, match="not both"):
            compare_schedules(
                CONFIG, [AscendingSchedule()], method="monte_carlo", engine="batch"
            )

    def test_policy_factory_rejected_with_engine(self):
        with pytest.raises(ExperimentError, match="policy_factory"):
            compare_schedules(
                CONFIG, [AscendingSchedule()], policy_factory=object, engine="batch"
            )

    def test_attack_spec_rejected_with_scalar_method(self):
        with pytest.raises(ExperimentError, match="policy_factory"):
            compare_schedules(
                CONFIG, [AscendingSchedule()], method="exhaustive", attack="expectation"
            )

    def test_env_routes_bare_compare_schedules(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "batch")
        comparison = compare_schedules(CONFIG, [AscendingSchedule()], samples=500)
        # The batch engine ran a Monte-Carlo sweep (combinations == samples),
        # not the exhaustive enumeration (combinations == positions**n).
        assert comparison.row("ascending").combinations == 500

    def test_explicit_method_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "batch")
        comparison = compare_schedules(CONFIG, [AscendingSchedule()], method="exhaustive")
        assert comparison.row("ascending").combinations == 27

    def test_env_scalar_is_a_noop_for_bare_compare_schedules(self, monkeypatch):
        # REPRO_ENGINE=scalar names the default backend, so a bare call must
        # keep the paper's exhaustive estimator (and keep honouring
        # policy_factory) exactly as if the variable were unset.
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        unset = compare_schedules(CONFIG, [AscendingSchedule()])
        monkeypatch.setenv(ENGINE_ENV_VAR, "scalar")
        with_env = compare_schedules(CONFIG, [AscendingSchedule()])
        assert with_env.rows == unset.rows
        assert with_env.row("ascending").combinations == 27


class TestEngineErrors:
    def test_scalar_rejects_batch_options(self):
        with pytest.raises(ExperimentError, match="batch engine"):
            ScalarEngine().run_case_study(n_replicas=8)

    def test_batch_rejects_policy_factory(self):
        with pytest.raises(ExperimentError, match="attacker_factory"):
            BatchEngine().run_case_study(policy_factory=object)

    def test_batch_rejects_unknown_options(self):
        with pytest.raises(ExperimentError, match="does not understand"):
            BatchEngine().run_case_study(warp_factor=9)

    def test_nonpositive_samples_rejected(self):
        for engine in (ScalarEngine(), BatchEngine()):
            with pytest.raises(ExperimentError):
                engine.run_rounds(CONFIG, AscendingSchedule(), samples=0)
