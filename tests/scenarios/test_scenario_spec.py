"""Scenario specs: validation, serialisation, content hashing."""

import dataclasses
import json
import time

import pytest

from repro.core import ExperimentError
from repro.scenarios import (
    CaseStudyScenario,
    ComparisonCase,
    ComparisonScenario,
    FigureScenario,
    OptimizationScenario,
    schedule_from_spec,
    spec_dict,
    spec_key,
)
from repro.scenarios.spec import MAX_PLAN_SHARDS, MAX_SHARD_SAMPLES, spec_from_dict
from repro.scheduling import (
    AscendingSchedule,
    FixedSchedule,
    RandomSchedule,
    TrustAwareSchedule,
)


def small_scenario(**overrides) -> ComparisonScenario:
    defaults = dict(
        name="test-scenario",
        cases=(ComparisonCase(label="case", lengths=(5.0, 11.0, 17.0), fa=1),),
        samples=100,
        shard_samples=40,
    )
    defaults.update(overrides)
    return ComparisonScenario(**defaults)


class TestScheduleFromSpec:
    def test_named_schedules(self):
        assert isinstance(schedule_from_spec("ascending"), AscendingSchedule)
        assert isinstance(schedule_from_spec("random"), RandomSchedule)

    def test_fixed_permutation(self):
        schedule = schedule_from_spec("fixed:2,0,1")
        assert isinstance(schedule, FixedSchedule)
        assert schedule.permutation == (2, 0, 1)

    def test_trust_aware_scores(self):
        schedule = schedule_from_spec("trust-aware:0.1,0.1,1.0,0.8")
        assert isinstance(schedule, TrustAwareSchedule)
        assert schedule.spoofability == (0.1, 0.1, 1.0, 0.8)

    @pytest.mark.parametrize("text", ["fixed", "trust-aware", "warp"])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(Exception):
            schedule_from_spec(text)


class TestValidation:
    def test_comparison_needs_cases(self):
        with pytest.raises(ExperimentError, match="at least one case"):
            ComparisonScenario(name="empty")

    def test_duplicate_case_labels_rejected(self):
        case = ComparisonCase(label="dup", lengths=(5.0, 11.0, 17.0), fa=1)
        with pytest.raises(ExperimentError, match="duplicate"):
            small_scenario(cases=(case, case))

    def test_case_validates_eagerly(self):
        with pytest.raises(ExperimentError):
            ComparisonCase(label="bad", lengths=(5.0, 11.0, 17.0), fa=1, attack="warp")
        with pytest.raises(ExperimentError):
            ComparisonCase(label="bad", lengths=(5.0, 11.0, 17.0), fa=9)
        with pytest.raises(ExperimentError):
            ComparisonCase(label="bad", lengths=(5.0, 11.0, 17.0), fa=1, schedules=())

    def test_case_study_attacker_engine_pairing(self):
        with pytest.raises(ExperimentError, match="scalar oracle"):
            CaseStudyScenario(name="bad", attacker="expectation-grid", engine="batch")
        with pytest.raises(ExperimentError, match="batch attacker"):
            CaseStudyScenario(name="bad", attacker="proxy", engine="scalar")
        # Each attacker is welded to exactly one engine; an arbitrary engine
        # override must fail rather than store a mislabeled artifact.
        with pytest.raises(ExperimentError, match="engine='batch' only"):
            CaseStudyScenario(name="bad", attacker="proxy", engine="numba")
        with pytest.raises(ExperimentError, match="unknown case-study attacker"):
            CaseStudyScenario(name="bad", attacker="psychic")

    def test_case_study_duplicate_schedules_rejected(self):
        with pytest.raises(ExperimentError, match="duplicate schedule"):
            CaseStudyScenario(name="bad", schedules=("ascending", "ascending"))

    def test_figure_must_be_registered(self):
        with pytest.raises(ExperimentError, match="unknown figure"):
            FigureScenario(name="bad", figure="fig99")

    def test_huge_shard_plans_rejected_promptly(self):
        payload = spec_dict(small_scenario())
        payload.update(samples=10**12, shard_samples=1)
        started = time.perf_counter()
        with pytest.raises(ExperimentError, match="shards"):
            spec_from_dict(payload)
        assert time.perf_counter() - started < 1.0
        with pytest.raises(ExperimentError, match="shards"):
            CaseStudyScenario(name="bad", n_replicas=10**12, shard_replicas=1)
        with pytest.raises(ExperimentError, match="shards"):
            OptimizationScenario(
                name="bad",
                case=ComparisonCase(label="case", lengths=(5.0, 11.0, 17.0), fa=1),
                samples=10**12,
                shard_samples=1,
            )

    def test_huge_single_shards_rejected_promptly(self):
        payload = spec_dict(small_scenario())
        payload.update(samples=10**12, shard_samples=10**12)
        started = time.perf_counter()
        with pytest.raises(ExperimentError, match="per shard"):
            spec_from_dict(payload)
        assert time.perf_counter() - started < 1.0
        with pytest.raises(ExperimentError, match="per shard"):
            OptimizationScenario(
                name="bad",
                case=ComparisonCase(label="case", lengths=(5.0, 11.0, 17.0), fa=1),
                samples=10**12,
                shard_samples=10**12,
            )

    def test_shard_size_bound_is_inclusive(self):
        small_scenario(samples=MAX_SHARD_SAMPLES, shard_samples=MAX_SHARD_SAMPLES)
        with pytest.raises(ExperimentError, match="per shard"):
            small_scenario(samples=1, shard_samples=MAX_SHARD_SAMPLES + 1)

    def test_shard_plan_bound_counts_every_case(self):
        # The bound is inclusive, and a comparison plans one shard list per case.
        small_scenario(samples=MAX_PLAN_SHARDS, shard_samples=1)
        case = ComparisonCase(label="other", lengths=(5.0, 11.0, 17.0), fa=1)
        with pytest.raises(ExperimentError, match="shards"):
            small_scenario(
                cases=small_scenario().cases + (case,),
                samples=MAX_PLAN_SHARDS,
                shard_samples=1,
            )


class TestContentHash:
    def test_key_is_stable(self):
        assert spec_key(small_scenario()) == spec_key(small_scenario())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"samples": 200},
            {"shard_samples": 20},
            {"seed": 1},
            {"engine": "batch"},
            {"name": "other"},
        ],
    )
    def test_any_field_change_changes_key(self, overrides):
        assert spec_key(small_scenario()) != spec_key(small_scenario(**overrides))

    def test_case_change_changes_key(self):
        base = small_scenario()
        changed = dataclasses.replace(
            base, cases=(ComparisonCase(label="case", lengths=(5.0, 11.0, 17.0), fa=1, attack="truthful"),)
        )
        assert spec_key(base) != spec_key(changed)

    def test_spec_dict_is_json_serialisable(self):
        for spec in (
            small_scenario(),
            CaseStudyScenario(name="cs"),
            FigureScenario(name="fig", figure="fig1-marzullo"),
        ):
            payload = spec_dict(spec)
            assert payload["kind"] == spec.kind
            assert payload["schema"] >= 1
            json.dumps(payload)
