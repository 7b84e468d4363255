"""Runner guarantees: shard invariance, plan determinism, caching."""

import dataclasses
import json

import numpy as np
import pytest

from repro import obs
from repro.core import ExperimentError
from repro.engine import get_engine
from repro.runner import ArtifactStore, plan_tasks, run_scenario
from repro.runner import runner as runner_module
from repro.scenarios import (
    CaseStudyScenario,
    ComparisonCase,
    ComparisonScenario,
    FigureScenario,
    get_scenario,
    schedule_from_spec,
    spec_key,
)
from repro.utils.seeding import derive_rng
from repro.vehicle import run_case_study_for_schedule


def table1_scenario(**overrides) -> ComparisonScenario:
    defaults = dict(
        name="runner-test-table1",
        engine="batch",
        samples=4_000,
        shard_samples=1_000,
        cases=(ComparisonCase(label="n3-fa1", lengths=(5.0, 11.0, 17.0), fa=1),),
    )
    defaults.update(overrides)
    return ComparisonScenario(**defaults)


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


class TestShardInvariance:
    def test_workers_1_vs_4_bit_equal_on_table1(self):
        spec = table1_scenario()
        serial = run_scenario(spec, workers=1)
        parallel = run_scenario(spec, workers=4)
        assert not serial.cached and not parallel.cached
        assert canonical(serial.payload) == canonical(parallel.payload)

    def test_workers_1_vs_4_bit_equal_on_registered_smoke(self):
        # The acceptance-criterion scenario, exactly as the CLI runs it.
        serial = run_scenario("table1-smoke", workers=1)
        parallel = run_scenario("table1-smoke", workers=4)
        assert canonical(serial.payload) == canonical(parallel.payload)

    def test_workers_invariance_with_faults_and_scalar_engine(self):
        spec = table1_scenario(
            name="runner-test-faulted",
            engine="scalar",
            samples=120,
            shard_samples=40,
            cases=(
                ComparisonCase(
                    label="faulted",
                    lengths=(1.0, 1.0, 1.0, 1.0, 1.0),
                    fa=1,
                    f=2,
                    fault_probability=0.3,
                ),
            ),
        )
        serial = run_scenario(spec, workers=1)
        parallel = run_scenario(spec, workers=3)
        assert canonical(serial.payload) == canonical(parallel.payload)
        (case,) = serial.payload["cases"]
        assert case["rows"][0]["valid_fraction"] < 1.0

    def test_case_study_workers_invariance(self):
        spec = CaseStudyScenario(
            name="runner-test-case-study",
            n_steps=30,
            n_replicas=4,
            shard_replicas=1,
        )
        serial = run_scenario(spec, workers=1)
        parallel = run_scenario(spec, workers=4)
        assert canonical(serial.payload) == canonical(parallel.payload)
        assert serial.shards == 4

    def test_case_study_same_named_schedules_stay_separate(self):
        # Two distinct fixed permutations both render as "fixed"; the merge
        # keys rows by position, so they must not pool into one total.
        spec = CaseStudyScenario(
            name="runner-test-fixed-pair",
            n_steps=10,
            n_vehicles=2,
            n_replicas=2,
            shard_replicas=1,
            schedules=("fixed:0,1,2,3", "fixed:3,2,1,0"),
        )
        payload = run_scenario(spec, workers=2).payload
        assert [row["schedule_spec"] for row in payload["rows"]] == [
            "fixed:0,1,2,3",
            "fixed:3,2,1,0",
        ]
        for row in payload["rows"]:
            assert row["schedule"] == "fixed"
            assert row["rounds"] == 2 * 2 * 10
        # fixed:0,1,2,3 is the ascending LandShark order (encoders first) and
        # fixed:3,2,1,0 the descending one — their violation totals differ.
        totals = [row["upper_violations"] + row["lower_violations"] for row in payload["rows"]]
        assert totals[0] != totals[1]

    def test_default_engine_is_pinned_into_spec_and_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = table1_scenario(name="runner-test-default-engine", engine=None, samples=60, shard_samples=30)
        run = run_scenario(spec, store=store)
        assert run.spec.engine == "scalar"  # the resolved default, not None
        # The stored artifact is addressed (and self-described) by the
        # resolved backend, so engine=None and engine="scalar" share it.
        assert run.key != spec_key(spec)
        assert run.key == spec_key(dataclasses.replace(spec, engine="scalar"))
        rerun = run_scenario(spec, store=store)
        assert rerun.cached


class TestPlanning:
    def test_plan_is_a_pure_function_of_the_spec(self):
        spec = table1_scenario()
        assert plan_tasks(spec) == plan_tasks(spec)
        assert len(plan_tasks(spec)) == 4

    def test_uneven_sample_split_covers_budget(self):
        spec = table1_scenario(samples=1_001, shard_samples=400)
        tasks = plan_tasks(spec)
        assert [task.params[2] for task in tasks] == [400, 400, 201]

    def test_single_shard_matches_engine_compare(self):
        # One shard consumes the stream exactly like Engine.compare, so the
        # runner reproduces a direct engine call bit-for-bit.
        spec = table1_scenario(samples=500, shard_samples=500)
        run = run_scenario(spec, workers=1)
        comparison = get_engine("batch").compare(
            spec.cases[0].comparison_config(),
            spec.cases[0].schedule_objects(),
            samples=500,
            rng=derive_rng(spec.seed, 0, 0),
        )
        for row, payload_row in zip(comparison.rows, run.payload["cases"][0]["rows"]):
            assert payload_row["expected_width"] == pytest.approx(row.expected_width, abs=0)
            assert payload_row["detected_fraction"] == pytest.approx(row.detected_fraction, abs=0)

    def test_workers_must_be_positive(self):
        with pytest.raises(ExperimentError):
            run_scenario(table1_scenario(), workers=0)


class TestFigureScenarios:
    def test_figure_payload_is_deterministic(self):
        spec = FigureScenario(name="runner-test-figure", figure="fig4-worst-case")
        a = run_scenario(spec)
        b = run_scenario(spec)
        assert canonical(a.payload) == canonical(b.payload)
        assert a.payload["worst_case_by_attacked_set"]["0"] >= a.payload["no_attack_width"]

    def test_registered_figures_run_and_hold_their_claims(self):
        fig2 = run_scenario("fig2-no-optimal-policy").payload
        assert fig2["no_commitment_is_universally_optimal"]
        fig3 = run_scenario("fig3-theorem1").payload
        assert fig3["case1_optimal"] and fig3["case2_optimal"]
        fig5 = run_scenario("fig5-schedule-examples").payload
        assert fig5["ascending_better_in_5a"]
        assert fig5["descending_no_worse_in_5b"]

    def test_fig1_width_strictly_grows_with_f(self):
        fusions = run_scenario("fig1-marzullo").payload["fusions"]
        widths = [fusions[str(f)]["width"] for f in (0, 1, 2)]
        assert widths[0] < widths[1] < widths[2]

    def test_fig2_each_realisation_has_a_zero_regret_commitment(self):
        # With full knowledge of s2 the attacker can always commit optimally,
        # which is why Descending (full knowledge) helps the attacker.
        regrets = run_scenario("fig2-no-optimal-policy").payload["regrets"]
        for realisation in ("s2 left", "s2 right"):
            assert min(per[realisation] for per in regrets.values()) < 1e-9

    def test_fig4_theorems_3_and_4(self):
        payload = run_scenario("fig4-worst-case").payload
        assert payload["widths"] == [2.0, 4.0, 8.0]
        baseline = payload["no_attack_width"]
        by_set = payload["worst_case_by_attacked_set"]
        # Theorem 3: attacking the largest interval matches the no-attack worst case.
        assert by_set["2"] == pytest.approx(baseline, abs=1e-9)
        # Theorem 4: attacking the smallest is the global worst case, strictly
        # above no attack for this configuration.
        assert by_set["0"] == pytest.approx(max(by_set.values()), abs=1e-9)
        assert by_set["0"] > baseline + 1e-9

    def test_baseline_fusion_ablation_bounds_the_estimate_error(self):
        errors = run_scenario("ablation-baseline-fusion").payload["mean_abs_error_by_bias"]
        small, large = errors["0.5"], errors["10"]
        # Fusion width <= some correct width (2 mph) bounds the midpoint error by 1 mph...
        assert large["marzullo midpoint"] <= 1.0 + 1e-9
        assert large["brooks-iyengar"] <= 1.0 + 1e-9
        # ...while the naive mean degrades with the bias.
        assert small["mean"] < large["mean"]
        assert large["mean"] > 2.0 * large["marzullo midpoint"]


class TestCaching:
    def test_second_run_is_served_from_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = table1_scenario(samples=400, shard_samples=200)
        first = run_scenario(spec, workers=2, store=store)
        second = run_scenario(spec, workers=1, store=store)
        assert not first.cached and second.cached
        assert canonical(first.payload) == canonical(second.payload)
        assert second.store_path == first.store_path

    def test_force_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = FigureScenario(name="runner-test-force", figure="fig1-marzullo")
        run_scenario(spec, store=store)
        forced = run_scenario(spec, store=store, force=True)
        assert not forced.cached

    def test_spec_change_invalidates(self, tmp_path):
        store = ArtifactStore(tmp_path)
        spec = table1_scenario(samples=400, shard_samples=200)
        run_scenario(spec, store=store)
        rerun = run_scenario(dataclasses.replace(spec, seed=1), store=store)
        assert not rerun.cached


class TestPayloadShape:
    def test_comparison_payload_schema(self):
        run = run_scenario(table1_scenario(samples=600, shard_samples=300))
        (case,) = run.payload["cases"]
        assert {"label", "lengths", "fa", "f", "attack", "fault_probability", "rows"} <= set(case)
        for row in case["rows"]:
            assert row["samples"] == 600
            assert np.isfinite(row["expected_width"])
            assert len(row["flagged_fraction_per_sensor"]) == 3
        ascending, descending = case["rows"]
        assert ascending["expected_width"] < descending["expected_width"]

    def test_scalar_case_study_matches_direct_driver(self):
        # One shard per schedule, each on derive_rng(seed, schedule_index):
        # the sharded payload equals plain per-schedule driver calls.
        spec = get_scenario("table2-scalar")
        run = run_scenario(spec, workers=3)
        for index, row in enumerate(run.payload["rows"]):
            stats = run_case_study_for_schedule(
                spec.case_study_config(),
                schedule_from_spec(spec.schedules[index]),
                rng=derive_rng(spec.seed, index),
            )
            assert row["upper_violations"] == stats.upper_violations
            assert row["lower_violations"] == stats.lower_violations


class TestTelemetry:
    def test_exact_case_study_counts_memo_lookups(self, monkeypatch):
        # The case-study path reports the exact attacker's memo tallies like
        # the engines' rounds_results: hits + misses of every policy built.
        built = []
        factory_of = runner_module._case_study_attacker_factory

        def recording(spec):
            build = factory_of(spec)

            def factory():
                built.append(build())
                return built[-1]

            return factory

        monkeypatch.setattr(runner_module, "_case_study_attacker_factory", recording)
        spec = CaseStudyScenario(
            name="runner-test-exact-memo", attacker="exact", n_steps=4, n_vehicles=2, n_replicas=2, shard_replicas=1
        )
        with obs.collect() as session:
            run_scenario(spec, workers=1)
        counted = {
            row["labels"]["outcome"]: row["value"]
            for row in session.snapshot()["metrics"]["counters"]
            if row["name"] == "repro_expectation_memo_total"
        }
        stats = [attacker.policy.stats() for attacker in built]
        assert len(built) == 2 * len(spec.schedules)  # one attacker per shard and schedule
        tallies = {"hit": sum(row["hits"] for row in stats), "miss": sum(row["misses"] for row in stats)}
        assert tallies["miss"] > 0
        assert counted == {outcome: total for outcome, total in tallies.items() if total}  # zero tallies skipped
