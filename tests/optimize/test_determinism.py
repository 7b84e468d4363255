"""Seeded determinism pins for the optimization subsystem.

The contract: an :class:`OptimizationScenario` payload — including the
best-schedule artifact — is a *pure function of the spec*.  These pins
hold it fixed across worker counts, engine backends (for every registered
bit-identical backend) and strategies on spaces small enough for all three
to visit the optimum.
"""

import dataclasses
import json

import pytest

from repro.engine import available_engines
from repro.runner import run_scenario
from repro.scenarios.spec import ComparisonCase, OptimizationScenario

CASE = ComparisonCase(label="pin", lengths=(2.0, 3.0, 4.0, 5.0), fa=1)


def make_spec(**overrides) -> OptimizationScenario:
    values = {
        "name": "optimize-pin",
        "case": CASE,
        "samples": 300,
        "shard_samples": 100,
        "shard_candidates": 5,
        "anneal_steps": 20,
        "bandit_population": 6,
        "bandit_rounds": 3,
    }
    values.update(overrides)
    return OptimizationScenario(**values)


def payload_bytes(spec: OptimizationScenario, workers: int = 1) -> str:
    return json.dumps(run_scenario(spec, workers=workers, store=None).payload, sort_keys=True)


#: Engines checked against the default (scalar) engine's payload.
PACKED_ENGINES = [name for name in available_engines() if name != "scalar"]


class TestWorkerInvariance:
    @pytest.mark.parametrize("strategy", ["exhaustive", "anneal", "bandit"])
    def test_workers_1_vs_4_bit_identical(self, strategy):
        spec = make_spec(strategy=strategy)
        assert payload_bytes(spec, workers=1) == payload_bytes(spec, workers=4)


class TestEngineInvariance:
    @pytest.mark.parametrize("engine", PACKED_ENGINES)
    @pytest.mark.parametrize("strategy", ["exhaustive", "anneal"])
    def test_every_packed_engine_agrees_with_batch(self, engine, strategy):
        reference = json.loads(payload_bytes(make_spec(strategy=strategy)))
        other = json.loads(payload_bytes(make_spec(strategy=strategy, engine=engine)))
        reference.pop("engine")
        other.pop("engine")
        assert other == reference


class TestStrategyAgreement:
    def test_exhaustive_and_anneal_find_the_same_best(self):
        # On a 4!-schedule space both strategies must reach the optimum and
        # report the *identical* best row (shared measurement streams).
        exhaustive = run_scenario(make_spec(strategy="exhaustive"), store=None).payload
        anneal = run_scenario(make_spec(strategy="anneal", anneal_steps=60), store=None).payload
        assert anneal["best"] == exhaustive["best"]

    def test_rerun_is_bit_identical(self):
        spec = make_spec(strategy="bandit")
        assert payload_bytes(spec) == payload_bytes(spec)

    def test_seed_changes_the_measurement(self):
        base = json.loads(payload_bytes(make_spec()))
        reseeded = json.loads(payload_bytes(make_spec(seed=7)))
        assert base["best"]["expected_width"] != reseeded["best"]["expected_width"]


class TestStrategyIdentity:
    def test_strategy_is_part_of_the_content_hash(self):
        from repro.scenarios.spec import spec_key

        spec = make_spec()
        assert spec_key(spec) != spec_key(dataclasses.replace(spec, strategy="anneal"))
