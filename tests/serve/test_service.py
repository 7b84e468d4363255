"""FusionService: request parsing, caching layers, payload bit-identity."""

import asyncio
import json

import pytest

from repro.core.exceptions import ExperimentError
from repro.runner import ArtifactStore, run_scenario
from repro.scenarios.spec import ComparisonCase, ComparisonScenario, spec_dict, spec_key
from repro.serve import FusionService

SPEC = ComparisonScenario(
    name="serve-test",
    cases=(ComparisonCase(label="case", lengths=(2.0, 3.0, 4.0), fa=1),),
    samples=120,
    shard_samples=40,
    engine="batch",
)

SCALAR_SPEC = ComparisonScenario(
    name="serve-test-scalar",
    cases=(ComparisonCase(label="case", lengths=(2.0, 3.0, 4.0), fa=1),),
    samples=80,
    shard_samples=40,
    engine="scalar",
)


def canonical(payload):
    return json.dumps(payload, sort_keys=True)


class TestResolveRequest:
    def service(self):
        return FusionService(store=None)

    def test_scenario_by_name(self):
        spec, force = self.service().resolve_request({"scenario": "table1-smoke"})
        assert spec.name == "table1-smoke"
        assert force is False

    def test_inline_spec_round_trips(self):
        spec, force = self.service().resolve_request(
            {"spec": json.loads(canonical(spec_dict(SPEC))), "force": True}
        )
        assert spec == SPEC
        assert force is True

    def test_engine_override_derives_new_spec(self):
        spec, _ = self.service().resolve_request(
            {"spec": spec_dict(SPEC), "engine": "scalar"}
        )
        assert spec.engine == "scalar"
        assert spec_key(spec) != spec_key(SPEC)

    @pytest.mark.parametrize(
        "request_body",
        [
            None,
            [],
            {},
            {"scenario": "a", "spec": {}},
            {"spec": spec_dict(SPEC), "bogus": 1},
            {"scenario": "table1-smoke", "force": "yes"},
            {"scenario": "table1-smoke", "api_version": 99},
            {"scenario": 42},
            {"spec": {**spec_dict(SPEC), "spec_version": 99}},
        ],
    )
    def test_malformed_requests_rejected(self, request_body):
        with pytest.raises(ExperimentError):
            self.service().resolve_request(request_body)

    @pytest.mark.parametrize("engine", [5, ["batch"], "", {"name": "batch"}, 1.5])
    def test_non_name_engine_override_rejected(self, engine):
        with pytest.raises(ExperimentError, match="engine must be"):
            self.service().resolve_request({"scenario": "table1-smoke", "engine": engine})


class TestServing:
    def test_payload_bit_identical_to_runner(self, tmp_path):
        service = FusionService(store=ArtifactStore(root=tmp_path / "store"))
        response = asyncio.run(service.run_spec(SPEC))
        reference = run_scenario(SPEC, workers=1, store=None)
        assert canonical(response["payload"]) == canonical(reference.payload)
        assert response["cached"] is False
        assert response["key"] == reference.key
        assert response["api_version"] == 1

    def test_second_request_is_store_hit_with_identical_payload(self, tmp_path):
        service = FusionService(store=ArtifactStore(root=tmp_path / "store"))
        first = asyncio.run(service.run_spec(SPEC))
        second = asyncio.run(service.run_spec(SPEC))
        assert second["cached"] is True
        assert canonical(second["payload"]) == canonical(first["payload"])
        assert service.cache_hits == 1

    def test_force_recomputes(self, tmp_path):
        service = FusionService(store=ArtifactStore(root=tmp_path / "store"))
        asyncio.run(service.run_spec(SPEC))
        response = asyncio.run(service.run_spec(SPEC, force=True))
        assert response["cached"] is False

    def test_concurrent_identical_specs_share_one_execution(self):
        service = FusionService(store=None)

        async def burst():
            return await asyncio.gather(*(service.run_spec(SPEC) for _ in range(5)))

        responses = asyncio.run(burst())
        payloads = {canonical(response["payload"]) for response in responses}
        assert len(payloads) == 1
        assert sum(1 for response in responses if response["deduplicated"]) == 4
        assert service.deduplicated == 4

    def test_cross_request_plan_coalescing(self):
        # Same physics, different seeds: distinct spec keys (no dedup), but
        # every shard shares the plan key, so the collator packs them.
        service = FusionService(store=None, max_batch=32)
        seeds = [2014, 2015, 2016]
        specs = [
            ComparisonScenario(
                name=f"serve-test-{seed}",
                cases=SPEC.cases,
                samples=SPEC.samples,
                shard_samples=SPEC.shard_samples,
                engine="batch",
                seed=seed,
            )
            for seed in seeds
        ]

        async def burst():
            return await asyncio.gather(*(service.run_spec(spec) for spec in specs))

        responses = asyncio.run(burst())
        assert {response["key"] for response in responses} == {
            spec_key(spec) for spec in specs
        }
        stats = service.collator.stats()
        # 3 requests x 3 shards x 2 schedules = 18 submissions, far fewer passes.
        assert stats["requests"] == 18
        assert stats["batches"] < stats["requests"]
        # ... and coalescing must not perturb payloads: each equals its solo run.
        for spec, response in zip(specs, responses):
            reference = run_scenario(spec, workers=1, store=None)
            assert canonical(response["payload"]) == canonical(reference.payload)

    def test_scalar_engine_serves_identically(self, tmp_path):
        service = FusionService(store=None)
        response = asyncio.run(service.run_spec(SCALAR_SPEC))
        reference = run_scenario(SCALAR_SPEC, workers=1, store=None)
        assert canonical(response["payload"]) == canonical(reference.payload)

    def test_non_comparison_kinds_served_via_thread(self):
        from repro.scenarios import get_scenario

        spec = get_scenario("fig1-marzullo")
        service = FusionService(store=None)
        response = asyncio.run(service.run_spec(spec))
        reference = run_scenario(spec, workers=1, store=None)
        assert canonical(response["payload"]) == canonical(reference.payload)

    def test_metrics_shape(self):
        service = FusionService(store=None)
        metrics = service.metrics()
        assert metrics["served"] == 0
        assert set(metrics["collator"]) >= {"requests", "batches", "coalesced"}

    def test_scenarios_catalogue(self):
        catalogue = FusionService(store=None).scenarios()
        names = {entry["name"] for entry in catalogue["scenarios"]}
        assert "table1-smoke" in names
