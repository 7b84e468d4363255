"""The repro.api facade: the four public verbs and the store convention."""

import asyncio
import json

import numpy as np
import pytest

from repro import api
from repro.core.exceptions import ExperimentError
from repro.engine import get_engine
from repro.runner import ArtifactStore, default_store
from repro.runner.store import STORE_ENV_VAR
from repro.scenarios.spec import ComparisonCase, ComparisonScenario
from repro.scheduling import AscendingSchedule, DescendingSchedule, ScheduleComparisonConfig

SPEC = ComparisonScenario(
    name="api-test",
    cases=(ComparisonCase(label="case", lengths=(2.0, 3.0, 4.0), fa=1),),
    samples=80,
    shard_samples=40,
    engine="batch",
)


class TestResolveStore:
    def test_none_disables_caching(self):
        assert api.resolve_store(None) is None

    def test_store_instance_passes_through(self, tmp_path):
        store = ArtifactStore(root=tmp_path)
        assert api.resolve_store(store) is store

    def test_path_selects_directory(self, tmp_path):
        assert api.resolve_store(tmp_path / "mine").root == tmp_path / "mine"

    def test_default_resolves_through_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env"))
        assert api.resolve_store("default").root == default_store().root


class TestRun:
    def test_run_spec_with_store_convention(self, tmp_path):
        first = api.run(SPEC, store=tmp_path / "store")
        assert first.cached is False
        second = api.run(SPEC, store=tmp_path / "store")
        assert second.cached is True
        assert second.payload == first.payload

    def test_run_by_registry_name(self, tmp_path):
        run = api.run("table1-smoke", store=tmp_path / "store")
        assert run.spec.name == "table1-smoke"
        assert run.payload["kind"] == "comparison"

    def test_run_without_store(self):
        assert api.run(SPEC, store=None).store_path is None


class TestCompare:
    def test_matches_direct_engine_call(self):
        config = ScheduleComparisonConfig(lengths=(2.0, 3.0, 4.0), fa=1)
        reference = get_engine("batch").compare(
            config,
            (AscendingSchedule(), DescendingSchedule()),
            samples=500,
            rng=np.random.default_rng(7),
        )
        facade = api.compare(
            (2.0, 3.0, 4.0),
            1,
            samples=500,
            engine="batch",
            rng=np.random.default_rng(7),
        )
        assert facade.rows == reference.rows

    def test_seed_int_is_reproducible(self):
        first = api.compare((2.0, 3.0, 4.0), 1, samples=300, engine="batch", rng=42)
        second = api.compare((2.0, 3.0, 4.0), 1, samples=300, engine="batch", rng=42)
        assert first.rows == second.rows

    def test_schedule_strings_equal_schedule_objects(self):
        by_string = api.compare(
            (2.0, 3.0, 4.0), 1, schedules=("ascending",), samples=300,
            engine="batch", rng=0,
        )
        by_object = api.compare(
            (2.0, 3.0, 4.0), 1, schedules=(AscendingSchedule(),), samples=300,
            engine="batch", rng=0,
        )
        assert by_string.rows == by_object.rows

    def test_rejects_empty_schedules(self):
        with pytest.raises(ExperimentError, match="at least one schedule"):
            api.compare((2.0, 3.0, 4.0), 1, schedules=())


class TestServing:
    def test_create_server_round_trip(self, tmp_path):
        async def scenario():
            service = api.create_service(store=tmp_path / "store")
            try:
                async with api.create_server(port=0, service=service) as server:
                    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                    writer.write(
                        b"GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    return raw
            finally:
                service.close()

        raw = asyncio.run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert json.loads(body)["status"] == "ok"

    def test_create_service_applies_store_convention(self, tmp_path):
        service = api.create_service(store=None)
        try:
            assert service.store is None
        finally:
            service.close()
        service = api.create_service(store=tmp_path / "store")
        try:
            assert service.store.root == tmp_path / "store"
        finally:
            service.close()
