"""The content-addressed artifact store."""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro.runner import ArtifactStore, default_store
from repro.runner.store import STORE_ENV_VAR
from repro.scenarios import ComparisonCase, ComparisonScenario, spec_key


def spec(**overrides) -> ComparisonScenario:
    defaults = dict(
        name="store-test",
        cases=(ComparisonCase(label="case", lengths=(1.0, 2.0, 3.0), fa=1),),
        samples=10,
        shard_samples=10,
    )
    defaults.update(overrides)
    return ComparisonScenario(**defaults)


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        store = ArtifactStore(tmp_path)
        payload = {"kind": "comparison", "cases": []}
        path = store.save(spec(), payload, meta={"shards": 1})
        assert path == store.path_for(spec())
        assert path.name == f"{spec_key(spec())}.json"
        document = store.load(spec())
        assert document["payload"] == payload
        assert document["meta"]["shards"] == 1
        assert document["spec"]["name"] == "store-test"

    def test_miss_returns_none(self, tmp_path):
        assert ArtifactStore(tmp_path).load(spec()) is None

    def test_document_is_valid_json_on_disk(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.save(spec(), {"kind": "comparison"})
        document = json.loads(path.read_text())
        assert document["key"] == spec_key(spec())

    def test_no_scratch_files_left_behind(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(spec(), {"kind": "comparison"})
        assert list(tmp_path.glob("*.tmp")) == []


class TestInvalidation:
    def test_spec_change_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(spec(), {"kind": "comparison"})
        assert store.load(spec(samples=20)) is None
        assert store.load(dataclasses.replace(spec(), seed=1)) is None


def corruptions():
    """Ways an artifact on disk can rot; each must read back as a miss."""
    return {
        "not-json": lambda text: "not json {",
        "truncated": lambda text: text[: len(text) // 2],
        "empty": lambda text: "",
        "json-but-not-a-document": lambda text: json.dumps(["wrong", "shape"]),
        "missing-payload": lambda text: json.dumps(
            {key: value for key, value in json.loads(text).items() if key != "payload"}
        ),
        "mismatched-spec": lambda text: json.dumps(
            {**json.loads(text), "spec": {**json.loads(text)["spec"], "samples": 999}}
        ),
    }


class TestCorruptionRobustness:
    """Corrupt artifacts are cache misses, not crashes (then healed on save)."""

    @pytest.mark.parametrize("kind", sorted(corruptions()))
    def test_corrupt_artifact_is_a_cache_miss(self, tmp_path, kind):
        store = ArtifactStore(tmp_path)
        path = store.save(spec(), {"kind": "comparison", "cases": []})
        path.write_text(corruptions()[kind](path.read_text()), encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="cache miss"):
            assert store.load(spec()) is None

    @pytest.mark.parametrize("kind", sorted(corruptions()))
    def test_save_heals_a_corrupt_artifact(self, tmp_path, kind):
        store = ArtifactStore(tmp_path)
        payload = {"kind": "comparison", "cases": []}
        path = store.save(spec(), payload)
        path.write_text(corruptions()[kind](path.read_text()), encoding="utf-8")
        store.save(spec(), payload)
        document = store.load(spec())
        assert document is not None and document["payload"] == payload

    def test_runner_resimulates_through_a_corrupt_artifact(self, tmp_path):
        # End to end: run → corrupt the stored artifact → run again.  The
        # second run must not crash, must not serve the corrupt bytes, and
        # must leave a healed artifact behind for the third run to hit.
        from repro.runner import run_scenario
        from repro.scenarios import ComparisonCase as Case

        scenario = ComparisonScenario(
            name="store-corruption-e2e",
            engine="batch",
            samples=40,
            shard_samples=20,
            cases=(Case(label="case", lengths=(1.0, 2.0, 3.0), fa=1),),
        )
        store = ArtifactStore(tmp_path)
        first = run_scenario(scenario, store=store)
        assert not first.cached
        Path(first.store_path).write_text("garbage", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="cache miss"):
            second = run_scenario(scenario, store=store)
        assert not second.cached
        assert second.payload == first.payload
        third = run_scenario(scenario, store=store)
        assert third.cached
        assert third.payload == first.payload


class TestEntriesAndDefaults:
    def test_entries_summarise_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.entries() == []
        store.save(spec(), {"kind": "comparison"})
        store.save(spec(name="store-test-2"), {"kind": "comparison"})
        names = {entry["name"] for entry in store.entries()}
        assert names == {"store-test", "store-test-2"}

    def test_entries_carry_filesystem_stats(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.save(spec(), {"kind": "comparison"})
        (entry,) = store.entries()
        assert entry["size_bytes"] == path.stat().st_size > 0
        assert entry["modified"] == path.stat().st_mtime
        assert entry["path"] == str(path)

    def test_default_store_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV_VAR, str(tmp_path / "env-store"))
        assert default_store().root == tmp_path / "env-store"
        assert default_store(tmp_path / "explicit").root == tmp_path / "explicit"
        monkeypatch.delenv(STORE_ENV_VAR)
        assert str(default_store().root).endswith("results/store")


class TestHousekeeping:
    """latest_index and gc: the ``python -m repro store`` primitives."""

    def populate(self, tmp_path):
        """Three keys for 'store-test' (increasing mtimes) plus one other name."""
        store = ArtifactStore(tmp_path)
        paths = [
            store.save(spec(samples=samples), {"kind": "comparison"})
            for samples in (10, 20, 30)
        ]
        other = store.save(spec(name="store-test-2"), {"kind": "comparison"})
        # Deterministic mtime ordering regardless of filesystem resolution.
        for age, path in enumerate([other, *paths]):
            os.utime(path, (1_000_000 + age, 1_000_000 + age))
        return store, paths, other

    def test_latest_index_picks_newest_per_name(self, tmp_path):
        store, paths, other = self.populate(tmp_path)
        index = store.latest_index()
        assert set(index) == {"store-test", "store-test-2"}
        assert index["store-test"]["key"] == spec_key(spec(samples=30))
        assert index["store-test"]["path"] == str(paths[-1])
        assert index["store-test-2"]["path"] == str(other)

    def test_gc_keeps_newest_and_returns_deleted(self, tmp_path):
        store, paths, other = self.populate(tmp_path)
        deleted = store.gc(keep_latest=1)
        assert {entry["key"] for entry in deleted} == {
            spec_key(spec(samples=10)),
            spec_key(spec(samples=20)),
        }
        assert [path.exists() for path in paths] == [False, False, True]
        assert other.exists()  # sole key of its name: always kept
        # gc never invalidates the surviving result.
        assert store.load(spec(samples=30)) is not None
        assert store.gc(keep_latest=1) == []  # idempotent

    def test_gc_keep_latest_two(self, tmp_path):
        store, paths, _ = self.populate(tmp_path)
        deleted = store.gc(keep_latest=2)
        assert [entry["key"] for entry in deleted] == [spec_key(spec(samples=10))]
        assert [path.exists() for path in paths] == [False, True, True]

    def test_gc_rejects_keeping_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path).gc(keep_latest=0)

    def test_gc_on_missing_root_is_a_no_op(self, tmp_path):
        assert ArtifactStore(tmp_path / "never-created").gc() == []


class TestIdenticalMtimes:
    """Deterministic recency under mtime ties: equal mtimes break by key.

    Coarse filesystem timestamps routinely give back-to-back saves the
    same mtime; before the tie-break, latest_index and gc depended on
    directory iteration order — two runs over the same store could pick
    different "newest" artifacts and delete different files.
    """

    def populate(self, tmp_path):
        store = ArtifactStore(tmp_path)
        by_key = {}
        for samples in (10, 20, 30):
            path = store.save(spec(samples=samples), {"kind": "comparison"})
            os.utime(path, (2_000_000, 2_000_000))
            by_key[spec_key(spec(samples=samples))] = path
        return store, by_key

    def test_latest_index_is_stable_under_ties(self, tmp_path):
        store, by_key = self.populate(tmp_path)
        winner = max(by_key)  # (modified, key, path): mtimes equal → key decides
        for _ in range(3):
            entry = store.latest_index()["store-test"]
            assert entry["key"] == winner
            assert entry["path"] == str(by_key[winner])

    def test_gc_deletes_the_same_files_every_time(self, tmp_path):
        store, by_key = self.populate(tmp_path)
        winner = max(by_key)
        deleted = store.gc(keep_latest=1)
        assert [entry["key"] for entry in deleted] == sorted(set(by_key) - {winner}, reverse=True)
        assert by_key[winner].exists()
        assert all(not path.exists() for key, path in by_key.items() if key != winner)

    def test_gc_and_latest_index_agree_on_the_survivor(self, tmp_path):
        store, by_key = self.populate(tmp_path)
        survivor_before = store.latest_index()["store-test"]["key"]
        store.gc(keep_latest=1)
        assert store.latest_index()["store-test"]["key"] == survivor_before


class TestStoreHitHashesOnce:
    """A store hit hashes its spec once, through the runner and the service."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        import repro.runner.runner as runner_module
        import repro.runner.store as store_module
        import repro.serve.service as service_module

        calls = []
        original = store_module.spec_key

        def counted(spec):
            calls.append(spec.name)
            return original(spec)

        for module in (runner_module, store_module, service_module):
            monkeypatch.setattr(module, "spec_key", counted)
        return calls

    @staticmethod
    def scenario():
        return spec(name="store-hash-once", engine="batch", samples=40, shard_samples=20)

    def test_runner_hit(self, tmp_path, hashes):
        from repro.runner import run_scenario

        store = ArtifactStore(tmp_path)
        first = run_scenario(self.scenario(), store=store)
        hashes.clear()
        second = run_scenario(self.scenario(), store=store)
        assert second.cached
        assert hashes == ["store-hash-once"]
        assert second.key == first.key == spec_key(self.scenario())
        assert second.store_path == first.store_path == str(store.path_for(self.scenario()))

    def test_service_hit(self, tmp_path, hashes):
        import asyncio

        from repro.serve import FusionService

        service = FusionService(store=ArtifactStore(tmp_path))
        first = asyncio.run(service.run_spec(self.scenario()))
        hashes.clear()
        second = asyncio.run(service.run_spec(self.scenario()))
        assert second["cached"] is True
        assert hashes == ["store-hash-once"]
        assert second["key"] == first["key"] == spec_key(self.scenario())

    def test_lookup_agrees_with_load_and_path_for(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.lookup(spec()) == (spec_key(spec()), store.path_for(spec()), None)
        store.save(spec(), {"value": 1})
        key, path, document = store.lookup(spec())
        assert (key, path) == (spec_key(spec()), store.path_for(spec()))
        assert document == store.load(spec())
