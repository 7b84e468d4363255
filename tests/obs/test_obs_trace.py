"""Span tracing: no-op default, nesting, grafting, JSONL round-trip."""

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.exceptions import ExperimentError
from repro.engine import get_engine
from repro.obs.report import build_perf_report, load_trace
from repro.scheduling import AscendingSchedule, ScheduleComparisonConfig


class TestDisabledPath:
    def test_everything_is_a_noop_outside_collect(self):
        assert not obs.enabled()
        with obs.span("engine.run", engine="batch"):
            obs.add("c_total", 1)
            obs.observe("h", 0.1)
            obs.set_gauge("g", 2.0)
        obs.event("late", 0.5)
        assert obs.active() is None

    def test_span_returns_the_shared_noop(self):
        assert obs.span("a") is obs.span("b")


class TestCollection:
    def test_spans_nest_and_time(self):
        with obs.collect() as session:
            with obs.span("outer", level="1"):
                with obs.span("inner"):
                    pass
        (root,) = session.snapshot()["spans"]
        assert root["name"] == "outer"
        assert root["attrs"] == {"level": "1"}
        (child,) = root["children"]
        assert child["name"] == "inner"
        assert 0.0 <= child["duration_s"] <= root["duration_s"]

    def test_name_is_positional_only_so_attrs_may_shadow_it(self):
        # Instrumentation regularly wants a `name=` attribute (store.load
        # tags the scenario name); the span's own name must not collide.
        with obs.collect() as session:
            with obs.span("store.load", name="table1-row4"):
                pass
            obs.event("serve.request", 0.01, name="table1-row4")
        spans = session.snapshot()["spans"]
        assert [node["attrs"]["name"] for node in spans] == ["table1-row4"] * 2

    def test_metric_helpers_record_into_the_scope(self):
        with obs.collect() as session:
            obs.add("c_total", 2, engine="batch")
            obs.observe("h", 0.1)
            obs.set_gauge("g", 7.0)
        metrics = session.snapshot()["metrics"]
        assert metrics["counters"][0]["value"] == 2
        assert metrics["gauges"][0]["value"] == 7.0
        assert metrics["histograms"][0]["count"] == 1

    def test_scopes_nest_and_restore(self):
        with obs.collect() as outer:
            obs.add("c_total", 1)
            with obs.collect() as inner:
                obs.add("c_total", 10)
            obs.add("c_total", 1)
        assert inner.snapshot()["metrics"]["counters"][0]["value"] == 10
        assert outer.snapshot()["metrics"]["counters"][0]["value"] == 2

    def test_scope_is_thread_local(self):
        seen = {}

        def worker():
            seen["enabled"] = obs.enabled()

        with obs.collect():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["enabled"] is False


class TestGraft:
    def test_graft_attaches_spans_and_merges_metrics(self):
        with obs.collect() as shard:
            with obs.span("runner.shard", index=0):
                obs.add("c_total", 5)
        snapshot = shard.snapshot()
        with obs.collect() as merged:
            with obs.span("runner.run_scenario"):
                obs.graft(snapshot)
                obs.graft(snapshot)
        (root,) = merged.snapshot()["spans"]
        assert [child["name"] for child in root["children"]] == ["runner.shard"] * 2
        assert merged.snapshot()["metrics"]["counters"][0]["value"] == 10

    def test_graft_outside_collect_is_a_noop(self):
        obs.graft({"spans": [{"name": "x", "attrs": {}, "duration_s": 0.0, "children": []}]})


class TestJsonlRoundTrip:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.collect() as session:
            with obs.span("engine.run", engine="batch"):
                obs.add("repro_engine_samples_total", 100, engine="batch")
                obs.observe("repro_request_seconds", 0.25)
            session.write_jsonl(path, meta={"scenario": "t"})
        records = load_trace(path)
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "meta"
        assert records[0]["version"] == 1 and records[0]["scenario"] == "t"
        assert set(kinds) == {"meta", "span", "counter", "histogram"}

    def test_perf_report_aggregates_the_artifact(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.collect() as session:
            with obs.span("runner.run_scenario"):
                with obs.span("engine.run", engine="batch"):
                    obs.add("repro_engine_samples_total", 500, engine="batch")
            obs.observe("repro_request_seconds", 0.25)
            session.write_jsonl(path)
        payload = build_perf_report(path)
        by_span = {row["span"]: row for row in payload["spans"]}
        assert by_span["engine.run"]["layer"] == "engine"
        assert by_span["runner.run_scenario"]["layer"] == "runner"
        assert payload["throughput"]["samples"] == 500
        (histogram,) = payload["histograms"]
        assert histogram["count"] == 1 and histogram["p50_ms"] <= histogram["p99_ms"]

    @pytest.mark.parametrize("engine_name", ["batch", "scalar"])
    def test_engine_seconds_counts_each_engine_run_once(self, tmp_path, engine_name):
        # The phase spans nested inside engine.run must not be added on top.
        config = ScheduleComparisonConfig(lengths=(2.0, 3.0, 4.0), fa=1)
        engine = get_engine(engine_name)
        path = tmp_path / "trace.jsonl"
        with obs.collect() as session:
            with obs.span("runner.run_scenario"):
                for seed in range(2):
                    engine.run_rounds(
                        config, AscendingSchedule(), samples=64, rng=np.random.default_rng(seed)
                    )
            session.write_jsonl(path)
        payload = build_perf_report(path)
        by_span = {row["span"]: row for row in payload["spans"]}
        assert by_span["engine.run"]["count"] == 2
        assert payload["throughput"]["engine_seconds"] == pytest.approx(
            by_span["engine.run"]["total_s"]
        )
        nested = sum(
            row["total_s"] for name, row in by_span.items() if name.startswith("engine.")
        )
        assert nested > by_span["engine.run"]["total_s"]
        assert payload["throughput"]["samples"] == 128

    def test_load_trace_error_paths(self, tmp_path):
        with pytest.raises(ExperimentError, match="--trace PATH"):
            load_trace(None)
        with pytest.raises(ExperimentError, match="does not exist"):
            load_trace(tmp_path / "missing.jsonl")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(ExperimentError, match="line 1 is not JSON"):
            load_trace(bad)
        nokind = tmp_path / "nokind.jsonl"
        nokind.write_text(json.dumps({"spam": 1}) + "\n")
        with pytest.raises(ExperimentError, match="no 'kind'"):
            load_trace(nokind)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(ExperimentError, match="is empty"):
            load_trace(empty)
