"""Span tracing: no-op default, nesting, grafting, JSONL round-trip."""

import dataclasses
import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.exceptions import ExperimentError
from repro.engine import get_engine
from repro.obs.report import build_perf_report, load_trace, render_perf_report
from repro.runner import run_scenario
from repro.scenarios import CaseStudyScenario, get_scenario
from repro.scheduling import AscendingSchedule, ScheduleComparisonConfig


def case_study_spec(engine_name: str, **overrides) -> CaseStudyScenario:
    """A small ``table2-*`` scenario on ``engine_name``, in one replica shard."""
    name = {"batch": "table2-proxy", "scalar": "table2-scalar"}[engine_name]
    return dataclasses.replace(get_scenario(name), n_replicas=2, shard_replicas=2, **overrides)


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

    def test_self_seconds_add_up_to_the_root_span(self, tmp_path):
        # The exact attacker's lookahead nests attack.* spans in attack.*
        # spans, so total_s double-counts; self_s must not.
        spec = dataclasses.replace(get_scenario("table1-expectation"), samples=8, shard_samples=8)
        path = tmp_path / "trace.jsonl"
        with obs.collect() as session:
            run_scenario(spec, store=None)
            session.write_jsonl(path)
        (root,) = [record["span"] for record in load_trace(path) if record["kind"] == "span"]
        payload = build_perf_report(path)
        by_span = {row["span"]: row for row in payload["spans"]}
        assert root["name"] == "runner.run_scenario"
        assert sum(row["self_s"] for row in payload["spans"]) == pytest.approx(root["duration_s"], rel=1e-9)
        assert all(-1e-9 <= row["self_s"] <= row["total_s"] for row in payload["spans"])
        attack = [row for name, row in by_span.items() if name.startswith("attack.")]
        assert sum(row["total_s"] for row in attack) > by_span["engine.attack"]["total_s"]
        assert sum(row["self_s"] for row in attack) <= by_span["engine.attack"]["total_s"]
        assert "self s" in render_perf_report(payload)

    @pytest.mark.parametrize("engine_name", ["batch", "scalar"])
    def test_sampling_has_its_own_span(self, tmp_path, engine_name):
        # table1-smoke: 4 shards x 2 schedules, one engine.sample per run.
        spec = get_scenario("table1-smoke")
        if engine_name == "scalar":
            spec = dataclasses.replace(spec, engine="scalar", samples=400, shard_samples=100)
        path = tmp_path / "trace.jsonl"
        with obs.collect() as session:
            run_scenario(spec, store=None)
            session.write_jsonl(path)
        (root,) = [record["span"] for record in load_trace(path) if record["kind"] == "span"]
        payload = build_perf_report(path)
        by_span = {row["span"]: row for row in payload["spans"]}
        sample = by_span["engine.sample"]
        assert sample["count"] == by_span["engine.run"]["count"] == 8
        assert 0 < sample["total_s"] < by_span["engine.run"]["total_s"]
        sampled = [
            node["attrs"]["samples"]
            for shard in root["children"]
            for run in shard["children"]
            for node in run["children"]
            if node["name"] == "engine.sample"
        ]
        assert sum(sampled) == spec.samples * 2
        assert sum(row["self_s"] for row in payload["spans"]) == pytest.approx(root["duration_s"], rel=1e-9)

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

    @pytest.mark.parametrize("engine_name", ["batch", "scalar"])
    def test_engine_case_study_reports_its_rounds(self, tmp_path, engine_name):
        spec = case_study_spec(engine_name, n_steps=4, schedules=("ascending", "descending"))
        path = tmp_path / "trace.jsonl"
        with obs.collect() as session:
            result = run_scenario(spec, store=None).payload
            session.write_jsonl(path)
        payload = build_perf_report(path)
        rounds = sum(row["rounds"] for row in result["rows"])
        assert rounds > 0
        assert payload["throughput"]["samples"] == rounds
        assert payload["throughput"]["engine_seconds"] > 0
        assert result == run_scenario(spec, store=None).payload

    @pytest.mark.parametrize("engine_name", ["batch", "scalar"])
    def test_engine_case_study_span_is_labelled(self, engine_name):
        spec = case_study_spec(engine_name, n_steps=3, schedules=("ascending",))
        with obs.collect() as session:
            run_scenario(spec, store=None)
        (root,) = session.snapshot()["spans"]
        (shard,) = [span for span in root["children"] if span["name"] == "runner.shard"]
        (engine_run,) = shard["children"]
        assert engine_run["name"] == "engine.run"
        assert engine_run["attrs"] == {"engine": engine_name, "kind": "case_study"}

    def test_case_study_perf_report_prints_its_throughput(self, tmp_path):
        spec = case_study_spec("batch", n_steps=3, schedules=("ascending",))
        path = tmp_path / "trace.jsonl"
        with obs.collect() as session:
            result = run_scenario(spec, store=None).payload
            session.write_jsonl(path)
        rounds = sum(row["rounds"] for row in result["rows"])
        text = render_perf_report(build_perf_report(path))
        assert f"throughput: {rounds} samples in " in text
        assert "samples/s" in text

    def test_case_study_scenario_reports_its_rounds(self, tmp_path):
        spec = CaseStudyScenario(name="obs-case-study", n_steps=4, n_replicas=4, shard_replicas=2)
        untraced = run_scenario(spec, workers=1, store=None).payload
        path = tmp_path / "trace.jsonl"
        with obs.collect() as session:
            traced = run_scenario(spec, workers=1, store=None).payload
            session.write_jsonl(path)
        payload = build_perf_report(path)
        rounds = sum(row["rounds"] for row in traced["rows"])
        assert rounds > 0
        assert payload["throughput"]["samples"] == rounds
        assert json.dumps(traced, sort_keys=True) == json.dumps(untraced, sort_keys=True)

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
