"""CLI coverage: in-process command tests plus a true subprocess smoke."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main, render_payload

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = str(REPO_ROOT / "src")


def run_cli(*argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListCommand:
    def test_list_names_catalogue(self, capsys):
        code, out, _ = run_cli("list", capsys=capsys)
        assert code == 0
        assert "table1-row1" in out and "table2-exact" in out

    def test_list_json_with_tag_filter(self, capsys):
        code, out, _ = run_cli("list", "--json", "--tag", "smoke", capsys=capsys)
        assert code == 0
        names = [entry["name"] for entry in json.loads(out)["scenarios"]]
        assert names == ["sweep-lossy-smoke", "table1-smoke"]


class TestRunCommand:
    def test_run_uses_store_and_reports_cache_hit(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code, out, _ = run_cli(
            "run", "table1-smoke", "--workers", "2", "--store", store, capsys=capsys
        )
        assert code == 0 and "shard(s)" in out
        code, out, _ = run_cli("run", "table1-smoke", "--store", store, capsys=capsys)
        assert code == 0 and "cache hit" in out

    def test_run_json_workers_invariance(self, capsys, tmp_path):
        def payload(workers: str):
            code, out, _ = run_cli(
                "run",
                "table1-smoke",
                "--workers",
                workers,
                "--force",
                "--json",
                "--store",
                str(tmp_path / f"store-{workers}"),
                capsys=capsys,
            )
            assert code == 0
            (result,) = json.loads(out)["results"]
            assert result["cached"] is False
            return result["payload"]

        assert payload("1") == payload("2")

    def test_engine_override_changes_key_not_results(self, capsys, tmp_path):
        # scalar and batch are bit-identical under the stretch attacker, but
        # the override must address a different store entry.
        store = str(tmp_path / "store")
        code, out, _ = run_cli(
            "run", "table1-smoke", "--json", "--store", store, capsys=capsys
        )
        (batch_result,) = json.loads(out)["results"]
        code, out, _ = run_cli(
            "run", "table1-smoke", "--engine", "scalar", "--json", "--store", store, capsys=capsys
        )
        (scalar_result,) = json.loads(out)["results"]
        assert scalar_result["key"] != batch_result["key"]
        assert scalar_result["cached"] is False
        assert scalar_result["payload"] == batch_result["payload"]

    def test_unknown_scenario_fails_cleanly(self, capsys):
        code, _, err = run_cli("run", "no-such-scenario", capsys=capsys)
        assert code == 1
        assert "unknown scenario" in err


class TestErrorPaths:
    """Unknown names exit non-zero with near-miss hints, never a traceback."""

    def test_run_suggests_near_miss_names(self, capsys):
        code, _, err = run_cli("run", "table1-smok", capsys=capsys)
        assert code == 1
        assert "did you mean" in err and "table1-smoke" in err
        assert "Traceback" not in err

    def test_run_without_near_miss_points_at_the_catalogue(self, capsys):
        code, _, err = run_cli("run", "zzz-no-such-thing", capsys=capsys)
        assert code == 1
        assert "unknown scenario" in err
        assert "python -m repro list" in err

    def test_report_suggests_derived_reports_and_scenarios(self, capsys):
        code, _, err = run_cli("report", "table2-exact-vs-prox", capsys=capsys)
        assert code == 1
        assert "did you mean" in err and "table2-exact-vs-proxy" in err
        code, _, err = run_cli("report", "table2-exac", capsys=capsys)
        assert code == 1
        assert "table2-exact" in err

    def test_report_unknown_name_lists_report_namespace(self, capsys):
        code, _, err = run_cli("report", "zzz-no-such-thing", capsys=capsys)
        assert code == 1
        assert "unknown scenario or derived report" in err
        assert "table2-exact-vs-proxy" in err  # the derived-report namespace

    @pytest.mark.parametrize("name", ["numba", "fused"])
    def test_run_with_removed_engine_name_fails_cleanly(self, capsys, tmp_path, name):
        code, _, err = run_cli(
            "run", "table1-smoke", "--engine", name, "--store", str(tmp_path), capsys=capsys
        )
        assert code == 1
        assert f"error: unknown engine '{name}'; available engines: batch, scalar" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", ["numba", "fused"])
    def test_removed_engine_name_exits_1_in_a_real_subprocess(self, tmp_path, name):
        env = {
            **os.environ,
            "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
            "REPRO_STORE_DIR": str(tmp_path),
        }
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", "table1-smoke", "--engine", name],
            capture_output=True,
            text=True,
            cwd=str(tmp_path),
            env=env,
        )
        assert completed.returncode == 1
        assert completed.stderr.strip().endswith(
            f"error: unknown engine '{name}'; available engines: batch, scalar"
        )
        assert "Traceback" not in completed.stderr

    def test_unknown_names_exit_nonzero_in_a_real_subprocess(self, tmp_path):
        env = {
            **os.environ,
            "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
            "REPRO_STORE_DIR": str(tmp_path),
        }
        for arguments in (["run", "table1-smok"], ["report", "no-such-report"]):
            completed = subprocess.run(
                [sys.executable, "-m", "repro", *arguments],
                capture_output=True,
                text=True,
                cwd=str(tmp_path),
                env=env,
            )
            assert completed.returncode == 1
            assert "error:" in completed.stderr
            assert "Traceback" not in completed.stderr


class TestReportCommand:
    def test_report_renders_figure(self, capsys, tmp_path):
        code, out, _ = run_cli(
            "report", "fig1-marzullo", "--store", str(tmp_path), capsys=capsys
        )
        assert code == 0
        assert "fusion interval for f = 0, 1, 2" in out

    def test_engine_flag_rejected_on_derived_reports(self, capsys, tmp_path):
        code, _, err = run_cli(
            "report", "table2-exact-vs-proxy", "--engine", "scalar", "--store", str(tmp_path), capsys=capsys
        )
        assert code == 1
        assert "--engine only applies to plain scenario names" in err

    def test_render_payload_falls_back_to_json(self):
        assert render_payload({"kind": "mystery", "x": 1}).startswith("{")


class TestExperimentsReport:
    """`python -m repro report experiments` — the EXPERIMENTS.md source."""

    def test_report_computes_missing_then_serves_from_store(self, capsys, tmp_path, monkeypatch):
        import repro.cli as cli

        monkeypatch.setattr(cli, "EXPERIMENTS_BACKBONE", ("table1-smoke",))
        store = str(tmp_path / "store")
        code, out, _ = run_cli("report", "experiments", "--store", store, capsys=capsys)
        assert code == 0
        assert out.startswith("# Experiments")
        assert "table1-smoke" in out and "python -m repro report experiments" in out
        code, out, _ = run_cli("report", "experiments", "--store", store, "--json", capsys=capsys)
        assert code == 0
        (section,) = json.loads(out)["sections"]
        assert section["name"] == "table1-smoke"
        assert section["cached"] is True  # second pass reads the stored artifact

    def test_engine_refresh_flows_into_the_document(self, capsys, tmp_path, monkeypatch):
        # A scalar-engine rerun writes a new key for the same name; the
        # experiments report must pick up that newest artifact — same
        # payload bytes, new provenance.
        import repro.cli as cli
        from repro.scenarios.registry import _SCENARIOS, get_scenario

        monkeypatch.setattr(cli, "EXPERIMENTS_BACKBONE", ("table1-smoke",))
        # A smaller budget keeps the scalar-engine rerun quick.
        small = dataclasses.replace(get_scenario("table1-smoke"), samples=400, shard_samples=200)
        monkeypatch.setitem(_SCENARIOS, "table1-smoke", small)
        store = str(tmp_path / "store")
        code, out, _ = run_cli("run", "table1-smoke", "--json", "--store", store, capsys=capsys)
        (batch_run,) = json.loads(out)["results"]
        code, out, _ = run_cli(
            "run", "table1-smoke", "--engine", "scalar", "--json", "--store", store, capsys=capsys
        )
        (scalar_run,) = json.loads(out)["results"]
        assert scalar_run["key"] != batch_run["key"]
        code, out, _ = run_cli("report", "experiments", "--store", store, "--json", capsys=capsys)
        assert code == 0
        (section,) = json.loads(out)["sections"]
        assert section["key"] == scalar_run["key"]
        assert section["engine"] == "scalar"
        assert section["payload"] == batch_run["payload"]


class TestSubprocessSmoke:
    def test_python_m_repro_end_to_end(self, tmp_path):
        """The acceptance-criterion flow through a real `python -m repro`."""
        env = {
            **os.environ,
            "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
            "REPRO_STORE_DIR": str(tmp_path),
        }

        def invoke(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro", *args],
                capture_output=True,
                text=True,
                cwd=str(tmp_path),
                env=env,
                check=True,
            )

        listing = invoke("list", "--json")
        assert "table1-smoke" in listing.stdout

        parallel = json.loads(invoke("run", "table1-smoke", "--workers", "4", "--json").stdout)
        (first,) = parallel["results"]
        assert first["cached"] is False and first["shards"] == 4

        serial = json.loads(
            invoke("run", "table1-smoke", "--workers", "1", "--force", "--json").stdout
        )
        (second,) = serial["results"]
        assert second["payload"] == first["payload"], "workers=4 vs workers=1 diverged"

        cached = json.loads(invoke("run", "table1-smoke", "--json").stdout)
        (third,) = cached["results"]
        assert third["cached"] is True
        assert third["payload"] == first["payload"]
        assert (tmp_path / f"{first['key']}.json").exists()


class TestStoreCommand:
    """`python -m repro store ls|gc` — artifact-store housekeeping."""

    def populate(self, tmp_path, capsys):
        """Two keys for table1-smoke (batch + scalar engines) in one store."""
        store = str(tmp_path / "store")
        run_cli("run", "table1-smoke", "--store", store, "--json", capsys=capsys)
        run_cli(
            "run", "table1-smoke", "--engine", "scalar", "--store", store,
            "--json", capsys=capsys,
        )
        return store

    def test_ls_reports_latest_per_name(self, capsys, tmp_path):
        store = self.populate(tmp_path, capsys)
        code, out, _ = run_cli("store", "ls", "--store", store, "--json", capsys=capsys)
        assert code == 0
        listing = json.loads(out)
        assert listing["artifacts"] == 2
        (entry,) = listing["latest"]
        assert entry["name"] == "table1-smoke"
        assert entry["size_bytes"] > 0

    def test_ls_table_output(self, capsys, tmp_path):
        store = self.populate(tmp_path, capsys)
        code, out, _ = run_cli("store", "ls", "--store", store, capsys=capsys)
        assert code == 0
        assert "table1-smoke" in out
        assert "2 artifact(s), 1 scenario name(s)" in out

    def test_gc_removes_superseded_keys(self, capsys, tmp_path):
        store = self.populate(tmp_path, capsys)
        code, out, _ = run_cli("store", "gc", "--store", store, "--json", capsys=capsys)
        assert code == 0
        report = json.loads(out)
        assert len(report["deleted"]) == 1
        assert report["reclaimed_bytes"] > 0
        # The surviving artifact still answers; the collected one is gone.
        code, out, _ = run_cli("store", "ls", "--store", store, "--json", capsys=capsys)
        assert json.loads(out)["artifacts"] == 1

    def test_gc_keep_latest_validation(self, capsys, tmp_path):
        code, _, err = run_cli(
            "store", "gc", "--store", str(tmp_path), "--keep-latest", "0", capsys=capsys
        )
        assert code == 1
        assert "--keep-latest" in err

    def test_gc_empty_store_reports_nothing_to_do(self, capsys, tmp_path):
        code, out, _ = run_cli("store", "gc", "--store", str(tmp_path), capsys=capsys)
        assert code == 0
        assert "removed 0 artifact(s)" in out


class TestServeParser:
    def test_serve_flags_parse_with_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 8014)
        assert args.max_batch == 64
        # The batching window is gone: max_batch is the only batching option.
        assert set(vars(args)) == {"command", "handler", "host", "port", "max_batch", "store", "metrics"}
        args = build_parser().parse_args(["serve", "--port", "0", "--max-batch", "8"])
        assert (args.port, args.max_batch) == (0, 8)
