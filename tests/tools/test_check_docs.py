"""The docs checker runs clean on the committed docs — and catches rot."""

import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS_DIR))

import check_docs  # noqa: E402


def test_committed_docs_are_clean():
    assert check_docs.main() == 0


def test_python_block_extraction():
    text = "\n".join(
        ["prose", "```python", "x = 1", "```", "```bash", "ls", "```", "```py", "y = 2", "```"]
    )
    blocks = check_docs.python_blocks(text)
    assert [source for _line, source in blocks] == ["x = 1", "y = 2"]
    assert blocks[0][0] == 3


def test_broken_snippet_is_flagged(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("```python\ndef broken(:\n```\n", encoding="utf-8")
    errors = check_docs.check_python_blocks(page, page.read_text(encoding="utf-8"))
    assert errors and "does not compile" in errors[0]


def test_stale_reference_is_flagged(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("see `repro.engine.NoSuchEngine` for details\n", encoding="utf-8")
    errors = check_docs.check_references(page, page.read_text(encoding="utf-8"))
    assert errors and "repro.engine.NoSuchEngine" in errors[0]


def test_live_reference_resolves():
    assert check_docs.resolve_dotted("repro.batch.expectation.ExactExpectationBatchAttacker")
    assert check_docs.resolve_dotted("repro.engine.base.Engine.run_rounds")
    assert not check_docs.resolve_dotted("repro.engine.base.Engine.run_backwards")


def test_dead_link_is_flagged(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("[missing](nowhere.md) and [web](https://example.com/x)\n", encoding="utf-8")
    errors = check_docs.check_links(page, page.read_text(encoding="utf-8"))
    assert len(errors) == 1 and "nowhere.md" in errors[0]


def test_stale_python_path_is_flagged(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "`tools/check_docs.py`, `tests/batch/test_batch_fuse*.py` and "
        "`tests/runner/test_runner.py::TestFigureScenarios` exist; "
        "`benchmarks/bench_gone.py` and `tests/gone.py::test_x` do not\n",
        encoding="utf-8",
    )
    errors = check_docs.check_paths(page, page.read_text(encoding="utf-8"))
    assert len(errors) == 2
    assert "benchmarks/bench_gone.py" in errors[0] and "tests/gone.py" in errors[1]


def test_stale_environment_variable_is_flagged(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "set `REPRO_STORE_DIR` or a `REPRO_BENCH_*` knob; `REPRO_WARP_DRIVE` is gone\n",
        encoding="utf-8",
    )
    known = check_docs.code_env_vars()
    assert {"REPRO_STORE_DIR", "REPRO_BENCH_STEPS"} <= known
    errors = check_docs.check_env_vars(page, page.read_text(encoding="utf-8"), known)
    assert len(errors) == 1 and "REPRO_WARP_DRIVE" in errors[0]


def test_stale_imported_and_facade_names_are_flagged(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "Call `api.run(...)`, not `api.teleport(...)`; see https://api.example.com/x.\n"
        "```python\n"
        "from repro import api\n"
        "from repro.vehicle import CaseStudyConfig, WarpDrive\n"
        "result = api.teleport()\n"
        "```\n",
        encoding="utf-8",
    )
    errors = check_docs.check_imported_names(page, page.read_text(encoding="utf-8"))
    assert len(errors) == 2
    assert "repro.api.teleport" in errors[0] and "repro.vehicle.WarpDrive" in errors[1]


def test_removed_cli_flag_is_flagged(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "```bash\n"
        "python -m repro serve --port 0 --max-batch 8 --warp 9   # not --port-knob\n"
        "python -m repro store gc --keep-latest 3 --json | grep --count key\n"
        "python -m repro teleport --now\n"
        "```\n"
        "`python -m repro run NAME [--engine E] [--turbo]`\n",
        encoding="utf-8",
    )
    errors = check_docs.check_cli_flags(page, page.read_text(encoding="utf-8"), check_docs.cli_options())
    assert len(errors) == 3
    assert "serve" in errors[0] and "'--warp'" in errors[0]
    assert "'python -m repro teleport' is not a subcommand" in errors[1]
    assert "run" in errors[2] and "'--turbo'" in errors[2]


def test_removed_api_keyword_is_flagged(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "```python\n"
        "from repro import api\n"
        "api.run('table1-smoke', workers=2)\n"
        "api.serve(port=8014, max_batch=64, warp_factor=9)\n"
        "```\n",
        encoding="utf-8",
    )
    errors = check_docs.check_api_keywords(page, page.read_text(encoding="utf-8"))
    assert len(errors) == 1
    assert "page.md:4" in errors[0] and "api.serve()" in errors[0] and "'warp_factor'" in errors[0]


@pytest.mark.parametrize("name", ["README.md", "docs/ARCHITECTURE.md", "docs/ATTACKERS.md"])
def test_doc_set_exists(name):
    assert (TOOLS_DIR.parent / name).is_file()
