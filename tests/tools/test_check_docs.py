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


@pytest.mark.parametrize("name", ["README.md", "docs/ARCHITECTURE.md", "docs/ATTACKERS.md"])
def test_doc_set_exists(name):
    assert (TOOLS_DIR.parent / name).is_file()
