"""Lightweight docs checker: keep README/docs snippets and references honest.

Four checks over ``README.md`` and ``docs/*.md``:

1. every fenced ``python`` code block must *compile* (syntax-checked with
   the file and line of the block on failure — snippets are not executed,
   so they may elide expensive parts with ``...``);
2. every dotted ``repro.*`` reference must *resolve* — the module part must
   import and any attribute tail must exist, so renames cannot silently rot
   the prose;
3. every relative markdown link must point at an existing file;
4. every backticked repo-relative ``*.py`` path (a ``*`` glob, or a
   ``path.py::node`` test id, names the file part) must exist, so a deleted
   module or test file cannot linger in a table.

Run from the repository root (CI's docs job does)::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``repro.foo.bar`` style dotted references (identifiers only, so prose
#: punctuation ends a match naturally).
DOTTED_REF = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: Relative markdown links: ``[text](target)`` with no scheme or anchor-only
#: target.
MARKDOWN_LINK = re.compile(r"\[[^\]]+\]\(([^)#\s]+)(?:#[^)\s]*)?\)")

#: Backticked Python file paths relative to the repository root, with an
#: optional ``::node`` test-id suffix.
PY_PATH = re.compile(r"`([\w.*-][\w./*-]*\.py)(?:::[^`]*)?`")

FENCE = re.compile(r"^```(\w*)\s*$")


def docs_files() -> list[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


def python_blocks(text: str) -> list[tuple[int, str]]:
    """Return ``(first_line_number, source)`` for every fenced python block."""
    blocks: list[tuple[int, str]] = []
    language = None
    start = 0
    buffer: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        fence = FENCE.match(line)
        if fence is None:
            if language is not None:
                buffer.append(line)
            continue
        if language is None:
            language = fence.group(1).lower()
            start = number + 1
            buffer = []
        else:
            if language in ("python", "py"):
                blocks.append((start, "\n".join(buffer)))
            language = None
    return blocks


def check_python_blocks(path: Path, text: str) -> list[str]:
    errors = []
    for line, source in python_blocks(text):
        try:
            compile(source, f"{path.name}:{line}", "exec")
        except SyntaxError as exc:
            errors.append(f"{path.name}:{line}: python block does not compile: {exc}")
    return errors


def resolve_dotted(name: str) -> bool:
    """Import the longest module prefix of ``name`` and getattr the rest."""
    parts = name.split(".")
    module = None
    index = len(parts)
    while index > 0:
        try:
            module = importlib.import_module(".".join(parts[:index]))
            break
        except ModuleNotFoundError:
            index -= 1
    if module is None:
        return False
    target = module
    for attribute in parts[index:]:
        try:
            target = getattr(target, attribute)
        except AttributeError:
            return False
    return True


def check_references(path: Path, text: str) -> list[str]:
    errors = []
    for name in sorted(set(DOTTED_REF.findall(text))):
        if not resolve_dotted(name):
            errors.append(f"{path.name}: reference {name!r} does not resolve")
    return errors


def check_links(path: Path, text: str) -> list[str]:
    errors = []
    for target in MARKDOWN_LINK.findall(text):
        if "://" in target or target.startswith("mailto:"):
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            errors.append(f"{path.name}: link target {target!r} does not exist")
    return errors


def check_paths(path: Path, text: str) -> list[str]:
    errors = []
    for target in sorted(set(PY_PATH.findall(text))):
        if not any(REPO_ROOT.glob(target)):
            errors.append(f"{path.name}: path {target!r} does not exist")
    return errors


def main() -> int:
    errors: list[str] = []
    checked_blocks = 0
    for path in docs_files():
        text = path.read_text(encoding="utf-8")
        checked_blocks += len(python_blocks(text))
        errors.extend(check_python_blocks(path, text))
        errors.extend(check_references(path, text))
        errors.extend(check_links(path, text))
        errors.extend(check_paths(path, text))
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    files = len(docs_files())
    print(f"checked {files} files, {checked_blocks} python blocks: {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
