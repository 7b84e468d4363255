"""Lightweight docs checker: keep README/docs snippets and references honest.

Eight checks over ``README.md`` and ``docs/*.md``:

1. every fenced ``python`` code block must *compile* (syntax-checked with
   the file and line of the block on failure — snippets are not executed,
   so they may elide expensive parts with ``...``);
2. every dotted ``repro.*`` reference must *resolve* — the module part must
   import and any attribute tail must exist, so renames cannot silently rot
   the prose;
3. every relative markdown link must point at an existing file;
4. every backticked repo-relative ``*.py`` path (a ``*`` glob, or a
   ``path.py::node`` test id, names the file part) must exist, so a deleted
   module or test file cannot linger in a table;
5. every ``REPRO_*`` environment variable named must appear in the code
   under ``src/`` or ``benchmarks/``, so a deleted knob cannot linger in
   the docs;
6. every name a python block imports with ``from repro… import …``, and
   every ``api.<name>`` the prose or a snippet calls, must exist — check 2
   only resolves the dotted module part, so a deleted class or facade verb
   would otherwise pass;
7. every ``--flag`` on a ``python -m repro SUB …`` line must be an option
   of ``SUB``'s parser in :func:`repro.cli.build_parser`, so a removed CLI
   option cannot linger in a synopsis or an example;
8. every keyword of an ``api.<verb>(…)`` call in a python block must be a
   parameter of that verb, so a removed facade option cannot linger in a
   snippet (snippets compile but never run).

Run from the repository root (CI's docs job does)::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
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

#: ``REPRO_*`` environment variable names; a ``REPRO_BENCH_*`` style glob
#: names no single variable and is skipped.
ENV_VAR = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9](?![A-Z0-9_])")

#: ``api.<name>`` facade uses; a preceding word character, dot or slash
#: means some other ``api`` (``repro.api.x`` is check 2's, a URL host is
#: not ours).
API_NAME = re.compile(r"(?<![\w./])api\.([A-Za-z_][A-Za-z0-9_]*)")

#: ``python -m repro SUB rest-of-line`` command lines.
CLI_LINE = re.compile(r"\bpython3? -m repro\s+([a-z][\w-]*)([^\n]*)")

#: Where a command's own arguments end on its line: a closing backtick, a
#: shell separator, a redirect or a comment.
CLI_LINE_END = re.compile(r"`|;|&&|\s\|\s|\s>|\s#")

#: Long options (``--flag``) within a command line.
CLI_FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")

#: Where a documented environment variable must be read.
CODE_DIRS = ("src", "benchmarks")


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


def check_imported_names(path: Path, text: str) -> list[str]:
    errors = []
    names = set()
    for _line, source in python_blocks(text):
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # check 1 reports it
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
    names.update(f"repro.api.{name}" for name in API_NAME.findall(text))
    for name in sorted(names):
        if not resolve_dotted(name):
            errors.append(f"{path.name}: name {name!r} does not exist")
    return errors


def cli_options() -> dict[str, set[str]]:
    """Every option string each ``python -m repro`` subcommand accepts,
    including those of its own subcommands (``store ls|gc``)."""
    from repro.cli import build_parser

    def options(parser: argparse.ArgumentParser) -> set[str]:
        found = set()
        for action in parser._actions:
            found.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                for child in action.choices.values():
                    found |= options(child)
        return found

    subparsers = next(action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    return {name: options(parser) for name, parser in subparsers.choices.items()}


def check_cli_flags(path: Path, text: str, known: dict[str, set[str]]) -> list[str]:
    errors = []
    for command, rest in CLI_LINE.findall(text):
        flags = CLI_FLAG.findall(CLI_LINE_END.split(rest, maxsplit=1)[0])
        if command not in known:
            errors.append(f"{path.name}: 'python -m repro {command}' is not a subcommand")
            continue
        errors.extend(
            f"{path.name}: 'python -m repro {command}' has no option {flag!r}"
            for flag in flags
            if flag not in known[command]
        )
    return errors


def check_api_keywords(path: Path, text: str) -> list[str]:
    from repro import api

    errors = []
    for line, source in python_blocks(text):
        try:
            tree = ast.parse(source)
        except SyntaxError:
            continue  # check 1 reports it
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "api"
                and callable(getattr(api, node.func.attr, None))
            ):
                continue  # not a facade call, or a missing verb (check 6 reports it)
            parameters = inspect.signature(getattr(api, node.func.attr)).parameters
            if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
                continue
            errors.extend(
                f"{path.name}:{line + node.lineno - 1}: api.{node.func.attr}() "
                f"has no parameter {keyword.arg!r}"
                for keyword in node.keywords
                if keyword.arg is not None and keyword.arg not in parameters
            )
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


def code_env_vars() -> set[str]:
    """Every ``REPRO_*`` name the Python code under :data:`CODE_DIRS` mentions."""
    names: set[str] = set()
    for directory in CODE_DIRS:
        for source in (REPO_ROOT / directory).rglob("*.py"):
            names.update(ENV_VAR.findall(source.read_text(encoding="utf-8")))
    return names


def check_env_vars(path: Path, text: str, known: set[str]) -> list[str]:
    return [
        f"{path.name}: environment variable {name!r} appears nowhere in src/ or benchmarks/"
        for name in sorted(set(ENV_VAR.findall(text)) - known)
    ]


def main() -> int:
    errors: list[str] = []
    checked_blocks = 0
    known_env_vars = code_env_vars()
    known_cli_options = cli_options()
    for path in docs_files():
        text = path.read_text(encoding="utf-8")
        checked_blocks += len(python_blocks(text))
        errors.extend(check_python_blocks(path, text))
        errors.extend(check_references(path, text))
        errors.extend(check_links(path, text))
        errors.extend(check_paths(path, text))
        errors.extend(check_env_vars(path, text, known_env_vars))
        errors.extend(check_imported_names(path, text))
        errors.extend(check_cli_flags(path, text, known_cli_options))
        errors.extend(check_api_keywords(path, text))
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    files = len(docs_files())
    print(f"checked {files} files, {checked_blocks} python blocks: {len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
