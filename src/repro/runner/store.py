"""Content-addressed artifact store for scenario results.

Layout: one JSON document per result at ``<root>/<spec_key(spec)>.json``
(default root ``results/store/``, overridable with the ``REPRO_STORE_DIR``
environment variable or the CLI's ``--store``).  The filename *is* the
invalidation mechanism: any change to the spec — sample budget, seed, shard
layout, engine, attack, schema version — changes its sha256 content hash
(:func:`repro.scenarios.spec.spec_key`), so a stale result is simply never
looked up again.  No mtimes, no manifests, no bookkeeping.

Each document carries the full serialised spec next to the payload, which
lets :meth:`ArtifactStore.load` verify the (astronomically unlikely) hash
collision / hand-edited file case, and makes every artifact self-describing
for archival (CI uploads the whole directory as a workflow artifact).
Corrupt artifacts — truncated writes, non-JSON bytes, embedded-spec
mismatches — are treated as cache misses (with a warning) and healed by
the next atomic :meth:`ArtifactStore.save`, never crashes.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.scenarios.spec import ScenarioSpec, spec_dict, spec_key

__all__ = ["STORE_ENV_VAR", "DEFAULT_STORE_DIR", "ArtifactStore", "default_store"]

#: Environment variable overriding the default store directory.
STORE_ENV_VAR = "REPRO_STORE_DIR"

#: Store root used when neither the caller nor the environment picks one.
DEFAULT_STORE_DIR = Path("results") / "store"


@dataclass(frozen=True)
class ArtifactStore:
    """A directory of content-addressed scenario results."""

    root: Path

    def path_for(self, spec: ScenarioSpec) -> Path:
        """The (content-addressed) file a result for ``spec`` lives at."""
        return self._path(spec_key(spec))

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def lookup(self, spec: ScenarioSpec) -> tuple[str, Path, dict | None]:
        """``(spec_key(spec), path_for(spec), load(spec))`` from one hash of ``spec``.

        The runner and the service read a hit's key and path from here, so
        serving a stored result hashes its spec once.
        """
        key = spec_key(spec)
        path = self._path(key)
        return key, path, self._load(spec, path)

    def load(self, spec: ScenarioSpec) -> dict | None:
        """Return the stored document for ``spec``, or ``None`` on a miss.

        Robustness contract: a corrupt artifact — truncated or non-JSON
        bytes (a crashed writer, a torn disk), a document without a
        ``payload``, or an embedded spec that does not match ``spec`` (hash
        collision or a hand-edited file) — is treated as a **cache miss**,
        never a crash.  The runner then re-simulates and
        :meth:`save` atomically replaces the bad file.  A warning is
        emitted so silent corruption still surfaces in logs.
        """
        return self.lookup(spec)[2]

    def _load(self, spec: ScenarioSpec, path: Path) -> dict | None:
        with obs.span("store.load", name=spec.name):
            if not path.exists():
                obs.add("repro_store_reads_total", outcome="miss")
                return None
            try:
                document = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as error:
                self._warn_corrupt(path, f"unreadable ({error})")
                obs.add("repro_store_reads_total", outcome="corrupt")
                return None
            if (
                not isinstance(document, dict)
                or not isinstance(document.get("payload"), dict)
            ):
                self._warn_corrupt(path, "document carries no payload")
                obs.add("repro_store_reads_total", outcome="corrupt")
                return None
            if document.get("spec") != _jsonified_spec(spec):
                self._warn_corrupt(path, "embedded spec does not match the requested spec")
                obs.add("repro_store_reads_total", outcome="corrupt")
                return None
            obs.add("repro_store_reads_total", outcome="hit")
            return document

    @staticmethod
    def _warn_corrupt(path: Path, reason: str) -> None:
        warnings.warn(
            f"artifact {path} is corrupt — {reason}; treating it as a cache miss "
            "(the result will be re-simulated and the artifact rewritten)",
            RuntimeWarning,
            stacklevel=3,
        )

    def save(self, spec: ScenarioSpec, payload: dict, meta: dict | None = None) -> Path:
        """Persist ``payload`` for ``spec``; returns the written path."""
        with obs.span("store.save", name=spec.name):
            return self._save(spec, payload, meta)

    def _save(self, spec: ScenarioSpec, payload: dict, meta: dict | None) -> Path:
        obs.add("repro_store_writes_total")
        self.root.mkdir(parents=True, exist_ok=True)
        key = spec_key(spec)
        document = {
            "key": key,
            "name": spec.name,
            "kind": spec.kind,
            "spec": spec_dict(spec),
            "meta": meta or {},
            "payload": payload,
        }
        path = self._path(key)
        # Atomic publish via a per-writer scratch file: a concurrent reader
        # never sees a half-written document, and two concurrent writers of
        # the same spec each publish a complete one (last replace wins).
        handle, scratch = tempfile.mkstemp(
            dir=self.root, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(json.dumps(document, sort_keys=True, indent=2) + "\n")
            os.replace(scratch, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(scratch)
            raise
        return path

    def entries(self) -> list[dict]:
        """Summaries (name, kind, key, meta, size, mtime) of every artifact.

        ``size_bytes`` and ``modified`` (epoch seconds) come from the
        filesystem, so housekeeping (``python -m repro store ls`` / ``gc``)
        works without parsing payloads; unreadable files are skipped.
        """
        if not self.root.exists():
            return []
        summaries = []
        for path in sorted(self.root.glob("*.json")):
            try:
                stat = path.stat()
                document = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                continue
            summaries.append(
                {
                    "name": document.get("name"),
                    "kind": document.get("kind"),
                    "key": document.get("key"),
                    "meta": document.get("meta", {}),
                    "path": str(path),
                    "size_bytes": stat.st_size,
                    "modified": stat.st_mtime,
                }
            )
        return summaries

    @staticmethod
    def _recency(entry: dict) -> tuple:
        """Total order on entries: mtime, then key, then path.

        Filesystem mtimes have coarse granularity (a second on some mounts),
        so two artifacts written back-to-back routinely share one.  The
        content-hash key (and, belt-and-braces, the path) breaks the tie, so
        :meth:`latest_index` and :meth:`gc` pick the same winner on every
        platform and directory-walk order.
        """
        return (entry["modified"], entry["key"] or "", entry["path"])

    def latest_index(self) -> dict[str, dict]:
        """Scenario name → its most recently written entry.

        The content-addressed layout keeps every historical key of a scenario
        (each spec change writes a new file); this view answers "what is the
        current result for NAME" by modification time, with equal mtimes
        broken deterministically (:meth:`_recency`).
        """
        index: dict[str, dict] = {}
        for entry in self.entries():
            name = entry["name"]
            current = index.get(name)
            if current is None or self._recency(entry) > self._recency(current):
                index[name] = entry
        return index

    def gc(self, keep_latest: int = 1) -> list[dict]:
        """Delete superseded artifacts, keeping each scenario's newest entries.

        For every scenario name, the ``keep_latest`` most recently modified
        files survive; older keys (stale spec versions that will never be
        looked up again) are removed.  Returns the deleted entries so callers
        can report reclaimed space.  Files that vanish mid-walk (a concurrent
        gc) are counted as already collected.
        """
        if keep_latest < 1:
            raise ValueError(f"gc must keep at least one entry per name, got {keep_latest}")
        by_name: dict[str, list[dict]] = {}
        for entry in self.entries():
            by_name.setdefault(entry["name"], []).append(entry)
        deleted = []
        for entries in by_name.values():
            entries.sort(key=self._recency, reverse=True)
            for entry in entries[keep_latest:]:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(entry["path"])
                    deleted.append(entry)
        return deleted


def _jsonified_spec(spec: ScenarioSpec) -> dict:
    """The spec as it reads back from JSON (tuples become lists, int keys str)."""
    return json.loads(json.dumps(spec_dict(spec)))


def default_store(root: str | Path | None = None) -> ArtifactStore:
    """Build the store at ``root`` / ``$REPRO_STORE_DIR`` / ``results/store``."""
    if root is None:
        root = os.environ.get(STORE_ENV_VAR, "").strip() or DEFAULT_STORE_DIR
    return ArtifactStore(root=Path(root))
