"""The ``report perf`` view: per-layer timing/throughput from trace artifacts.

A trace artifact is the JSONL file written by ``python -m repro run NAME
--trace out.jsonl`` (schema in :mod:`repro.obs.trace`).  This module loads
it back, aggregates the span tree by span name — mapping the dotted prefix
to an execution layer (``runner.*``, ``engine.*``, ``store.*``,
``optimize.*``, ``serve.*``) — and renders a monospace table alongside the
recorded counters and histogram quantiles:

    $ python -m repro run table1-row4 --trace out.jsonl
    $ python -m repro report perf --trace out.jsonl

The payload is JSON-able (``--json`` prints it raw), so the same artifact
feeds dashboards and the tuning workflow described in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import math
import os
from typing import Iterable, Mapping

from repro.analysis.report import format_table
from repro.core.exceptions import ExperimentError
from repro.obs.metrics import Histogram

__all__ = ["load_trace", "build_perf_report", "render_perf_report"]


def load_trace(path) -> list[dict]:
    """Read a JSONL trace artifact; :class:`ExperimentError` on bad input."""
    if not path:
        raise ExperimentError(
            "report perf reads a trace artifact: pass --trace PATH "
            "(record one with `python -m repro run NAME --trace PATH`)"
        )
    if not os.path.exists(path):
        raise ExperimentError(
            f"trace artifact {path!r} does not exist "
            "(record one with `python -m repro run NAME --trace PATH`)"
        )
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ExperimentError(f"trace artifact {path!r} line {number} is not JSON: {error}") from error
            if not isinstance(record, Mapping) or "kind" not in record:
                raise ExperimentError(f"trace artifact {path!r} line {number} has no 'kind' field")
            records.append(dict(record))
    if not records:
        raise ExperimentError(f"trace artifact {path!r} is empty")
    return records


def _layer(name: str) -> str:
    return name.split(".", 1)[0] if "." in name else "other"


def _duration(node: Mapping) -> float:
    return float(node.get("duration_s") or 0.0)


def _walk(spans: Iterable[Mapping], table: dict) -> None:
    """Fold spans into per-name rows.

    ``total_s`` sums each span's whole duration, so a name that nests in
    itself or in another row's span is counted in both; ``self_s`` sums each
    span's duration minus its children's, so the ``self_s`` column adds up
    to the root spans' duration.
    """
    for node in spans:
        row = table.setdefault(
            node["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
        )
        duration = _duration(node)
        children = node.get("children", ())
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - sum(_duration(child) for child in children)
        row["max_s"] = max(row["max_s"], duration)
        _walk(children, table)


def _outermost_seconds(spans: Iterable[Mapping], name: str) -> float:
    """Total duration of the ``name`` spans not nested in another ``name`` span.

    The phases inside ``engine.run`` (prepare, attack, fuse, ...) are part of
    its duration, so summing them too would count engine time twice.
    """
    total = 0.0
    for node in spans:
        if node["name"] == name:
            total += _duration(node)
        else:
            total += _outermost_seconds(node.get("children", ()), name)
    return total


def build_perf_report(path) -> dict:
    """Aggregate a trace artifact into the ``report perf`` payload."""
    records = load_trace(path)
    meta = next((r for r in records if r["kind"] == "meta"), {})
    roots = [r["span"] for r in records if r["kind"] == "span"]
    spans: dict[str, dict] = {}
    _walk(roots, spans)
    counters = [r for r in records if r["kind"] == "counter"]
    gauges = [r for r in records if r["kind"] == "gauge"]
    histograms = []
    for row in (r for r in records if r["kind"] == "histogram"):
        histogram = Histogram(row["name"], row["labels"], bounds=row["bounds"])
        histogram.counts = [int(c) for c in row["counts"]]
        histogram.count = int(row["count"])
        histogram.total = float(row["sum"])
        quantiles = {
            q: histogram.quantile(q) if histogram.count else math.nan for q in (0.5, 0.95, 0.99)
        }
        histograms.append(
            {
                "name": row["name"],
                "labels": row["labels"],
                "count": histogram.count,
                "mean_ms": (histogram.total / histogram.count * 1e3) if histogram.count else math.nan,
                "p50_ms": quantiles[0.5] * 1e3,
                "p95_ms": quantiles[0.95] * 1e3,
                "p99_ms": quantiles[0.99] * 1e3,
            }
        )

    samples = sum(
        float(row["value"]) for row in counters if row["name"] == "repro_engine_samples_total"
    )
    engine_seconds = _outermost_seconds(roots, "engine.run")
    span_rows = [
        {
            "span": name,
            "layer": _layer(name),
            "count": stats["count"],
            "total_s": stats["total_s"],
            "self_s": stats["self_s"],
            "mean_ms": stats["total_s"] / stats["count"] * 1e3,
            "max_ms": stats["max_s"] * 1e3,
        }
        for name, stats in sorted(spans.items(), key=lambda item: -item[1]["total_s"])
    ]
    return {
        "kind": "report",
        "report": "perf",
        "meta": {k: v for k, v in meta.items() if k != "kind"},
        "spans": span_rows,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "throughput": {
            "samples": samples,
            "engine_seconds": engine_seconds,
            "samples_per_second": samples / engine_seconds if engine_seconds else math.nan,
        },
    }


def _fmt(value: float, digits: int = 3) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "-"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return f"{value:.{digits}f}"


def render_perf_report(payload: Mapping) -> str:
    """Human-readable rendering of :func:`build_perf_report`'s payload."""
    sections = []
    if payload["spans"]:
        sections.append(
            format_table(
                ["span", "layer", "count", "total s", "self s", "mean ms", "max ms"],
                [
                    [
                        row["span"],
                        row["layer"],
                        row["count"],
                        _fmt(row["total_s"]),
                        _fmt(row["self_s"]),
                        _fmt(row["mean_ms"]),
                        _fmt(row["max_ms"]),
                    ]
                    for row in payload["spans"]
                ],
                title="per-span timings",
            )
        )
    if payload["counters"] or payload["gauges"]:
        sections.append(
            format_table(
                ["metric", "labels", "value"],
                [
                    [
                        row["name"],
                        ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items())) or "-",
                        _fmt(float(row["value"]), 0),
                    ]
                    for row in [*payload["counters"], *payload["gauges"]]
                ],
                title="counters and gauges",
            )
        )
    if payload["histograms"]:
        sections.append(
            format_table(
                ["histogram", "labels", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms"],
                [
                    [
                        row["name"],
                        ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items())) or "-",
                        row["count"],
                        _fmt(row["mean_ms"]),
                        _fmt(row["p50_ms"]),
                        _fmt(row["p95_ms"]),
                        _fmt(row["p99_ms"]),
                    ]
                    for row in payload["histograms"]
                ],
                title="latency histograms",
            )
        )
    throughput = payload["throughput"]
    sections.append(
        "throughput: "
        f"{_fmt(throughput['samples'], 0)} samples in "
        f"{_fmt(throughput['engine_seconds'])} engine-seconds"
        + (
            f" ({_fmt(throughput['samples_per_second'], 0)} samples/s)"
            if throughput["samples"] and throughput["engine_seconds"]
            else ""
        )
    )
    return "\n\n".join(sections)
