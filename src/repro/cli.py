"""``python -m repro`` — the single entry point reproducing the paper.

Six subcommands over the scenario subsystem (``docs/SCENARIOS.md``), each a
thin shell over the :mod:`repro.api` facade:

* ``python -m repro list [--tag TAG] [--kind KIND] [--json]`` — the
  registered scenario catalogue;
* ``python -m repro run NAME... [--engine E] [--workers N] [--force]
  [--store DIR] [--json]`` — run scenarios through the sharded parallel
  runner; results land in the content-addressed artifact store, so an
  unchanged spec is a cache hit and reruns are free;
* ``python -m repro optimize NAME [--strategy S] [...]`` — schedule search
  (``docs/OPTIMIZATION.md``): resolve NAME to an optimization scenario
  (``table1-row4`` finds ``optimize-table1-row4``; single-case comparison
  scenarios derive one) and report the best-found transmission order
  against the paper's fixed baselines;
* ``python -m repro report NAME [...]`` — render a scenario's (cached or
  freshly computed) payload as tables, plus derived cross-scenario reports:
  ``table2-exact-vs-proxy`` (the exact problem (2) attacker versus the
  vectorized proxy on the Table II case study) and ``experiments`` (the
  whole evaluation backbone from stored artifacts — the source of
  ``EXPERIMENTS.md``);
* ``python -m repro serve [--host H] [--port P] [--max-wait-ms W]
  [--max-batch B] [--store DIR]`` — fusion-as-a-service: the asyncio HTTP
  server with dynamic request batching (``docs/SERVING.md``);
* ``python -m repro store ls|gc`` — artifact-store housekeeping: list each
  scenario's latest artifact, collect superseded keys.

Every flag keeps the determinism contract: ``--workers`` changes wall-clock
time, never results; ``--engine`` derives a *new* spec (different content
hash) rather than mutating the stored one; serving coalesces work without
changing a single payload byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Sequence

from repro import api, obs
from repro.analysis.experiments import TABLE1_CONFIGURATIONS, table1_row_name
from repro.analysis.report import format_table
from repro.core.exceptions import ExperimentError
from repro.runner import ArtifactStore, ScenarioRun, default_store
from repro.scenarios import (
    available_scenarios,
    get_scenario,
    list_scenarios,
    near_misses,
    spec_dict,
    spec_key,
)

__all__ = ["main", "report_experiments", "report_table2_exact_vs_proxy"]


def _render_comparison(payload: dict) -> str:
    blocks = []
    for case in payload["cases"]:
        lossy = case.get("channel") is not None
        rows = [
            [
                row["schedule"],
                f"{row['expected_width']:.4f}",
                f"{row['detected_fraction']:.4f}",
                f"{row['valid_fraction']:.4f}",
                str(row["samples"]),
            ]
            + ([str(row["channel_dropped"]), str(row["channel_retransmits"])] if lossy else [])
            for row in case["rows"]
        ]
        title = (
            f"{case['label']} — L={tuple(case['lengths'])}, fa={case['fa']}, "
            f"f={case['f']}, attack={case['attack']}"
        )
        if case.get("fault_probability"):
            title += f", fault p={case['fault_probability']:g}"
        if lossy:
            channel = case["channel"]
            title += f", channel={channel['model']}"
        headers = ["schedule", "expected width", "detected", "valid", "samples"]
        if lossy:
            headers += ["dropped", "retransmits"]
        blocks.append(format_table(headers, rows, title=title))
    return "\n\n".join(blocks)


def _render_case_study(payload: dict) -> str:
    rows = [
        [
            row["schedule"],
            f"{row['upper_percentage']:.2f}%",
            f"{row['lower_percentage']:.2f}%",
            str(row["rounds"]),
        ]
        for row in payload["rows"]
    ]
    return format_table(
        ["schedule", "above v+δ1", "below v-δ2", "rounds"],
        rows,
        title=f"Table II case study — attacker: {payload['attacker']}",
    )


def _render_figure(payload: dict) -> str:
    blocks = [
        format_table(table["headers"], table["rows"], title=table.get("title", ""))
        for table in payload.get("tables", ())
    ]
    if "ascii" in payload:
        blocks.append(payload["ascii"])
    return "\n\n".join(blocks) if blocks else json.dumps(payload, indent=2, sort_keys=True)


def _render_optimization(payload: dict) -> str:
    case = payload["case"]
    title = (
        f"Schedule search ({payload['strategy']}) — {case['label']}: "
        f"L={tuple(case['lengths'])}, fa={case['fa']}, f={case['f']}, "
        f"attack={case['attack']}"
    )
    baseline_rows = [
        [
            row["schedule_spec"],
            row["schedule"],
            f"{row['expected_width']:.4f}",
            f"{row['detected_fraction']:.4f}",
        ]
        for row in payload["baselines"]
    ]
    top_rows = [
        [
            str(rank + 1),
            row["schedule"],
            f"{row['expected_width']:.4f}",
            f"{row['detected_fraction']:.4f}",
            str(row["samples"]),
        ]
        for rank, row in enumerate(payload["rows"][:10])
    ]
    improvement = payload["improvement"]
    summary = (
        f"best {payload['best']['schedule']} at width "
        f"{payload['best']['expected_width']:.4f} — "
        f"{improvement['width_reduction']:.4f} ({improvement['percent']:.2f}%) below the "
        f"best baseline {improvement['best_baseline_spec']!r} "
        f"[{payload['evaluated_candidates']}/{payload['distinct_schedules']} distinct "
        f"schedules measured at {payload['samples_per_candidate']} samples each]"
    )
    return "\n\n".join(
        [
            format_table(
                ["baseline", "canonical", "expected width", "detected"],
                baseline_rows,
                title=title,
            ),
            format_table(
                ["rank", "schedule", "expected width", "detected", "samples"],
                top_rows,
                title="best candidates"
                + (" (truncated)" if payload["rows_truncated"] or len(payload["rows"]) > 10 else ""),
            ),
            summary,
        ]
    )


_RENDERERS = {
    "comparison": _render_comparison,
    "case-study": _render_case_study,
    "figure": _render_figure,
    "optimization": _render_optimization,
}


def render_payload(payload: dict) -> str:
    """Human-readable rendering of a scenario payload (tables)."""
    renderer = _RENDERERS.get(payload.get("kind"))
    if renderer is None:
        return json.dumps(payload, indent=2, sort_keys=True)
    return renderer(payload)


def _run_dict(run: ScenarioRun) -> dict:
    return {
        "name": run.spec.name,
        "key": run.key,
        "cached": run.cached,
        "shards": run.shards,
        "workers": run.workers,
        "elapsed_seconds": run.elapsed_seconds,
        "store_path": run.store_path,
        "payload": run.payload,
    }


@contextmanager
def _trace_scope(args: argparse.Namespace, *names: str):
    """Record telemetry for the wrapped command when ``--trace`` is set.

    A no-op without a path; with one, the command body runs inside an
    ``obs.collect()`` scope and the trace artifact is written on success
    (``python -m repro report perf PATH`` reads it back).
    """
    path = getattr(args, "trace", None)
    if not path:
        yield
        return
    with obs.collect() as session:
        yield
        session.write_jsonl(path, meta={"command": args.command, "names": list(names)})
    print(f"trace written to {path}", file=sys.stderr)


def _resolve_spec(name: str, engine: str | None):
    spec = get_scenario(name)
    if engine is not None:
        # A new spec (and therefore a new content hash): engine choice is
        # part of a result's identity, never an in-place mutation.
        spec = dataclasses.replace(spec, engine=engine)
    return spec


def _cmd_list(args: argparse.Namespace) -> int:
    specs = list_scenarios(tag=args.tag, kind=args.kind)
    if args.json:
        entries = [
            {
                "name": spec.name,
                "kind": spec.kind,
                "engine": spec.engine,
                "tags": list(spec.tags),
                "key": spec_key(spec),
                "description": spec.description,
            }
            for spec in specs
        ]
        print(json.dumps({"scenarios": entries}, indent=2, sort_keys=True))
        return 0
    rows = [
        [spec.name, spec.kind, spec.engine or "default", ",".join(spec.tags), spec.description]
        for spec in specs
    ]
    print(
        format_table(
            ["name", "kind", "engine", "tags", "description"],
            rows,
            title=f"{len(rows)} registered scenarios",
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    store = default_store(args.store)
    runs = []
    with _trace_scope(args, *args.names):
        for name in args.names:
            spec = _resolve_spec(name, args.engine)
            run = api.run(spec, workers=args.workers, store=store, force=args.force)
            runs.append(run)
            if not args.json:
                if run.cached:
                    source = "store (cache hit)"
                else:
                    source = f"{run.shards} shard(s) on {run.workers} worker(s) in {run.elapsed_seconds:.2f}s"
                print(f"== {run.spec.name} [{run.key[:12]}] — {source}")
                print(render_payload(run.payload))
                print()
    if args.json:
        print(json.dumps({"results": [_run_dict(run) for run in runs]}, indent=2, sort_keys=True))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    store = default_store(args.store)
    spec = api.resolve_optimization_scenario(args.name)
    if args.engine is not None:
        # Like `repro run --engine`: a new spec (and content hash), never an
        # in-place mutation of the registered one.
        spec = dataclasses.replace(spec, engine=args.engine)
    with _trace_scope(args, spec.name):
        run = api.optimize(
            spec,
            strategy=args.strategy,
            workers=args.workers,
            store=store,
            force=args.force,
        )
    if args.json:
        # The full machine-readable round trip: the embedded spec dict feeds
        # spec_from_dict back to an identical spec (and content key).
        document = _run_dict(run)
        document["spec"] = spec_dict(run.spec)
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    if run.cached:
        source = "store (cache hit)"
    else:
        source = f"{run.shards} shard(s) on {run.workers} worker(s) in {run.elapsed_seconds:.2f}s"
    print(f"== {run.spec.name} [{run.key[:12]}] — {source}")
    print(render_payload(run.payload))
    return 0


def report_table2_exact_vs_proxy(
    store: ArtifactStore, workers: int = 1, force: bool = False
) -> dict:
    """Quantify the proxy attacker's statistics gap on the Table II case study.

    Runs the registered ``table2-exact`` scenario and a proxy twin derived
    from it (identical seed, steps, replicas and shard layout — only the
    attacker differs), so the violation-rate differences measure the
    attacker change alone.  Both legs are served from the artifact store
    when cached.
    """
    exact_spec = get_scenario("table2-exact")
    proxy_spec = dataclasses.replace(
        exact_spec,
        name="table2-exact-proxy-twin",
        description="Proxy-attacker twin of table2-exact (same scale, attacker swapped)",
        attacker="proxy",
    )
    exact = api.run(exact_spec, workers=workers, store=store, force=force)
    proxy = api.run(proxy_spec, workers=workers, store=store, force=force)
    proxy_rows = {row["schedule"]: row for row in proxy.payload["rows"]}
    rows = []
    for exact_row in exact.payload["rows"]:
        proxy_row = proxy_rows[exact_row["schedule"]]
        rows.append(
            {
                "schedule": exact_row["schedule"],
                "exact_upper_percentage": exact_row["upper_percentage"],
                "exact_lower_percentage": exact_row["lower_percentage"],
                "proxy_upper_percentage": proxy_row["upper_percentage"],
                "proxy_lower_percentage": proxy_row["lower_percentage"],
                "upper_gap": exact_row["upper_percentage"] - proxy_row["upper_percentage"],
                "lower_gap": exact_row["lower_percentage"] - proxy_row["lower_percentage"],
            }
        )
    return {
        "kind": "report",
        "report": "table2-exact-vs-proxy",
        "rounds_per_schedule": exact.payload["rows"][0]["rounds"],
        "rows": rows,
    }


def _render_exact_vs_proxy(payload: dict) -> str:
    rows = [
        [
            row["schedule"],
            f"{row['exact_upper_percentage']:.2f} / {row['exact_lower_percentage']:.2f}",
            f"{row['proxy_upper_percentage']:.2f} / {row['proxy_lower_percentage']:.2f}",
            f"{row['upper_gap']:+.2f} / {row['lower_gap']:+.2f}",
        ]
        for row in payload["rows"]
    ]
    return format_table(
        ["schedule", "exact % (upper/lower)", "proxy % (upper/lower)", "gap (pp)"],
        rows,
        title=(
            "Exact problem (2) attacker vs the vectorized proxy — Table II, "
            f"{payload['rounds_per_schedule']} rounds per schedule"
        ),
    )


#: The backbone of ``EXPERIMENTS.md``: every Table I row under the greedy
#: stretch attacker, the exact-attacker rerun, and the three Table II legs.
#: (Figure scenarios are deterministic constructions, not measurements, so
#: the experiments document leaves them out.)
EXPERIMENTS_BACKBONE = (
    *(table1_row_name(index) for index in range(len(TABLE1_CONFIGURATIONS))),
    "table1-expectation",
    "table2-proxy",
    "table2-exact",
    "table2-scalar",
)


def report_experiments(store: ArtifactStore, workers: int = 1, force: bool = False) -> dict:
    """The source of ``EXPERIMENTS.md``: every backbone scenario's current artifact.

    For each name in :data:`EXPERIMENTS_BACKBONE` the *newest stored
    artifact* is used as is, whichever engine produced it — so a Table I
    ``python -m repro run NAME --engine scalar`` refresh flows into the
    regenerated document under its own key with the same payload bytes.
    Only scenarios absent from the store are computed, at their registered
    spec; ``force=True`` recomputes everything.
    """
    from pathlib import Path

    latest = {} if force else store.latest_index()
    sections = []
    for name in EXPERIMENTS_BACKBONE:
        document = None
        entry = latest.get(name)
        if entry is not None:
            try:
                document = json.loads(Path(entry["path"]).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                document = None
        if document is not None and "payload" in document:
            meta = document.get("meta", {})
            sections.append(
                {
                    "name": name,
                    "key": document.get("key"),
                    "cached": True,
                    "engine": (document.get("spec") or {}).get("engine") or "default",
                    "created_at": meta.get("created_at"),
                    "payload": document["payload"],
                }
            )
        else:
            run = api.run(get_scenario(name), workers=workers, store=store, force=force)
            sections.append(
                {
                    "name": name,
                    "key": run.key,
                    "cached": run.cached,
                    "engine": run.spec.engine or "default",
                    "created_at": None,
                    "payload": run.payload,
                }
            )
    return {"kind": "report", "report": "experiments", "sections": sections}


def _render_experiments(payload: dict) -> str:
    lines = [
        "# Experiments",
        "",
        "Measured results for the paper's evaluation backbone, regenerated",
        "from the content-addressed artifact store with:",
        "",
        "```bash",
        "python -m repro report experiments > EXPERIMENTS.md",
        "```",
        "",
        "Each section renders the scenario name's *current* stored artifact —",
        "whichever engine produced it, so `python -m repro run NAME --engine",
        "scalar` refreshes a Table I section under a new",
        "key with bit-identical numbers.  Scenarios missing from the store are",
        "computed on the spot at their registered spec.  Paper reference",
        "numbers are quoted in the scenario descriptions (`python -m repro",
        "list`); `repro.analysis.experiments` is their source of truth.",
        "",
        "| scenario | engine | artifact key | computed at |",
        "|---|---|---|---|",
    ]
    for section in payload["sections"]:
        lines.append(
            f"| {section['name']} | {section['engine']} | "
            f"`{(section['key'] or '?')[:12]}` | {section['created_at'] or 'this run'} |"
        )
    for section in payload["sections"]:
        lines += [
            "",
            f"## {section['name']}",
            "",
            "```",
            render_payload(section["payload"]).rstrip(),
            "```",
        ]
    return "\n".join(lines)


#: Derived cross-scenario reports: name -> (builder, renderer).
_REPORTS = {
    "experiments": (report_experiments, _render_experiments),
    "table2-exact-vs-proxy": (report_table2_exact_vs_proxy, _render_exact_vs_proxy),
}


def _cmd_report(args: argparse.Namespace) -> int:
    store = default_store(args.store)
    if args.name == "perf":
        # `report perf` *reads* the --trace artifact recorded by an earlier
        # `run --trace PATH`, so it is resolved before the scenario/report
        # namespaces (and --trace here is an input, not a recording path).
        from repro.obs.report import build_perf_report, render_perf_report

        payload = build_perf_report(args.trace)
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json else render_perf_report(payload))
        return 0
    if args.name in _REPORTS:
        if args.engine is not None:
            raise ExperimentError(
                f"derived report {args.name!r} fixes its scenarios' engines; "
                "--engine only applies to plain scenario names"
            )
        builder, renderer = _REPORTS[args.name]
        payload = builder(store, workers=args.workers, force=args.force)
        print(json.dumps(payload, indent=2, sort_keys=True) if args.json else renderer(payload))
        return 0
    if args.name not in available_scenarios():
        # One message covering both namespaces the command accepts, with
        # did-you-mean hints drawn from reports *and* scenarios.
        close = near_misses(args.name, [*_REPORTS, "perf", *available_scenarios()])
        hint = f"; did you mean: {', '.join(close)}?" if close else ""
        raise ExperimentError(
            f"unknown scenario or derived report {args.name!r}{hint} "
            f"(derived reports: {', '.join(sorted([*_REPORTS, 'perf']))}; run "
            "`python -m repro list` for the scenario catalogue)"
        )
    spec = _resolve_spec(args.name, args.engine)
    with _trace_scope(args, spec.name):
        run = api.run(spec, workers=args.workers, store=store, force=args.force)
    print(json.dumps(_run_dict(run), indent=2, sort_keys=True) if args.json else render_payload(run.payload))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    api.serve(
        host=args.host,
        port=args.port,
        store=args.store if args.store else "default",
        max_wait_ms=args.max_wait_ms,
        max_batch=args.max_batch,
        metrics_interval=10.0 if args.metrics else None,
    )
    return 0


def _format_size(size: int) -> str:
    if size >= 1024 * 1024:
        return f"{size / (1024 * 1024):.1f}M"
    if size >= 1024:
        return f"{size / 1024:.1f}K"
    return f"{size}B"


def _format_age(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds >= 86_400:
        return f"{seconds / 86_400:.1f}d"
    if seconds >= 3_600:
        return f"{seconds / 3_600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.0f}m"
    return f"{seconds:.0f}s"


def _cmd_store_ls(args: argparse.Namespace) -> int:
    store = default_store(args.store)
    index = store.latest_index()
    entries = [index[name] for name in sorted(index)]
    total = len(store.entries())
    if args.json:
        print(
            json.dumps(
                {"root": str(store.root), "artifacts": total, "latest": entries},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    now = time.time()
    rows = [
        [
            entry["name"],
            (entry["key"] or "")[:12],
            entry["kind"] or "?",
            _format_size(entry["size_bytes"]),
            _format_age(now - entry["modified"]),
        ]
        for entry in entries
    ]
    print(
        format_table(
            ["name", "latest key", "kind", "size", "age"],
            rows,
            title=f"{store.root} — {total} artifact(s), {len(rows)} scenario name(s)",
        )
    )
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    store = default_store(args.store)
    if args.keep_latest < 1:
        raise ExperimentError(
            f"--keep-latest must be at least 1, got {args.keep_latest}"
        )
    deleted = store.gc(keep_latest=args.keep_latest)
    reclaimed = sum(entry["size_bytes"] for entry in deleted)
    if args.json:
        print(
            json.dumps(
                {
                    "root": str(store.root),
                    "deleted": deleted,
                    "reclaimed_bytes": reclaimed,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    for entry in deleted:
        print(f"deleted {entry['name']} [{(entry['key'] or '')[:12]}] ({_format_size(entry['size_bytes'])})")
    print(
        f"kept the latest {args.keep_latest} per name; "
        f"removed {len(deleted)} artifact(s), reclaimed {_format_size(reclaimed)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the paper's evaluation through the declarative scenario "
            "subsystem (see docs/SCENARIOS.md)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list registered scenarios")
    list_parser.add_argument("--tag", help="only scenarios carrying this tag")
    list_parser.add_argument("--kind", help="only scenarios of this kind")
    list_parser.add_argument("--json", action="store_true", help="machine-readable output")
    list_parser.set_defaults(handler=_cmd_list)

    def add_run_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--engine", help="override the scenario's engine backend")
        sub.add_argument(
            "--workers",
            type=int,
            default=1,
            help="parallel worker processes (results are identical for any value)",
        )
        sub.add_argument("--force", action="store_true", help="recompute even on a cache hit")
        sub.add_argument("--store", help="artifact store directory (default results/store)")
        sub.add_argument("--json", action="store_true", help="machine-readable output")
        sub.add_argument(
            "--trace",
            default=os.environ.get("REPRO_TRACE") or None,
            metavar="PATH",
            help=(
                "record a JSONL telemetry trace of this command to PATH "
                "(render it with `python -m repro report perf --trace PATH`; "
                "default from $REPRO_TRACE)"
            ),
        )

    run_parser = subparsers.add_parser("run", help="run scenarios through the sharded runner")
    run_parser.add_argument("names", nargs="+", metavar="NAME", help="scenario name(s)")
    add_run_options(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    optimize_parser = subparsers.add_parser(
        "optimize",
        help="search a configuration's schedule space (docs/OPTIMIZATION.md)",
    )
    optimize_parser.add_argument(
        "name",
        metavar="NAME",
        help=(
            "optimization scenario, its short name (table1-row4 finds "
            "optimize-table1-row4), or a single-case comparison scenario to derive from"
        ),
    )
    optimize_parser.add_argument(
        "--strategy",
        help="override the search strategy (exhaustive, anneal, bandit)",
    )
    add_run_options(optimize_parser)
    optimize_parser.set_defaults(handler=_cmd_optimize)

    report_parser = subparsers.add_parser(
        "report", help="render a scenario payload or a derived report"
    )
    report_parser.add_argument(
        "name",
        metavar="NAME",
        help=(
            "scenario name or derived report "
            f"({', '.join(sorted([*_REPORTS, 'perf']))}; perf reads a --trace artifact)"
        ),
    )
    add_run_options(report_parser)
    report_parser.set_defaults(handler=_cmd_report)

    serve_parser = subparsers.add_parser(
        "serve", help="run fusion-as-a-service (asyncio HTTP with request batching)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8014, help="TCP port (0 picks one)")
    serve_parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="dynamic-batching window: how long a request waits for same-plan company",
    )
    serve_parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="flush a batch at this many coalesced requests (1 disables coalescing)",
    )
    serve_parser.add_argument("--store", help="artifact store directory (default results/store)")
    serve_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print a one-line counter summary to stderr every 10s "
        "(the /v1/metrics exposition is always on)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    store_parser = subparsers.add_parser("store", help="artifact-store housekeeping")
    store_subparsers = store_parser.add_subparsers(dest="store_command", required=True)
    ls_parser = store_subparsers.add_parser(
        "ls", help="each scenario name's latest artifact (key, size, age)"
    )
    ls_parser.add_argument("--store", help="artifact store directory (default results/store)")
    ls_parser.add_argument("--json", action="store_true", help="machine-readable output")
    ls_parser.set_defaults(handler=_cmd_store_ls)
    gc_parser = store_subparsers.add_parser(
        "gc", help="delete superseded artifacts (older keys of each scenario name)"
    )
    gc_parser.add_argument(
        "--keep-latest",
        type=int,
        default=1,
        help="artifacts to keep per scenario name (newest first, default 1)",
    )
    gc_parser.add_argument("--store", help="artifact store directory (default results/store)")
    gc_parser.add_argument("--json", action="store_true", help="machine-readable output")
    gc_parser.set_defaults(handler=_cmd_store_gc)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error for a CLI.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
