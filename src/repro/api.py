"""The public API facade: one module, four verbs, every execution path.

``repro.api`` is the supported programmatic surface of the repository.  The
layers underneath — engines, scenario registry, sharded runner, artifact
store, serving stack — stay importable for power users, but everything a
typical caller needs is one of four verbs, and the CLI (``python -m
repro``) and the HTTP server (``python -m repro serve``) are both thin
shells over exactly these functions, so library, command line and network
callers cannot drift apart:

* :func:`run` — execute a scenario (registry name or spec) through the
  sharded runner with content-addressed caching; the workhorse.
* :func:`compare` — a Table I style schedule comparison on one
  configuration, without declaring a scenario first; the quick look.
* :func:`optimize` — *search* the schedule space of a configuration
  (:mod:`repro.optimize`): resolve a scenario name to an
  :class:`~repro.scenarios.spec.OptimizationScenario`, optionally swap the
  strategy, and run it through the same cached runner.
* :func:`serve` — fusion-as-a-service: an asyncio HTTP server that
  coalesces same-plan work while the engine is busy (:mod:`repro.serve`),
  plus :func:`create_service` / :func:`create_server` for embedding and
  tests.

The Table II closed-loop platoon case study is a scenario like any other:
``run(dataclasses.replace(get_scenario("table2-proxy"), n_steps=100))``
(``table2-scalar`` for the per-vehicle object-stack oracle).

Store arguments follow one convention everywhere: the string ``"default"``
(the default) resolves through :func:`repro.runner.default_store` —
``results/store`` or ``$REPRO_STORE_DIR`` — a path selects that directory,
an :class:`~repro.runner.ArtifactStore` is used as-is, and ``None`` disables
caching.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.exceptions import ExperimentError
from repro.engine import get_engine
from repro.engine.base import AttackSpec
from repro.runner import ArtifactStore, ScenarioRun, default_store, run_scenario
from repro.scenarios.registry import (
    available_scenarios,
    get_scenario,
    list_scenarios,
    near_misses,
)
from repro.scenarios.spec import (
    ComparisonScenario,
    OptimizationScenario,
    ScenarioSpec,
    schedule_from_spec,
)
from repro.scheduling.comparison import ScheduleComparison, ScheduleComparisonConfig
from repro.scheduling.schedule import Schedule
from repro.serve import FusionServer, FusionService
from repro.utils.seeding import ensure_rng

__all__ = [
    "run",
    "compare",
    "optimize",
    "resolve_optimization_scenario",
    "serve",
    "create_service",
    "create_server",
    "resolve_store",
]


def resolve_store(store: ArtifactStore | str | Path | None) -> ArtifactStore | None:
    """Apply the facade-wide store convention (see the module docstring)."""
    if store is None or isinstance(store, ArtifactStore):
        return store
    if store == "default":
        return default_store()
    return default_store(store)


def run(
    scenario: str | ScenarioSpec,
    *,
    workers: int = 1,
    store: ArtifactStore | str | Path | None = "default",
    force: bool = False,
) -> ScenarioRun:
    """Run a scenario by registry name or spec; results are cached by content.

    A thin, documented alias for :func:`repro.runner.run_scenario` with the
    facade's store convention: unchanged specs are cache hits, ``workers``
    only changes wall-clock time (payloads are worker-count invariant), and
    ``force=True`` recomputes.  To run a registered scenario on a different
    backend, derive a new spec first (``dataclasses.replace(spec,
    engine="scalar")``) — engine choice is part of a result's identity.
    """
    return run_scenario(scenario, workers=workers, store=resolve_store(store), force=force)


def compare(
    lengths: Sequence[float],
    fa: int,
    *,
    f: int | None = None,
    attacked_indices: Sequence[int] | None = None,
    schedules: Sequence[str | Schedule] = ("ascending", "descending"),
    attack: AttackSpec = "stretch",
    samples: int = 10_000,
    engine: str | None = None,
    faults=None,
    rng: np.random.Generator | int | None = None,
) -> ScheduleComparison:
    """Compare schedules on one sensor configuration (Table I style).

    The one-call spelling of the paper's central experiment: sensors of the
    given interval ``lengths``, ``fa`` attacked sensors, each schedule in
    ``schedules`` (spec strings like ``"ascending"`` / ``"fixed:2,0,1"`` /
    ``"trust-aware:0.5,1,2"``, or :class:`~repro.scheduling.schedule.Schedule`
    instances) simulated for ``samples`` Monte-Carlo rounds under the
    engine-route ``attack`` spec.  Schedules share one RNG stream consumed
    in order, so results are reproducible from ``rng`` (a generator or a
    seed) alone.  ``engine`` selects the backend by registry name (default:
    :data:`~repro.engine.base.DEFAULT_ENGINE`).

    For repeated or published numbers, prefer declaring a
    :class:`~repro.scenarios.spec.ComparisonScenario` and calling
    :func:`run` — that path adds sharding, caching and provenance.
    """
    if not schedules:
        raise ExperimentError("compare needs at least one schedule")
    config = ScheduleComparisonConfig(
        lengths=tuple(float(length) for length in lengths),
        fa=fa,
        f=f,
        attacked_indices=tuple(attacked_indices) if attacked_indices is not None else None,
    )
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    schedules = tuple(
        schedule_from_spec(entry) if isinstance(entry, str) else entry for entry in schedules
    )
    return get_engine(engine).compare(
        config,
        schedules,
        samples=samples,
        rng=ensure_rng(rng),
        attack=attack,
        faults=faults,
    )


def resolve_optimization_scenario(
    scenario: str | ScenarioSpec,
) -> OptimizationScenario:
    """Resolve what ``optimize`` was asked to search.

    Accepts, in order of preference:

    * an :class:`~repro.scenarios.spec.OptimizationScenario` (name or spec)
      — used as is;
    * a name whose ``optimize-`` twin is registered (``"table1-row4"`` →
      ``"optimize-table1-row4"``), so the paper rows optimize without extra
      spelling;
    * a registered *single-case* comparison scenario — an
      :class:`OptimizationScenario` is derived from its case at the search
      subsystem's default budgets (the derived spec has its own name and
      content hash; the comparison artifact is untouched).

    Anything else raises with did-you-mean hints over the names that would
    have worked.
    """
    if isinstance(scenario, OptimizationScenario):
        return scenario
    if isinstance(scenario, ScenarioSpec):
        raise ExperimentError(
            f"cannot optimize a {scenario.kind!r} spec directly; pass an "
            "OptimizationScenario (or a registered scenario name)"
        )
    name = scenario
    names = available_scenarios()
    if name in names and isinstance(get_scenario(name), OptimizationScenario):
        return get_scenario(name)
    twin = f"optimize-{name}"
    if twin in names and isinstance(get_scenario(twin), OptimizationScenario):
        return get_scenario(twin)
    if name in names:
        spec = get_scenario(name)
        if isinstance(spec, ComparisonScenario) and len(spec.cases) == 1:
            return OptimizationScenario(
                name=f"optimize-{spec.name}",
                description=f"Schedule search derived from scenario {spec.name!r}",
                engine=spec.engine or "batch",
                seed=spec.seed,
                tags=("optimize", "derived"),
                case=spec.cases[0],
            )
        raise ExperimentError(
            f"scenario {name!r} is kind {spec.kind!r}"
            + (
                f" with {len(spec.cases)} cases"
                if isinstance(spec, ComparisonScenario)
                else ""
            )
            + "; optimize needs an optimization scenario or a single-case "
            "comparison scenario to derive one from"
        )
    searchable = sorted(
        {spec.name for spec in list_scenarios(kind=OptimizationScenario.kind)}
        | {
            spec.name
            for spec in list_scenarios(kind=ComparisonScenario.kind)
            if len(spec.cases) == 1
        }
    )
    close = near_misses(name, searchable)
    hint = f"; did you mean: {', '.join(close)}?" if close else ""
    raise ExperimentError(
        f"unknown scenario {name!r}{hint} (searchable scenarios: "
        "`python -m repro list --kind optimization`, or any single-case "
        "comparison scenario)"
    )


def optimize(
    scenario: str | ScenarioSpec,
    *,
    strategy: str | None = None,
    workers: int = 1,
    store: ArtifactStore | str | Path | None = "default",
    force: bool = False,
) -> ScenarioRun:
    """Search a configuration's schedule space (``python -m repro optimize``).

    Resolves ``scenario`` via :func:`resolve_optimization_scenario`, swaps
    in ``strategy`` if given (a *new* spec and content hash — strategy is
    part of a result's identity, exactly like ``--engine`` on :func:`run`),
    and executes through the cached sharded runner.  The payload reports
    the best-found schedule against the case's baseline orderings; see
    ``docs/OPTIMIZATION.md`` for strategy and budget semantics.
    """
    import dataclasses

    spec = resolve_optimization_scenario(scenario)
    if strategy is not None and strategy != spec.strategy:
        # Validates the strategy name eagerly (did-you-mean on typos).
        spec = dataclasses.replace(spec, strategy=strategy)
    return run_scenario(spec, workers=workers, store=resolve_store(store), force=force)


def create_service(
    *,
    store: ArtifactStore | str | Path | None = "default",
    max_batch: int = 64,
) -> FusionService:
    """Build the transport-independent serving core (see :mod:`repro.serve`)."""
    return FusionService(store=resolve_store(store), max_batch=max_batch)


def create_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8014,
    store: ArtifactStore | str | Path | None = "default",
    max_batch: int = 64,
    service: FusionService | None = None,
) -> FusionServer:
    """Build an (unstarted) HTTP server; ``port=0`` picks a free port.

    The embedding/test entry: ``async with create_server(port=0) as server``
    starts serving and exposes the bound ``server.port``.  Pass ``service``
    to share a pre-built :class:`~repro.serve.FusionService` (e.g. to
    inspect its collator counters from a test).
    """
    if service is None:
        service = create_service(store=store, max_batch=max_batch)
    return FusionServer(service, host=host, port=port)


async def _metrics_reporter(service: FusionService, interval: float) -> None:
    """Print a one-line counter summary to stderr every ``interval`` seconds."""
    while True:
        await asyncio.sleep(interval)
        metrics = service.metrics()
        latency = metrics.get("latency") or {}
        collator = metrics.get("collator") or {}
        line = (
            f"metrics: served={metrics['served']} cache_hits={metrics['cache_hits']} "
            f"deduplicated={metrics['deduplicated']} "
            f"batches={collator.get('batches', 0)}/{collator.get('requests', 0)}"
        )
        if latency.get("count"):
            line += f" p50={latency['p50_ms']:.1f}ms p95={latency['p95_ms']:.1f}ms"
        print(line, file=sys.stderr, flush=True)


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8014,
    store: ArtifactStore | str | Path | None = "default",
    max_batch: int = 64,
    metrics_interval: float | None = None,
) -> None:
    """Run fusion-as-a-service until interrupted (the ``repro serve`` CLI).

    Each plan runs one engine pass at a time: same-plan requests that
    arrive while it runs share the next packed pass (up to ``max_batch`` of
    them) and, per the :meth:`~repro.engine.base.Engine.run_many` contract,
    still receive payloads bit-identical to solo runs.  See
    ``docs/SERVING.md``.

    ``metrics_interval`` (the ``--metrics`` flag) additionally prints a
    one-line counter summary to stderr at that cadence; the full exposition
    is always scrapeable at ``/v1/metrics`` regardless.
    """

    async def _serve() -> None:
        server = create_server(host=host, port=port, store=store, max_batch=max_batch)
        async with server:
            print(
                f"repro fusion service on http://{server.host}:{server.port} "
                f"(max_batch={max_batch})",
                flush=True,
            )
            reporter = None
            if metrics_interval:
                print(
                    f"metrics: http://{server.host}:{server.port}/v1/metrics "
                    f"(summary to stderr every {metrics_interval:g}s)",
                    flush=True,
                )
                reporter = asyncio.create_task(
                    _metrics_reporter(server.service, metrics_interval)
                )
            try:
                await server.serve_forever()
            finally:
                if reporter is not None:
                    reporter.cancel()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
