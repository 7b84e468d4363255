"""The sharded parallel scenario runner.

``run_scenario`` turns a declarative :class:`~repro.scenarios.spec.ScenarioSpec`
into results, with three guarantees:

1. **Worker-count invariance.**  A scenario is *planned* into shard tasks
   whose layout depends only on the spec (``ceil(samples / shard_samples)``
   shards per comparison case, ``ceil(n_replicas / shard_replicas)`` replica
   chunks per batch case study, one task per schedule for the scalar
   oracle).  Every shard derives its own RNG stream statelessly from the
   spec seed and its position (:func:`repro.utils.seeding.derive_rng` spawn
   keys), and shard results are merged in plan order — so ``workers=1`` and
   ``workers=8`` produce bit-identical payloads.
2. **Parallelism without protocol.**  Shard tasks are plain picklable
   dataclasses executed by a module-level function, fanned out over a
   :class:`concurrent.futures.ProcessPoolExecutor`; no shared state, no
   ordering assumptions (``Executor.map`` preserves plan order regardless of
   completion order).
3. **Free repeats.**  With an :class:`~repro.runner.store.ArtifactStore`,
   an unchanged spec is a content-hash cache hit and returns without
   simulating; ``force=True`` recomputes and overwrites.

The per-kind planning/execution/merging lives in the ``_plan_*`` /
``_execute_*`` / ``_merge_*`` trios below; adding a scenario kind means
adding one trio and a dispatch entry.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from repro import obs
from repro.core.exceptions import ExperimentError
from repro.engine import DEFAULT_ENGINE, get_engine
from repro.engine.base import count_memo_lookups
from repro.runner.store import ArtifactStore
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import (
    CaseStudyScenario,
    ComparisonScenario,
    FigureScenario,
    OptimizationScenario,
    ScenarioSpec,
    schedule_from_spec,
    shard_count,
    shard_sizes,
    spec_key,
)
from repro.utils.seeding import derive_rng

__all__ = [
    "ShardTask",
    "ScenarioRun",
    "comparison_stats_row",
    "execute_task",
    "merge_outcomes",
    "plan_tasks",
    "resolve_spec_engine",
    "run_scenario",
]


@dataclass(frozen=True)
class ShardTask:
    """One unit of scenario work, picklable across worker processes.

    ``index`` is the task's position in the plan — the merge order — and
    ``params`` carries the kind-specific coordinates (e.g. ``(case_index,
    shard_index, shard_samples)`` for a comparison shard).  The RNG stream
    is *not* carried: workers rebuild it from the spec seed and the
    coordinates, which is what keeps execution order irrelevant.
    """

    spec: ScenarioSpec
    index: int
    params: tuple = ()


@dataclass(frozen=True)
class ScenarioRun:
    """Outcome of :func:`run_scenario`: payload plus provenance."""

    spec: ScenarioSpec
    key: str
    payload: dict
    cached: bool
    shards: int
    workers: int
    elapsed_seconds: float
    store_path: str | None = field(default=None)


# --------------------------------------------------------------------------
# comparison scenarios


def _plan_comparison(spec: ComparisonScenario) -> list[ShardTask]:
    tasks = []
    for case_index in range(len(spec.cases)):
        for shard_index, samples in enumerate(shard_sizes(spec.samples, spec.shard_samples)):
            tasks.append(
                ShardTask(spec=spec, index=len(tasks), params=(case_index, shard_index, samples))
            )
    return tasks


def comparison_stats_row(result) -> dict:
    """Reduce one :class:`~repro.engine.base.RoundsResult` to its shard row.

    The sufficient statistics a comparison merge consumes — the merge only
    ever reduces to means and fractions, and the per-shard sums are combined
    in plan order, so payloads stay worker-count invariant while shard IPC
    drops from megabytes to bytes.  Public because the serving layer
    (:mod:`repro.serve`) produces ``RoundsResult`` values through the batch
    collator and must reduce them with *exactly* the runner's arithmetic to
    keep served payloads bit-identical to ``python -m repro run`` artifacts.
    """
    valid = result.valid
    row = {
        "schedule": result.schedule_name,
        "samples": result.samples,
        "valid": int(np.count_nonzero(valid)),
        "width_sum": float(result.widths[valid].sum()),
        "detected": int(np.count_nonzero(result.attacker_detected)),
        # One count per sensor column over the valid rows: each column is
        # contiguous when `flagged` is a sensor-major buffer's `.T` view.
        "flagged_counts": [int(np.count_nonzero(column & valid)) for column in result.flagged.T],
    }
    if result.channel_dropped is not None:
        # Channel counters only appear on lossy runs, so channel-free
        # scenario payloads stay byte-identical to pre-channel builds.
        row["channel_dropped"] = int(result.channel_dropped.sum())
        row["channel_retransmits"] = int(result.channel_retransmits.sum())
    return row


def _execute_comparison(task: ShardTask) -> list[dict]:
    spec: ComparisonScenario = task.spec
    case_index, shard_index, samples = task.params
    case = spec.cases[case_index]
    engine = get_engine(spec.engine)
    config = case.comparison_config()
    faults = case.faults()
    # One stream per (case, shard), consumed by the schedules sequentially —
    # the same convention as Engine.compare, so a single-shard scenario
    # reproduces an engine.compare call exactly.
    rng = derive_rng(spec.seed, case_index, shard_index)
    return [
        comparison_stats_row(
            engine.run_rounds(config, schedule, case.attack, faults, samples, rng, case.channel)
        )
        for schedule in case.schedule_objects()
    ]


def _merge_comparison(spec: ComparisonScenario, outcomes: list[list[dict]]) -> dict:
    tasks_per_case = shard_count(spec.samples, spec.shard_samples)
    cases = []
    for case_index, case in enumerate(spec.cases):
        shard_rows = outcomes[case_index * tasks_per_case : (case_index + 1) * tasks_per_case]
        rows = []
        # Rows merge by schedule *position*, never by name: two distinct
        # fixed/trust-aware schedules share a display name but stay separate.
        for position, schedule_name in enumerate(row["schedule"] for row in shard_rows[0]):
            shards = [shard[position] for shard in shard_rows]
            samples = sum(shard["samples"] for shard in shards)
            valid = sum(shard["valid"] for shard in shards)
            width_sum = sum(shard["width_sum"] for shard in shards)
            flagged_counts = np.sum([shard["flagged_counts"] for shard in shards], axis=0)
            row = {
                "schedule": schedule_name,
                "samples": samples,
                "expected_width": width_sum / valid if valid else float("nan"),
                "valid_fraction": valid / samples,
                "detected_fraction": sum(shard["detected"] for shard in shards) / samples,
                "flagged_fraction_per_sensor": [
                    count / valid if valid else float("nan") for count in flagged_counts
                ],
            }
            if "channel_dropped" in shards[0]:
                row["channel_dropped"] = sum(shard["channel_dropped"] for shard in shards)
                row["channel_retransmits"] = sum(
                    shard["channel_retransmits"] for shard in shards
                )
            rows.append(row)
        merged = {
            "label": case.label,
            "lengths": list(case.lengths),
            "fa": case.fa,
            "f": case.comparison_config().resolved_f,
            "attack": case.attack,
            "fault_probability": case.fault_probability,
            "rows": rows,
        }
        if case.channel is not None:
            merged["channel"] = case.channel.to_dict()
        cases.append(merged)
    return {"kind": spec.kind, "cases": cases}


# --------------------------------------------------------------------------
# case-study scenarios


def _case_study_attacker(spec: CaseStudyScenario):
    """A new attacker for one (shard, schedule) run; ``None`` selects the default proxy."""
    if spec.attacker == "proxy":
        return None
    from repro.batch.expectation import ExactExpectationBatchAttacker

    true_value_positions, placement_positions, grid_positions = spec.expectation_grid
    return ExactExpectationBatchAttacker(
        true_value_positions=true_value_positions,
        placement_positions=placement_positions,
        grid_positions=grid_positions,
    )


def _plan_case_study(spec: CaseStudyScenario) -> list[ShardTask]:
    if spec.attacker == "expectation-grid":
        # The scalar oracle cannot shard replicas; parallelise per schedule
        # with a collision-free derive_rng(seed, schedule_index) stream.
        return [
            ShardTask(spec=spec, index=index, params=("schedule", index))
            for index in range(len(spec.schedules))
        ]
    return [
        ShardTask(spec=spec, index=index, params=("replicas", index, replicas))
        for index, replicas in enumerate(shard_sizes(spec.n_replicas, spec.shard_replicas))
    ]


def _execute_case_study(task: ShardTask) -> list[dict]:
    # The shards call the per-schedule simulators directly, so they report
    # the engine span and sample counter themselves.
    engine = task.spec.engine
    with obs.span("engine.run", engine=engine, kind="case_study"):
        rows = _case_study_shard(task)
    obs.add("repro_engine_samples_total", sum(row["rounds"] for row in rows), engine=engine)
    return rows


def _case_study_shard(task: ShardTask) -> list[dict]:
    spec: CaseStudyScenario = task.spec
    config = spec.case_study_config()
    schedules = [schedule_from_spec(text) for text in spec.schedules]
    if task.params[0] == "schedule":
        from repro.attack.expectation import ExpectationPolicy
        from repro.vehicle.case_study import run_case_study_for_schedule

        schedule_index = task.params[1]
        true_value_positions, placement_positions, grid_positions = spec.expectation_grid

        def policy_factory():
            return ExpectationPolicy(
                true_value_positions=true_value_positions,
                placement_positions=placement_positions,
                grid_positions=grid_positions,
            )

        stats = run_case_study_for_schedule(
            config,
            schedules[schedule_index],
            policy_factory,
            derive_rng(spec.seed, schedule_index),
        )
        return [_stats_dict(schedule_index, stats)]

    from repro.batch.case_study import batch_case_study_for_schedule

    _, shard_index, replicas = task.params
    shard_stats = []
    for schedule_index, schedule in enumerate(schedules):
        attacker = _case_study_attacker(spec)
        stats = batch_case_study_for_schedule(
            config,
            schedule,
            n_replicas=replicas,
            rng=derive_rng(spec.seed, schedule_index, shard_index),
            attacker=attacker,
        )
        shard_stats.append(_stats_dict(schedule_index, stats))
        if attacker is not None:
            # The exact attacker's memo tallies, as rounds_results counts them.
            count_memo_lookups(attacker.policy)
    return shard_stats


def _stats_dict(schedule_index: int, stats) -> dict:
    return {
        "schedule_index": schedule_index,
        "rounds": stats.rounds,
        "upper_violations": stats.upper_violations,
        "lower_violations": stats.lower_violations,
    }


def _merge_case_study(spec: CaseStudyScenario, outcomes: list[list[dict]]) -> dict:
    # Keyed by schedule *position* in the spec, never by display name: two
    # distinct fixed:... schedules both render as "fixed" but must not pool.
    totals = [
        {"rounds": 0, "upper_violations": 0, "lower_violations": 0} for _ in spec.schedules
    ]
    for shard_stats in outcomes:
        for stats in shard_stats:
            row = totals[stats["schedule_index"]]
            row["rounds"] += stats["rounds"]
            row["upper_violations"] += stats["upper_violations"]
            row["lower_violations"] += stats["lower_violations"]
    rows = []
    for text, row in zip(spec.schedules, totals):
        rows.append(
            {
                "schedule": schedule_from_spec(text).name,
                "schedule_spec": text,
                **row,
                "upper_percentage": 100.0 * row["upper_violations"] / row["rounds"],
                "lower_percentage": 100.0 * row["lower_violations"] / row["rounds"],
            }
        )
    return {"kind": spec.kind, "attacker": spec.attacker, "rows": rows}


# --------------------------------------------------------------------------
# figure scenarios


def _plan_figure(spec: FigureScenario) -> list[ShardTask]:
    return [ShardTask(spec=spec, index=0)]


def _execute_figure(task: ShardTask) -> dict:
    from repro.scenarios.figures import FIGURES

    spec: FigureScenario = task.spec
    return FIGURES[spec.figure](derive_rng(spec.seed, 0))


def _merge_figure(spec: FigureScenario, outcomes: list[dict]) -> dict:
    return {"kind": spec.kind, "figure": spec.figure, **outcomes[0]}


# --------------------------------------------------------------------------
# optimization scenarios (strategy logic lives in repro.optimize; the trio
# here only adapts it to the ShardTask protocol)


def _plan_optimization(spec: OptimizationScenario) -> list[ShardTask]:
    from repro.optimize import get_optimizer

    return [
        ShardTask(spec=spec, index=index, params=params)
        for index, params in enumerate(get_optimizer(spec.strategy).plan(spec))
    ]


def _execute_optimization(task: ShardTask) -> dict:
    from repro.optimize import ScheduleEvaluator, get_optimizer

    spec: OptimizationScenario = task.spec
    evaluator = ScheduleEvaluator(spec)
    outcome = get_optimizer(spec.strategy).execute(spec, evaluator, task.params)
    outcome["counters"] = evaluator.counters()
    return outcome


def _merge_optimization(spec: OptimizationScenario, outcomes: list[dict]) -> dict:
    from repro.optimize import assemble_payload

    return assemble_payload(spec, outcomes)


# --------------------------------------------------------------------------
# dispatch + entry point

_PLANNERS = {
    ComparisonScenario.kind: _plan_comparison,
    CaseStudyScenario.kind: _plan_case_study,
    FigureScenario.kind: _plan_figure,
    OptimizationScenario.kind: _plan_optimization,
}

_EXECUTORS = {
    ComparisonScenario.kind: _execute_comparison,
    CaseStudyScenario.kind: _execute_case_study,
    FigureScenario.kind: _execute_figure,
    OptimizationScenario.kind: _execute_optimization,
}

_MERGERS = {
    ComparisonScenario.kind: _merge_comparison,
    CaseStudyScenario.kind: _merge_case_study,
    FigureScenario.kind: _merge_figure,
    OptimizationScenario.kind: _merge_optimization,
}


def plan_tasks(spec: ScenarioSpec) -> list[ShardTask]:
    """The spec's shard plan — a pure function of the spec."""
    planner = _PLANNERS.get(spec.kind)
    if planner is None:
        raise ExperimentError(f"no runner for scenario kind {spec.kind!r}")
    return planner(spec)


def execute_task(task: ShardTask):
    """Execute one shard task (module-level so worker processes can pickle it)."""
    return _EXECUTORS[task.spec.kind](task)


def execute_task_traced(task: ShardTask):
    """Traced twin of :func:`execute_task`: ``(outcome, telemetry snapshot)``.

    The telemetry scope is opened *inside* this function, so per-shard spans
    and metrics are collected identically whether the call runs in a pool
    worker (where the parent's thread-local scope never propagates) or
    in-process on the ``workers=1`` path — that symmetry is what makes the
    merged trace worker-count-invariant.  Module-level so worker processes
    can pickle it; the returned snapshot is plain picklable data.
    """
    with obs.collect() as session:
        with obs.span("runner.shard", index=task.index, kind=task.spec.kind):
            outcome = _EXECUTORS[task.spec.kind](task)
        snapshot = session.snapshot()
    return outcome, snapshot


def merge_outcomes(spec: ScenarioSpec, outcomes: list) -> dict:
    """Merge plan-ordered shard outcomes into the scenario payload.

    The exact reduction :func:`run_scenario` applies; public so alternative
    executors (the serving layer routes comparison shards through a batch
    collator instead of a process pool) can reuse the arithmetic and stay
    bit-identical to CLI artifacts.  ``outcomes`` must align with
    :func:`plan_tasks` order.
    """
    merger = _MERGERS.get(spec.kind)
    if merger is None:
        raise ExperimentError(f"no runner for scenario kind {spec.kind!r}")
    return merger(spec, outcomes)


def resolve_spec_engine(spec: ScenarioSpec) -> ScenarioSpec:
    """Pin the default backend into a comparison/optimization spec.

    Applied *before* hashing, so ``engine=None`` and
    ``engine=DEFAULT_ENGINE`` share one store entry and a change of default
    could never serve another backend's numbers under an old key.
    Case-study specs (whose engines are validated fields) and explicitly
    pinned specs pass through unchanged.
    """
    if spec.engine is None and spec.kind in (
        ComparisonScenario.kind,
        OptimizationScenario.kind,
    ):
        return dataclasses.replace(spec, engine=DEFAULT_ENGINE)
    return spec


def run_scenario(
    scenario: str | ScenarioSpec,
    workers: int = 1,
    store: ArtifactStore | None = None,
    force: bool = False,
) -> ScenarioRun:
    """Run a scenario (by name or spec), sharded over ``workers`` processes.

    With a ``store``, an unchanged spec is served from its content-addressed
    artifact without re-simulation (``force=True`` recomputes).  The payload
    is bit-identical for any ``workers`` value — see the module docstring
    for why — so cached and fresh runs are interchangeable.
    """
    spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
    if workers < 1:
        raise ExperimentError(f"need at least one worker, got {workers}")
    spec = resolve_spec_engine(spec)
    with obs.span(
        "runner.run_scenario", scenario=spec.name, kind=spec.kind, workers=workers
    ):
        if store is None or force:
            key = spec_key(spec)
        else:
            key, path, document = store.lookup(spec)
            if document is not None:
                return ScenarioRun(
                    spec=spec,
                    key=key,
                    payload=document["payload"],
                    cached=True,
                    shards=int(document.get("meta", {}).get("shards", 0)),
                    workers=0,
                    elapsed_seconds=0.0,
                    store_path=str(path),
                )
        with obs.span("runner.plan", scenario=spec.name):
            tasks = plan_tasks(spec)
        tracing = obs.enabled()
        started = time.perf_counter()
        if workers == 1 or len(tasks) == 1:
            executor = execute_task_traced if tracing else execute_task
            outcomes = [executor(task) for task in tasks]
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
                # Executor.map returns results in submission (= plan/merge) order
                # no matter which worker finishes first.
                outcomes = list(pool.map(execute_task_traced if tracing else execute_task, tasks))
        if tracing:
            # Plan-ordered grafting: shard span trees and metrics land in the
            # parent scope in the same order however many workers ran them.
            outcomes, snapshots = zip(*outcomes) if outcomes else ((), ())
            outcomes = list(outcomes)
            for snapshot in snapshots:
                obs.graft(snapshot)
        with obs.span("runner.merge", scenario=spec.name, shards=len(tasks)):
            payload = merge_outcomes(spec, outcomes)
        elapsed = time.perf_counter() - started
        store_path = None
        if store is not None:
            store_path = str(
                store.save(
                    spec,
                    payload,
                    meta={
                        "shards": len(tasks),
                        "workers": workers,
                        "elapsed_seconds": elapsed,
                        "created_at": datetime.now(timezone.utc).isoformat(),
                    },
                )
            )
    return ScenarioRun(
        spec=spec,
        key=key,
        payload=payload,
        cached=False,
        shards=len(tasks),
        workers=workers,
        elapsed_seconds=elapsed,
        store_path=store_path,
    )
