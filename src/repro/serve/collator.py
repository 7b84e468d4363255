"""Coalesce-while-busy batching of comparison work onto shared engine passes.

The serving layer's throughput comes from one observation: the packed
:meth:`repro.engine.base.Engine.run_many` seam makes ``k`` same-plan
requests cost roughly one engine invocation, and the bit-identity contract
of that seam means coalescing is *invisible* in the payloads.  The
:class:`BatchCollator` is the piece that finds the ``k``: every comparison
shard submitted to the service lands here keyed by its *plan* — engine
backend, comparison configuration, attack spec, fault model and schedule,
everything except the per-request ``(samples, rng)`` pair.

A plan runs at most one engine pass at a time.  A submission for an idle
plan dispatches at once; submissions that arrive while the plan's pass is
running queue up and leave together, up to ``max_batch`` per pass, when it
finishes.  Coalescing therefore happens exactly when the engine is the
bottleneck, and a lone request never waits for company.
``benchmarks/bench_serve.py`` gates the win at ≥3x for 64 concurrent
same-plan clients.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.exceptions import ExperimentError
from repro.engine import get_engine
from repro.obs import Registry
from repro.scenarios.spec import ComparisonCase, schedule_from_spec

__all__ = ["BatchCollator", "plan_key"]


def plan_key(engine: str, case: ComparisonCase, schedule: str) -> tuple:
    """The coalescing key: everything about a shard except ``(samples, rng)``.

    Two submissions with equal plan keys describe the same physics — same
    backend, sensor lengths, attacker counts, attack spec, fault model and
    schedule — and may therefore share one packed ``run_many`` pass.  The
    case ``label`` is deliberately excluded: it names a grid point in
    reports and has no effect on simulation.
    """
    return (
        engine,
        tuple(case.lengths),
        case.fa,
        case.f,
        case.attacked_indices,
        case.attack,
        case.fault_probability,
        case.fault_min_offset_widths,
        case.fault_max_offset_widths,
        case.channel,
        schedule,
    )


class _Submission(NamedTuple):
    """One unit of work: its sample budget, its stream, and its waiter."""

    samples: int
    rng: np.random.Generator
    future: asyncio.Future


@dataclass
class _Plan:
    """A plan key with an engine pass in flight, and the submissions queued
    behind that pass."""

    key: tuple
    engine: str
    case: ComparisonCase
    schedule: str
    queued: list[_Submission] = field(default_factory=list)
    #: The running pass (held here: the loop keeps only a weak reference).
    task: asyncio.Task | None = None


def _fail(batch: list[_Submission], error: BaseException) -> None:
    for submission in batch:
        future = submission.future
        # A closed loop (a pass dropped at shutdown) can run no callback:
        # setting its future would raise "Event loop is closed".
        if not future.done() and not future.get_loop().is_closed():
            future.set_exception(error)


class BatchCollator:
    """Coalesce same-plan comparison shards into packed engine passes.

    Single-threaded asyncio discipline: ``submit`` and the pass bookkeeping
    run on the event loop (no locks); only the engine work leaves the loop,
    on ``executor``.  Each plan key has at most one pass in flight: an idle
    plan dispatches a submission at once, a busy one queues it, and when a
    pass finishes the next takes up to ``max_batch`` of the queue.
    ``max_batch=1`` never coalesces (one submission per pass), which is the
    baseline leg of the serving benchmark.
    """

    def __init__(
        self,
        max_batch: int = 64,
        executor=None,
        registry: Registry | None = None,
    ) -> None:
        if max_batch < 1:
            raise ExperimentError(f"max_batch must be at least 1, got {max_batch}")
        self.max_batch = int(max_batch)
        #: Where the blocking engine passes run.  ``None`` uses the loop's
        #: default executor; the service installs a dedicated pool so engine
        #: work can never be starved by (or starve) other ``to_thread``
        #: users sharing the loop.
        self.executor = executor
        self._busy: dict[tuple, _Plan] = {}
        #: Coalescing accounting lives on a ``repro.obs`` registry — the
        #: service passes its own so one ``/v1/metrics`` exposition covers
        #: both layers; a standalone collator gets a private one.
        self.registry = registry if registry is not None else Registry()
        self._requests = self.registry.counter("repro_collator_requests_total")
        self._batches = self.registry.counter("repro_collator_batches_total")
        self._max_batch_observed = self.registry.gauge("repro_collator_max_batch_observed")

    @property
    def requests(self) -> int:
        """Submissions accepted (one per shard×schedule awaited on us)."""
        return int(self._requests.value)

    @property
    def batches(self) -> int:
        """Packed engine passes dispatched; ``requests - batches`` is the
        number of engine invocations coalescing saved."""
        return int(self._batches.value)

    @property
    def max_batch_observed(self) -> int:
        """Largest batch dispatched so far."""
        return int(self._max_batch_observed.value)

    async def submit(
        self,
        engine: str,
        case: ComparisonCase,
        schedule: str,
        samples: int,
        rng: np.random.Generator,
    ):
        """Queue one ``(samples, rng)`` unit of ``plan_key(engine, case,
        schedule)`` work; resolves to its :class:`~repro.engine.base.RoundsResult`.

        The result is bit-identical to
        ``get_engine(engine).run_rounds(case..., samples, rng)`` no matter
        how many other submissions share the pass (the ``run_many``
        contract).
        """
        future = asyncio.get_running_loop().create_future()
        submission = _Submission(int(samples), rng, future)
        self._requests.inc()
        key = plan_key(engine, case, schedule)
        plan = self._busy.get(key)
        if plan is None:
            plan = self._busy[key] = _Plan(key, engine, case, schedule)
            self._dispatch(plan, [submission])
        else:
            plan.queued.append(submission)
        return await future

    def _dispatch(self, plan: _Plan, batch: list[_Submission]) -> None:
        self._batches.inc()
        self._max_batch_observed.set_max(len(batch))
        plan.task = asyncio.get_running_loop().create_task(self._run_pass(plan, batch))

    async def _run_pass(self, plan: _Plan, batch: list[_Submission]) -> None:
        """Run one pass, settle its waiters, then start the next pass or go idle."""
        try:
            results = await asyncio.get_running_loop().run_in_executor(
                self.executor, self._simulate, plan, batch
            )
        except Exception as error:  # noqa: BLE001 — every waiter must learn of it
            _fail(batch, error)
        except BaseException as error:
            # Cancelled (the loop is closing) or interrupted: the queued
            # waiters fail with this pass rather than start another one.
            del self._busy[plan.key]
            _fail(batch + plan.queued, error)
            raise
        else:
            for submission, result in zip(batch, results):
                if not submission.future.done():  # a waiter may have been cancelled meanwhile
                    submission.future.set_result(result)
        # A waiter cancelled while queued needs no pass.
        queued = [submission for submission in plan.queued if not submission.future.done()]
        if not queued:
            del self._busy[plan.key]
            return
        plan.queued = queued[self.max_batch :]
        self._dispatch(plan, queued[: self.max_batch])

    @staticmethod
    def _simulate(plan: _Plan, batch: list[_Submission]):
        """The blocking engine pass (runs on a worker thread)."""
        return get_engine(plan.engine).run_many(
            plan.case.comparison_config(),
            schedule_from_spec(plan.schedule),
            plan.case.attack,
            plan.case.faults(),
            budgets=[submission.samples for submission in batch],
            rngs=[submission.rng for submission in batch],
            channel=plan.case.channel,
        )

    def stats(self) -> dict:
        """Counters for ``/v1/metrics`` and the coalescing assertions in tests."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "coalesced": self.requests - self.batches,
            "max_batch_observed": self.max_batch_observed,
            "max_batch": self.max_batch,
        }
