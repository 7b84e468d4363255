"""The fusion service: validated scenario requests over shared engine passes.

:class:`FusionService` is the transport-independent core of
fusion-as-a-service — the HTTP server (:mod:`repro.serve.http`), the
:func:`repro.api.serve` facade entry and the in-process tests all drive this
one object.  A request is a scenario spec (by registry name or as a
:func:`~repro.scenarios.spec.spec_dict` wire payload); the response carries
the *exact* payload ``python -m repro run`` would store for that spec, plus
serving provenance.  Three layers make repeated work cheap, in lookup
order:

1. **Artifact-store hits** — a previously computed spec answers from its
   content-addressed document without simulating (reads and writes hop to a
   worker thread, so a large-artifact read never stalls the event loop);
2. **In-flight dedup** — concurrent requests for an identical spec key
   attach to the first one's computation and all receive its payload;
3. **Plan coalescing** — comparison shards that are *not* identical but
   share a plan (same physics, different samples/seed) fuse into packed
   :meth:`~repro.engine.base.Engine.run_many` passes through the
   :class:`~repro.serve.collator.BatchCollator`.

Bit-identity is preserved at every layer: the service derives shard RNG
streams exactly like the CLI runner (:func:`repro.utils.seeding.derive_rng`
per ``(case, shard)``, schedules consuming the stream sequentially), reduces
results with the runner's own :func:`~repro.runner.runner.comparison_stats_row`
/ :func:`~repro.runner.runner.merge_outcomes` arithmetic, and the
``run_many`` seam guarantees a coalesced shard equals a solo one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import os
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

from repro import obs
from repro.core.exceptions import ExperimentError
from repro.obs import Registry, render_prometheus
from repro.runner import (
    ArtifactStore,
    comparison_stats_row,
    execute_task,
    merge_outcomes,
    plan_tasks,
    resolve_spec_engine,
)
from repro.scenarios import available_scenarios, get_scenario
from repro.scenarios.spec import (
    SPEC_VERSION,
    ComparisonScenario,
    ScenarioSpec,
    spec_from_dict,
    spec_key,
)
from repro.serve.collator import BatchCollator
from repro.utils.seeding import derive_rng

__all__ = ["API_VERSION", "FusionService"]

#: Version of the request/response envelope (routes, field names).  Distinct
#: from the scenario wire format's ``spec_version``: the envelope can evolve
#: (new provenance fields, new routes) without touching spec hashing.
API_VERSION = 1

#: Threads of the pool each service runs its blocking work on.
_THREADS = max(2, min(8, os.cpu_count() or 2))


class FusionService:
    """Transport-independent serving core; one instance per server."""

    def __init__(
        self,
        store: ArtifactStore | None = None,
        max_batch: int = 64,
    ) -> None:
        self.store = store
        # Engine passes and store IO run on a pool the service *owns*: the
        # loop's default executor is shared by every asyncio.to_thread user
        # in the process, and a saturated shared pool (e.g. in-process test
        # clients) must not be able to starve the simulation work — or vice
        # versa.
        self._executor = ThreadPoolExecutor(
            max_workers=_THREADS,
            thread_name_prefix="repro-serve",
        )
        #: Per-service metric registry (always on, unlike the thread-local
        #: tracing scopes): concurrent services never pool counters, and the
        #: collator shares it so one Prometheus exposition covers both.
        self.registry = Registry()
        self.collator = BatchCollator(max_batch=max_batch, executor=self._executor, registry=self.registry)
        self._inflight: dict[str, asyncio.Task] = {}
        self._served = self.registry.counter("repro_served_requests_total")
        self._cache_hits = self.registry.counter("repro_served_cache_hits_total")
        self._deduplicated = self.registry.counter("repro_served_deduplicated_total")
        self._latency = self.registry.histogram("repro_request_seconds")

    @property
    def served(self) -> int:
        """Requests answered (every ``_respond``, whatever the layer)."""
        return int(self._served.value)

    @property
    def cache_hits(self) -> int:
        """Requests answered from the artifact store."""
        return int(self._cache_hits.value)

    @property
    def deduplicated(self) -> int:
        """Requests that attached to an identical in-flight computation."""
        return int(self._deduplicated.value)

    async def _offload(self, fn, *args):
        """Run blocking work on the service's own pool."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, functools.partial(fn, *args)
        )

    def close(self) -> None:
        """Release the worker pool (idempotent; in-flight batches finish)."""
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # request parsing

    def resolve_request(self, request: dict) -> tuple[ScenarioSpec, bool]:
        """Parse a ``POST /v1/run`` body into ``(spec, force)``.

        The body names exactly one of ``scenario`` (a registry name) or
        ``spec`` (a :func:`~repro.scenarios.spec.spec_dict` payload, read by
        the tolerant versioned :func:`~repro.scenarios.spec.spec_from_dict`),
        optionally ``engine`` (an override, deriving a *new* spec exactly
        like the CLI's ``--engine``) and ``force`` (skip the caches).
        Unknown fields are rejected by name.
        """
        if not isinstance(request, dict):
            raise ExperimentError(
                f"a run request must be a JSON object, got {type(request).__name__}"
            )
        request = dict(request)
        api_version = request.pop("api_version", API_VERSION)
        if api_version != API_VERSION:
            raise ExperimentError(
                f"unsupported api_version {api_version!r}; this server speaks {API_VERSION}"
            )
        force = request.pop("force", False)
        if not isinstance(force, bool):
            raise ExperimentError(f"force must be a boolean, got {force!r}")
        scenario = request.pop("scenario", None)
        spec_payload = request.pop("spec", None)
        engine = request.pop("engine", None)
        if request:
            raise ExperimentError(
                f"run request carries unknown fields: {', '.join(sorted(request))}"
            )
        if (scenario is None) == (spec_payload is None):
            raise ExperimentError(
                "a run request names exactly one of 'scenario' (a registry name) "
                "or 'spec' (a serialised scenario spec)"
            )
        if scenario is not None:
            if not isinstance(scenario, str):
                raise ExperimentError(f"scenario must be a name, got {scenario!r}")
            spec = get_scenario(scenario)
        else:
            spec = spec_from_dict(spec_payload)
        if engine is not None:
            # Engine choice is part of a result's identity (a new content
            # hash), mirroring the CLI's --engine semantics.
            spec = dataclasses.replace(spec, engine=engine)
        return resolve_spec_engine(spec), force

    # ------------------------------------------------------------------
    # execution

    async def run_request(self, request: dict) -> dict:
        """Serve a parsed wire request (the ``POST /v1/run`` handler)."""
        spec, force = self.resolve_request(request)
        return await self.run_spec(spec, force=force)

    async def run_spec(self, spec: ScenarioSpec, force: bool = False) -> dict:
        """Serve a spec; returns the versioned response envelope."""
        spec = resolve_spec_engine(spec)
        started = time.perf_counter()
        if self.store is None or force:
            key = spec_key(spec)
        else:
            key, _, document = await self._offload(self.store.lookup, spec)
            if document is not None:
                self._cache_hits.inc()
                return self._respond(spec, key, document["payload"], started, cached=True)
        if not force:
            running = self._inflight.get(key)
            if running is not None:
                self._deduplicated.inc()
                # shield: a waiter's disconnect must not cancel the shared
                # computation out from under the other attached requests.
                payload = await asyncio.shield(running)
                return self._respond(spec, key, payload, started, deduplicated=True)
        task = asyncio.get_running_loop().create_task(self._execute(spec))
        if not force:
            self._inflight[key] = task
        try:
            payload = await asyncio.shield(task)
        finally:
            if self._inflight.get(key) is task:
                del self._inflight[key]
        return self._respond(spec, key, payload, started)

    def _respond(
        self,
        spec: ScenarioSpec,
        key: str,
        payload: dict,
        started: float,
        cached: bool = False,
        deduplicated: bool = False,
    ) -> dict:
        elapsed = time.perf_counter() - started
        self._served.inc()
        self._latency.observe(elapsed)
        # Per-request telemetry: a completed leaf span (never a context
        # manager across awaits — interleaved requests on one loop thread
        # would corrupt the span stack).
        obs.event("serve.request", elapsed, name=spec.name, cached=cached, deduplicated=deduplicated)
        return {
            "api_version": API_VERSION,
            "spec_version": SPEC_VERSION,
            "name": spec.name,
            "kind": spec.kind,
            "engine": spec.engine,
            "key": key,
            "cached": cached,
            "deduplicated": deduplicated,
            "elapsed_seconds": elapsed,
            "payload": payload,
        }

    async def _execute(self, spec: ScenarioSpec) -> dict:
        if spec.kind == ComparisonScenario.kind:
            payload = await self._execute_comparison(spec)
        else:
            # Case studies and figures have no micro-batching seam (their
            # kernels already batch internally); run the shard plan on a
            # worker thread — identical to the CLI's workers=1 path.
            payload = await self._offload(self._execute_blocking, spec)
        if self.store is not None:
            await self._offload(
                self.store.save,
                spec,
                payload,
                {
                    "shards": len(plan_tasks(spec)),
                    "workers": 0,
                    "served": True,
                    "created_at": datetime.now(timezone.utc).isoformat(),
                },
            )
        return payload

    @staticmethod
    def _execute_blocking(spec: ScenarioSpec) -> dict:
        return merge_outcomes(spec, [execute_task(task) for task in plan_tasks(spec)])

    async def _execute_comparison(self, spec: ComparisonScenario) -> dict:
        # Shards run concurrently (each owns its derived stream); the
        # gather preserves plan order for the merge regardless of which
        # packed batch finishes first.
        outcomes = await asyncio.gather(
            *(self._run_shard(spec, task.params) for task in plan_tasks(spec))
        )
        return merge_outcomes(spec, list(outcomes))

    async def _run_shard(self, spec: ComparisonScenario, params: tuple) -> list[dict]:
        case_index, shard_index, samples = params
        case = spec.cases[case_index]
        rng = derive_rng(spec.seed, case_index, shard_index)
        rows = []
        # The runner convention: one stream per (case, shard), consumed by
        # the schedules *sequentially* — so each submit must resolve before
        # the next schedule draws from the stream.  Coalescing happens
        # across shards/requests, never across a single shard's schedules.
        for schedule in case.schedules:
            result = await self.collator.submit(spec.engine, case, schedule, samples, rng)
            rows.append(comparison_stats_row(result))
        return rows

    # ------------------------------------------------------------------
    # introspection

    def metrics(self) -> dict:
        """Counters for ``GET /v1/metrics?format=json``.

        The historical keys are untouched (dashboards and the serve tests
        rely on them); the latency block summarises the request-duration
        histogram the Prometheus exposition serves bucket-by-bucket.
        """
        latency = self._latency
        quantile = lambda q: latency.quantile(q) * 1e3 if latency.count else None  # noqa: E731
        return {
            "api_version": API_VERSION,
            "served": self.served,
            "cache_hits": self.cache_hits,
            "deduplicated": self.deduplicated,
            "inflight": len(self._inflight),
            "collator": self.collator.stats(),
            "latency": {
                "count": latency.count,
                "mean_ms": latency.total / latency.count * 1e3 if latency.count else None,
                "p50_ms": quantile(0.5),
                "p95_ms": quantile(0.95),
                "p99_ms": quantile(0.99),
            },
        }

    def prometheus(self) -> str:
        """The ``GET /v1/metrics`` body: Prometheus text exposition 0.0.4."""
        self.registry.gauge("repro_inflight_requests").set(len(self._inflight))
        return render_prometheus(self.registry)

    def scenarios(self) -> dict:
        """Catalogue for ``GET /v1/scenarios``."""
        entries = []
        for name in available_scenarios():
            spec = get_scenario(name)
            entries.append(
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    "engine": spec.engine,
                    "description": spec.description,
                    "tags": list(spec.tags),
                }
            )
        return {"api_version": API_VERSION, "scenarios": entries}
