"""Serving throughput: coalesce-while-busy batching vs a no-coalescing baseline.

The serving stack's promise is that coalescing is pure profit: when many
clients ask for the same *plan* (same physics, same schedule — different
seeds), the :class:`~repro.serve.BatchCollator` fuses their shards into
packed :meth:`~repro.engine.base.Engine.run_many` passes, and the
``run_many`` bit-identity contract means nobody can tell from the payloads.
This benchmark measures the profit and gates it:

* **workload** — ``REPRO_BENCH_SERVE_CLIENTS`` (default 64) concurrent
  clients POST inline specs to a live :class:`~repro.serve.FusionServer`
  over real HTTP connections.  Every client's spec shares one plan — the
  n=9 multi-slot random-schedule row on the batch engine, split into many
  small shards, the regime where per-pass overhead dominates per-round
  work and coalescing has real fixed cost to amortize — but carries a
  distinct seed, so the serving cache layers that *shortcut* work — store
  hits, in-flight dedup — never fire: every speedup below is coalescing
  alone;
* **baseline** — the identical workload against a ``max_batch=1`` server
  (coalescing disabled, one engine pass per shard-schedule);
* **gate** — coalesced throughput must be at least
  ``REPRO_BENCH_SERVE_FLOOR`` (default 3x) the baseline's, and every
  coalesced payload must be byte-identical to its baseline twin.

Besides the human-readable table, the run writes
``benchmarks/results/bench_serve.json`` (qps, p50/p99 latency, collator
counters per configuration) which CI uploads as a workflow artifact.
"""

import asyncio
import json
import time

from repro.analysis import format_table
from repro.scenarios.spec import ComparisonCase, ComparisonScenario, spec_dict
from repro.serve import FusionServer, FusionService

#: Every client shares this plan; only the seed differs per client.  The
#: n=9 multi-slot random row (the per-transmission program's design
#: target, cf. ``bench_fused_engine.py``): high per-pass cost, so small shards leave
#: plenty of fixed overhead for coalescing to amortize.
PLAN_CASE = ComparisonCase(
    label="bench",
    lengths=(5.0, 5.0, 5.0, 8.0, 8.0, 11.0, 14.0, 17.0, 20.0),
    fa=3,
    attacked_indices=(0, 4, 8),
    schedules=("random",),
)

#: Shards per request: each request's sample budget splits into this many
#: small engine passes, all sharing the plan key across clients.
SHARDS_PER_REQUEST = 16


def client_spec(seed: int, samples: int) -> ComparisonScenario:
    return ComparisonScenario(
        name=f"bench-serve-{seed}",
        cases=(PLAN_CASE,),
        samples=samples,
        shard_samples=max(10, samples // SHARDS_PER_REQUEST),
        engine="batch",
        seed=seed,
    )


async def _post_run(port: int, payload: dict) -> tuple[float, dict]:
    """One HTTP client: POST /v1/run, return (latency_seconds, response)."""
    body = json.dumps(payload).encode("utf-8")
    head = (
        "POST /v1/run HTTP/1.1\r\n"
        "Host: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    start = time.perf_counter()
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(head + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    latency = time.perf_counter() - start
    header, _, response_body = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    if status != 200:
        raise AssertionError(f"serve benchmark request failed: {raw[:200]!r}")
    return latency, json.loads(response_body)


async def _drive(max_batch: int, clients: int, samples: int) -> dict:
    """Run the full client burst against one server configuration."""
    service = FusionService(store=None, max_batch=max_batch)
    try:
        async with FusionServer(service, port=0) as server:
            payloads = [
                {"spec": spec_dict(client_spec(1_000 + index, samples))}
                for index in range(clients)
            ]
            start = time.perf_counter()
            outcomes = await asyncio.gather(
                *(_post_run(server.port, payload) for payload in payloads)
            )
            elapsed = time.perf_counter() - start
    finally:
        service.close()
    latencies = sorted(latency for latency, _ in outcomes)
    responses = [response for _, response in outcomes]
    assert len({response["key"] for response in responses}) == clients, (
        "distinct seeds must produce distinct result keys (no dedup/cache shortcuts)"
    )
    assert not any(response["cached"] or response["deduplicated"] for response in responses)
    return {
        "max_batch": max_batch,
        "elapsed_seconds": elapsed,
        "requests_per_second": clients / elapsed,
        "latency_p50_seconds": latencies[len(latencies) // 2],
        "latency_p99_seconds": latencies[min(len(latencies) - 1, int(0.99 * (len(latencies) - 1)) + 1)],
        "collator": service.collator.stats(),
        "payloads": {response["name"]: response["payload"] for response in responses},
    }


def test_serving_coalescing_speedup(
    report_writer, json_report_writer, serve_clients, serve_samples, serve_coalescing_floor
):
    """64 identical-plan clients: coalescing must deliver the 3x floor."""

    async def bench() -> tuple[dict, dict]:
        baseline = await _drive(max_batch=1, clients=serve_clients, samples=serve_samples)
        coalesced = await _drive(max_batch=serve_clients, clients=serve_clients, samples=serve_samples)
        return baseline, coalesced

    baseline, coalesced = asyncio.run(bench())
    speedup = coalesced["requests_per_second"] / baseline["requests_per_second"]

    rows = [
        [
            label,
            f"{run['requests_per_second']:,.1f}",
            f"{run['latency_p50_seconds'] * 1e3:.1f}ms",
            f"{run['latency_p99_seconds'] * 1e3:.1f}ms",
            str(run["collator"]["batches"]),
            f"{run['collator']['max_batch_observed']}",
        ]
        for label, run in (("baseline (max_batch=1)", baseline), ("coalescing", coalesced))
    ]
    report_writer(
        "bench_serve",
        format_table(
            ["configuration", "req/s", "p50", "p99", "engine passes", "largest batch"],
            rows,
            title=(
                f"Fusion-as-a-service — {serve_clients} concurrent identical-plan "
                f"clients, {serve_samples:,} rounds each, speedup {speedup:.2f}x "
                f"(floor {serve_coalescing_floor:g}x)"
            ),
        ),
    )
    json_report_writer(
        "bench_serve",
        {
            "clients": serve_clients,
            "samples_per_request": serve_samples,
            "floor": serve_coalescing_floor,
            "speedup": speedup,
            "baseline": {key: value for key, value in baseline.items() if key != "payloads"},
            "coalesced": {key: value for key, value in coalesced.items() if key != "payloads"},
        },
    )

    # Assertions come *after* the reports, so a failing run still leaves
    # the table and the JSON behind for CI to upload and diagnose.
    assert coalesced["payloads"] == baseline["payloads"], (
        "coalescing changed served payload bytes — the run_many contract is broken"
    )
    assert coalesced["collator"]["batches"] < baseline["collator"]["batches"]
    assert speedup >= serve_coalescing_floor, (
        f"coalescing delivers only {speedup:.2f}x the no-batching baseline at "
        f"{serve_clients} identical-plan clients (floor: {serve_coalescing_floor}x)"
    )
