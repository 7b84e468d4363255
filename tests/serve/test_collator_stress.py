"""Concurrency stress for the batch collator: jittered mixed-plan traffic.

A seeded swarm of clients — several same-plan groups plus distinct-plan
loners, arrival times jittered — hammers one :class:`BatchCollator`.  The
assertions are the serving layer's two load-bearing promises:

* **payload bit-identity**: every client's arrays equal the ``max_batch=1``
  pass-through baseline (no coalescing), whatever batches the jitter
  produced;
* **counter consistency**: ``requests`` equals the client count,
  ``coalesced == requests - batches``, batches are bounded by the distinct
  plan count below and the client count above, and no batch exceeded
  ``max_batch``;
* **one pass per plan**: no plan ever has two engine passes in flight.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.scenarios.spec import ComparisonCase
from repro.serve import BatchCollator, plan_key

PLANS = [
    (ComparisonCase(label="a", lengths=(2.0, 3.0, 4.0), fa=1), "ascending"),
    (ComparisonCase(label="b", lengths=(2.0, 3.0, 4.0), fa=1), "descending"),
    (ComparisonCase(label="c", lengths=(1.0, 2.0, 8.0), fa=1), "ascending"),
    (ComparisonCase(label="d", lengths=(5.0, 5.0, 9.0, 9.0, 13.0), fa=2), "descending"),
]


def build_clients(seed: int, per_plan: int = 6) -> list[dict]:
    """A deterministic client mix: ``per_plan`` clients on each plan.

    Sample budgets vary per client (they never affect the plan key) and the
    arrival jitter is drawn up front from one seeded stream, so a failing
    run reproduces exactly.
    """
    rng = np.random.default_rng(seed)
    clients = []
    for plan_index, (case, schedule) in enumerate(PLANS):
        for client_index in range(per_plan):
            clients.append(
                {
                    "case": case,
                    "schedule": schedule,
                    "samples": int(rng.integers(10, 60)),
                    "seed": 1000 * plan_index + client_index,
                    "jitter_ms": float(rng.uniform(0.0, 8.0)),
                }
            )
    return clients


async def run_swarm(collator: BatchCollator, clients: list[dict], jitter: bool):
    async def one(client: dict):
        if jitter:
            await asyncio.sleep(client["jitter_ms"] / 1000.0)
        return await collator.submit(
            "batch",
            client["case"],
            client["schedule"],
            client["samples"],
            np.random.default_rng(client["seed"]),
        )

    return await asyncio.gather(*(one(client) for client in clients))


def assert_same_results(actual, expected):
    np.testing.assert_array_equal(actual.fusion_lo, expected.fusion_lo)
    np.testing.assert_array_equal(actual.fusion_hi, expected.fusion_hi)
    np.testing.assert_array_equal(actual.valid, expected.valid)
    np.testing.assert_array_equal(actual.attacker_detected, expected.attacker_detected)
    np.testing.assert_array_equal(actual.flagged, expected.flagged)


@pytest.mark.parametrize("seed", [2014, 7])
def test_jittered_swarm_is_bit_identical_to_pass_through(seed):
    clients = build_clients(seed)

    async def coalesced():
        collator = BatchCollator(max_batch=8)
        results = await run_swarm(collator, clients, jitter=True)
        return results, collator.stats()

    async def baseline():
        collator = BatchCollator(max_batch=1)
        results = await run_swarm(collator, clients, jitter=False)
        return results, collator.stats()

    stressed, stressed_stats = asyncio.run(coalesced())
    reference, baseline_stats = asyncio.run(baseline())

    for actual, expected in zip(stressed, reference):
        assert_same_results(actual, expected)

    assert stressed_stats["requests"] == len(clients)
    assert stressed_stats["coalesced"] == stressed_stats["requests"] - stressed_stats["batches"]
    assert len(PLANS) <= stressed_stats["batches"] <= len(clients)
    assert stressed_stats["max_batch_observed"] <= 8

    # The pass-through leg must not coalesce at all.
    assert baseline_stats["batches"] == len(clients)
    assert baseline_stats["coalesced"] == 0
    assert baseline_stats["max_batch_observed"] == 1


def test_burst_without_jitter_coalesces_per_plan():
    # Simultaneous arrival: each plan's first client dispatches alone and
    # the rest share the pass after it, so every plan takes exactly two.
    clients = build_clients(42, per_plan=5)

    async def scenario():
        collator = BatchCollator(max_batch=64)
        results = await run_swarm(collator, clients, jitter=False)
        return results, collator.stats()

    results, stats = asyncio.run(scenario())
    assert len(results) == len(clients)
    assert stats["batches"] == 2 * len(PLANS)
    assert stats["coalesced"] == len(clients) - 2 * len(PLANS)
    assert stats["max_batch_observed"] == 4


@pytest.mark.parametrize("seed", [2014, 7])
def test_jittered_swarm_never_runs_two_passes_of_one_plan(seed):
    clients = build_clients(seed)
    lock = threading.Lock()
    running: dict[tuple, int] = {}
    peaks: dict[tuple, int] = {}

    async def scenario():
        collator = BatchCollator(max_batch=8)
        simulate = collator._simulate

        def counting(plan, batch):
            key = plan_key(plan.engine, plan.case, plan.schedule)
            with lock:
                running[key] = running.get(key, 0) + 1
                peaks[key] = max(peaks.get(key, 0), running[key])
            try:
                time.sleep(0.002)  # widen the window a second pass would need
                return simulate(plan, batch)
            finally:
                with lock:
                    running[key] -= 1

        collator._simulate = counting
        await run_swarm(collator, clients, jitter=True)
        return collator.stats()

    stats = asyncio.run(scenario())
    assert stats["requests"] == len(clients)
    assert len(peaks) == len(PLANS)
    assert set(peaks.values()) == {1}


def test_interleaved_waves_stay_isolated_per_plan():
    # Two waves of the same swarm through one collator: counters accumulate
    # and every result still matches its solo reference.
    clients = build_clients(3, per_plan=3)

    async def scenario():
        collator = BatchCollator(max_batch=4)
        first = await run_swarm(collator, clients, jitter=True)
        second = await run_swarm(collator, clients, jitter=True)
        return first, second, collator.stats()

    async def baseline():
        collator = BatchCollator(max_batch=1)
        return await run_swarm(collator, clients, jitter=False)

    first, second, stats = asyncio.run(scenario())
    reference = asyncio.run(baseline())
    for wave in (first, second):
        for actual, expected in zip(wave, reference):
            assert_same_results(actual, expected)
    assert stats["requests"] == 2 * len(clients)
    assert stats["coalesced"] == stats["requests"] - stats["batches"]
