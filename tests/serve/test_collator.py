"""BatchCollator behaviour: coalesce-while-busy, the max_batch cap, isolation, errors."""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.exceptions import ExperimentError
from repro.scenarios.spec import ComparisonCase
from repro.serve import BatchCollator, plan_key

CASE = ComparisonCase(label="case", lengths=(2.0, 3.0, 4.0), fa=1)


def submit(collator, case=CASE, schedule="ascending", samples=20, seed=0):
    return collator.submit("batch", case, schedule, samples, np.random.default_rng(seed))


def record_pass_sizes(collator):
    """Wrap the collator's engine pass to log each pass's batch size, in order."""
    sizes = []
    simulate = collator._simulate

    def recording(plan, batch):
        sizes.append(len(batch))
        return simulate(plan, batch)

    collator._simulate = recording
    return sizes


class TestPlanKey:
    def test_label_does_not_affect_key(self):
        relabeled = ComparisonCase(label="other", lengths=(2.0, 3.0, 4.0), fa=1)
        assert plan_key("batch", CASE, "ascending") == plan_key("batch", relabeled, "ascending")

    def test_physics_fields_affect_key(self):
        assert plan_key("batch", CASE, "ascending") != plan_key("scalar", CASE, "ascending")
        assert plan_key("batch", CASE, "ascending") != plan_key("batch", CASE, "descending")
        wider = ComparisonCase(label="case", lengths=(2.0, 3.0, 9.0), fa=1)
        assert plan_key("batch", CASE, "ascending") != plan_key("batch", wider, "ascending")


class TestCoalescing:
    def test_same_plan_submissions_share_one_batch(self):
        # The first submission finds the plan idle and dispatches alone; the
        # other four arrive while its pass runs and share the next one.
        async def scenario():
            collator = BatchCollator(max_batch=8)
            sizes = record_pass_sizes(collator)
            results = await asyncio.gather(*(submit(collator, seed=seed) for seed in range(5)))
            return collator.stats(), sizes, results

        stats, sizes, results = asyncio.run(scenario())
        assert sizes == [1, 4]
        assert stats["requests"] == 5
        assert stats["batches"] == 2
        assert stats["coalesced"] == 3
        assert stats["max_batch_observed"] == 4
        assert all(result.samples == 20 for result in results)

    def test_lone_submission_dispatches_in_the_same_loop_step(self):
        async def scenario():
            collator = BatchCollator(max_batch=8)
            task = asyncio.ensure_future(submit(collator))
            await asyncio.sleep(0)  # one step: the submit runs up to its await
            dispatched = collator.batches
            await task
            return dispatched

        assert asyncio.run(scenario()) == 1

    def test_coalesced_results_bit_identical_to_solo(self):
        async def coalesced():
            collator = BatchCollator(max_batch=8)
            return await asyncio.gather(
                submit(collator, seed=1, samples=30), submit(collator, seed=2, samples=40)
            )

        async def solo(seed, samples):
            collator = BatchCollator(max_batch=1)
            return await submit(collator, seed=seed, samples=samples)

        first, second = asyncio.run(coalesced())
        ref_first = asyncio.run(solo(1, 30))
        ref_second = asyncio.run(solo(2, 40))
        np.testing.assert_array_equal(first.fusion_lo, ref_first.fusion_lo)
        np.testing.assert_array_equal(first.fusion_hi, ref_first.fusion_hi)
        np.testing.assert_array_equal(second.fusion_lo, ref_second.fusion_lo)
        np.testing.assert_array_equal(second.fusion_hi, ref_second.fusion_hi)

    def test_distinct_plans_do_not_share_batches(self):
        async def scenario():
            collator = BatchCollator(max_batch=8)
            await asyncio.gather(
                submit(collator, schedule="ascending"),
                submit(collator, schedule="descending", seed=1),
            )
            return collator.stats()

        stats = asyncio.run(scenario())
        assert stats["requests"] == 2
        assert stats["batches"] == 2
        assert stats["coalesced"] == 0

    def test_max_batch_caps_every_pass(self):
        # Six submissions queue behind the first pass; the cap splits them.
        async def scenario():
            collator = BatchCollator(max_batch=3)
            sizes = record_pass_sizes(collator)
            results = await asyncio.gather(*(submit(collator, seed=seed) for seed in range(7)))
            return collator.stats(), sizes, results

        stats, sizes, results = asyncio.run(scenario())
        assert sizes == [1, 3, 3]
        assert stats["batches"] == 3
        assert stats["max_batch_observed"] == 3
        assert len(results) == 7

    def test_max_batch_one_is_pass_through(self):
        async def scenario():
            collator = BatchCollator(max_batch=1)
            await asyncio.gather(*(submit(collator, seed=seed) for seed in range(4)))
            return collator.stats()

        stats = asyncio.run(scenario())
        assert stats["batches"] == 4
        assert stats["coalesced"] == 0


class TestErrors:
    def test_engine_failure_reaches_every_waiter(self):
        async def scenario():
            collator = BatchCollator(max_batch=8)
            bad = ComparisonCase(label="case", lengths=(2.0, 3.0, 4.0), fa=1)
            tasks = [
                asyncio.ensure_future(
                    collator.submit("no-such-engine", bad, "ascending", 10, np.random.default_rng(s))
                )
                for s in range(3)
            ]
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(scenario())
        assert len(outcomes) == 3
        assert all(isinstance(outcome, ExperimentError) for outcome in outcomes)

    def test_failure_reaches_the_waiters_queued_behind_the_failing_pass(self):
        # Two submissions queue behind a failing pass: they run their own
        # pass, get the engine's error, and the plan goes idle again.
        async def scenario():
            collator = BatchCollator(max_batch=8)
            sizes = record_pass_sizes(collator)
            outcomes = await asyncio.gather(
                *(
                    collator.submit("no-such-engine", CASE, "ascending", 10, np.random.default_rng(s))
                    for s in range(3)
                ),
                return_exceptions=True,
            )
            recovered = await submit(collator)
            return outcomes, sizes, recovered

        outcomes, sizes, recovered = asyncio.run(scenario())
        assert sizes == [1, 2, 1]
        assert all(isinstance(outcome, ExperimentError) for outcome in outcomes)
        assert "no-such-engine" in str(outcomes[2])
        assert recovered.samples == 20

    def test_cancelled_pass_fails_its_queue_without_another_pass(self):
        # Loop shutdown cancels the running pass: its waiter and the ones
        # queued behind it get the cancellation, and no further pass starts.
        entered, release = threading.Event(), threading.Event()

        async def scenario():
            collator = BatchCollator(max_batch=8)
            simulate = collator._simulate

            def blocked(plan, batch):
                entered.set()
                release.wait(30)
                return simulate(plan, batch)

            collator._simulate = blocked
            waiters = [asyncio.ensure_future(submit(collator, seed=seed)) for seed in range(3)]
            assert await asyncio.to_thread(entered.wait, 30)
            (plan,) = collator._busy.values()
            plan.task.cancel()
            outcomes = await asyncio.wait_for(asyncio.gather(*waiters, return_exceptions=True), 30)
            release.set()
            return outcomes, collator.stats(), len(collator._busy)

        try:
            outcomes, stats, busy = asyncio.run(scenario())
        finally:
            release.set()
        assert all(isinstance(outcome, asyncio.CancelledError) for outcome in outcomes)
        assert stats["batches"] == 1
        assert busy == 0

    def test_constructor_validation(self):
        with pytest.raises(ExperimentError):
            BatchCollator(max_batch=0)
