"""BatchCollator behaviour: coalescing, flush triggers, isolation, errors."""

import asyncio

import numpy as np
import pytest

from repro.core.exceptions import ExperimentError
from repro.scenarios.spec import ComparisonCase
from repro.serve import BatchCollator, plan_key

CASE = ComparisonCase(label="case", lengths=(2.0, 3.0, 4.0), fa=1)


def submit(collator, case=CASE, schedule="ascending", samples=20, seed=0):
    return collator.submit("batch", case, schedule, samples, np.random.default_rng(seed))


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
        async def scenario():
            collator = BatchCollator(max_wait_ms=50.0, max_batch=8)
            results = await asyncio.gather(*(submit(collator, seed=seed) for seed in range(5)))
            return collator.stats(), results

        stats, results = asyncio.run(scenario())
        assert stats["requests"] == 5
        assert stats["batches"] == 1
        assert stats["coalesced"] == 4
        assert stats["max_batch_observed"] == 5
        assert all(result.samples == 20 for result in results)

    def test_coalesced_results_bit_identical_to_solo(self):
        async def coalesced():
            collator = BatchCollator(max_wait_ms=50.0, max_batch=8)
            return await asyncio.gather(
                submit(collator, seed=1, samples=30), submit(collator, seed=2, samples=40)
            )

        async def solo(seed, samples):
            collator = BatchCollator(max_wait_ms=0.0, max_batch=1)
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
            collator = BatchCollator(max_wait_ms=50.0, max_batch=8)
            await asyncio.gather(
                submit(collator, schedule="ascending"),
                submit(collator, schedule="descending", seed=1),
            )
            return collator.stats()

        stats = asyncio.run(scenario())
        assert stats["requests"] == 2
        assert stats["batches"] == 2
        assert stats["coalesced"] == 0

    def test_max_batch_flushes_before_timer(self):
        async def scenario():
            # A very long window: only the max_batch trigger can flush.
            collator = BatchCollator(max_wait_ms=10_000.0, max_batch=3)
            results = await asyncio.wait_for(
                asyncio.gather(*(submit(collator, seed=seed) for seed in range(3))),
                timeout=30.0,
            )
            return collator.stats(), results

        stats, results = asyncio.run(scenario())
        assert stats["batches"] == 1
        assert stats["max_batch_observed"] == 3
        assert len(results) == 3

    def test_max_batch_one_is_pass_through(self):
        async def scenario():
            collator = BatchCollator(max_wait_ms=50.0, max_batch=1)
            await asyncio.gather(*(submit(collator, seed=seed) for seed in range(4)))
            return collator.stats()

        stats = asyncio.run(scenario())
        assert stats["batches"] == 4
        assert stats["coalesced"] == 0


class TestErrors:
    def test_engine_failure_reaches_every_waiter(self):
        async def scenario():
            collator = BatchCollator(max_wait_ms=20.0, max_batch=8)
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

    def test_constructor_validation(self):
        with pytest.raises(ExperimentError):
            BatchCollator(max_wait_ms=-1.0)
        with pytest.raises(ExperimentError):
            BatchCollator(max_batch=0)
