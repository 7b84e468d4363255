"""One run path per engine: ``run_many`` is the method, ``run_rounds`` its one-item form.

``Engine.run_many`` is the only abstract simulation method; the concrete
``Engine.run_rounds`` forwards one ``(samples, rng)`` pair to it.  These
tests pin that seam for every registered backend — the forwarding itself,
the seeding rule, a minimal third-party backend that implements
``run_many`` alone — and the scalar engine's per-item loop: one
``engine.run`` span per item and a fresh attack policy per item.
"""

import numpy as np
import pytest

from repro import obs
from repro.batch.rounds import BatchTransientFaults
from repro.channel import ChannelSpec
from repro.engine import (
    BatchEngine,
    Engine,
    ExpectationAttack,
    ScalarEngine,
    available_engines,
    get_engine,
)
from repro.scheduling.comparison import ScheduleComparisonConfig
from repro.scheduling.schedule import AscendingSchedule, DescendingSchedule, RandomSchedule

CONFIG = ScheduleComparisonConfig(lengths=(2.0, 3.0, 4.0, 5.0), fa=1)
ENGINES = sorted(available_engines())
LOSSY = ChannelSpec(model="iid", loss=0.2, delay=0.3, max_delay=2, retransmit_budget=1)


def samples_for(engine_name):
    """The scalar loop is slow; every contract here holds at any budget."""
    return 6 if engine_name == "scalar" else 48


def assert_rounds_equal(got, want):
    assert got.schedule_name == want.schedule_name
    for field in (
        "fusion_lo",
        "fusion_hi",
        "valid",
        "attacker_detected",
        "broadcast_lo",
        "broadcast_hi",
        "flagged",
        "channel_dropped",
        "channel_retransmits",
    ):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None), field
        if a is not None:
            np.testing.assert_array_equal(a, b, err_msg=field)


class TestAbstractSeam:
    def test_run_many_is_the_abstract_simulation_method(self):
        assert Engine.__abstractmethods__ == {"run_many"}

    def test_backend_without_run_many_cannot_be_built(self):
        class Empty(Engine):
            name = "empty"

        with pytest.raises(TypeError, match="run_many"):
            Empty()

    def test_minimal_backend_gets_run_rounds_and_compare(self):
        # A third-party backend implementing run_many alone inherits the
        # one-item form and the Table I sweep.
        class Delegating(Engine):
            name = "delegating"

            def __init__(self):
                self.inner = BatchEngine()

            def run_many(self, *args, **kwargs):
                return self.inner.run_many(*args, **kwargs)

        schedules = [AscendingSchedule(), DescendingSchedule()]
        engine = Delegating()
        assert_rounds_equal(
            engine.run_rounds(CONFIG, RandomSchedule(), samples=64, rng=np.random.default_rng(5)),
            BatchEngine().run_rounds(
                CONFIG, RandomSchedule(), samples=64, rng=np.random.default_rng(5)
            ),
        )
        comparison = engine.compare(CONFIG, schedules, samples=64, rng=np.random.default_rng(9))
        reference = BatchEngine().compare(
            CONFIG, schedules, samples=64, rng=np.random.default_rng(9)
        )
        assert comparison.rows == reference.rows


@pytest.mark.parametrize("engine_name", ENGINES)
class TestRunRoundsForwarding:
    def test_run_rounds_is_a_one_item_run_many(self, engine_name, monkeypatch):
        engine = get_engine(engine_name)
        calls = []
        original = type(engine).run_many

        def recording(self, config, schedule, attack, faults, budgets, rngs, channel):
            calls.append((attack, faults, list(budgets), list(rngs), channel))
            return original(self, config, schedule, attack, faults, budgets, rngs, channel)

        monkeypatch.setattr(type(engine), "run_many", recording)
        samples = samples_for(engine_name)
        stream = np.random.default_rng(3)
        faults = BatchTransientFaults(probability=0.1)
        result = engine.run_rounds(
            CONFIG, AscendingSchedule(), "stretch-left", faults, samples, stream, LOSSY
        )
        ((attack, seen_faults, budgets, rngs, channel),) = calls
        assert (attack, seen_faults, budgets, channel) == ("stretch-left", faults, [samples], LOSSY)
        assert len(rngs) == 1 and rngs[0] is stream
        assert result.samples == samples

    def test_run_rounds_without_rng_uses_the_default_stream(self, engine_name):
        # rng=None is resolved through ensure_rng before run_many sees it,
        # so it equals passing the default (seed 0) generator itself.
        engine = get_engine(engine_name)
        samples = samples_for(engine_name)
        default = engine.run_rounds(CONFIG, RandomSchedule(), samples=samples)
        seeded = engine.run_rounds(
            CONFIG, RandomSchedule(), samples=samples, rng=np.random.default_rng(0)
        )
        assert_rounds_equal(default, seeded)

    def test_run_rounds_equals_the_first_run_many_item(self, engine_name):
        engine = get_engine(engine_name)
        samples = samples_for(engine_name)
        (packed,) = engine.run_many(
            CONFIG,
            DescendingSchedule(),
            "stretch",
            None,
            [samples],
            [np.random.default_rng(21)],
            LOSSY,
        )
        solo = engine.run_rounds(
            CONFIG, DescendingSchedule(), "stretch", None, samples, np.random.default_rng(21), LOSSY
        )
        assert_rounds_equal(packed, solo)
        assert solo.channel_dropped is not None


class TestScalarItemLoop:
    def test_one_engine_run_span_per_item(self):
        budgets = [3, 5, 4]
        with obs.collect() as session:
            ScalarEngine().run_many(
                CONFIG,
                AscendingSchedule(),
                "stretch",
                None,
                budgets,
                [np.random.default_rng(seed) for seed in (1, 2, 3)],
            )
        snapshot = session.snapshot()
        runs = [node for node in snapshot["spans"] if node["name"] == "engine.run"]
        assert [node["attrs"] for node in runs] == [
            {"engine": "scalar", "schedule": "ascending", "samples": samples}
            for samples in budgets
        ]
        for node in runs:
            assert [child["name"] for child in node["children"]] == [
                "engine.sample",
                "engine.prepare",
                "engine.rounds",
            ]
        (counter,) = [
            row
            for row in snapshot["metrics"]["counters"]
            if row["name"] == "repro_engine_samples_total"
        ]
        assert counter["value"] == sum(budgets)

    def test_items_are_prepared_by_the_batch_prologue(self):
        # The scalar engine draws its rounds with prepare_rounds, so its
        # prepare spans are the batch prologue's own.
        with obs.collect() as session:
            ScalarEngine().run_many(
                CONFIG,
                AscendingSchedule(),
                "stretch",
                None,
                [2, 2],
                [np.random.default_rng(seed) for seed in (1, 2)],
            )
        prepares = [
            child
            for node in session.snapshot()["spans"]
            if node["name"] == "engine.run"
            for child in node["children"]
            if child["name"] == "engine.prepare"
        ]
        assert [node["attrs"] for node in prepares] == [{"kernel": "batch"}] * 2

    @pytest.mark.parametrize(
        "faults, channel",
        [(BatchTransientFaults(probability=0.3), None), (None, LOSSY)],
        ids=["faults", "lossy-channel"],
    )
    def test_items_equal_standalone_runs(self, faults, channel):
        engine = ScalarEngine()
        budgets, seeds = [5, 3, 5], [4, 5, 6]
        packed = engine.run_many(
            CONFIG,
            RandomSchedule(),
            "stretch",
            faults,
            budgets,
            [np.random.default_rng(seed) for seed in seeds],
            channel,
        )
        for result, samples, seed in zip(packed, budgets, seeds):
            solo = engine.run_rounds(
                CONFIG, RandomSchedule(), "stretch", faults, samples, np.random.default_rng(seed), channel
            )
            assert_rounds_equal(result, solo)

    def test_expectation_items_get_a_fresh_policy(self):
        # No memo is shared between items: the second item's decisions and
        # memo statistics are those of a standalone run.
        config = ScheduleComparisonConfig(lengths=(1.0, 2.0, 3.0), fa=1)
        attack = ExpectationAttack(true_value_positions=2, placement_positions=2, grid_positions=3)
        engine = ScalarEngine()

        def memo_counts(budgets, seeds):
            with obs.collect() as session:
                results = engine.run_many(
                    config,
                    AscendingSchedule(),
                    attack,
                    None,
                    budgets,
                    [np.random.default_rng(seed) for seed in seeds],
                )
            counters = session.snapshot()["metrics"]["counters"]
            by_outcome = {
                row["labels"]["outcome"]: row["value"]
                for row in counters
                if row["name"] == "repro_expectation_memo_total"
            }
            return results, by_outcome

        (_, packed), packed_memo = memo_counts([2, 2], [8, 8])
        (solo,), solo_memo = memo_counts([2], [8])
        assert_rounds_equal(packed, solo)
        # Two identical items, each with its own memo, do twice the work.
        assert packed_memo == {outcome: 2 * count for outcome, count in solo_memo.items()}
