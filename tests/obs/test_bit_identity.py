"""The telemetry layer's first contract: tracing never changes a payload.

Every registered engine runs the same rounds twice — once inside an
``obs.collect()`` scope, once without — and the result arrays must be
byte-equal.  Telemetry times with monotonic clocks only; any instrumented
code path that touched an RNG (or reordered draws) would fail here.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.engine import available_engines, get_engine
from repro.runner import run_scenario
from repro.scenarios import ComparisonCase, ComparisonScenario
from repro.scheduling.comparison import ScheduleComparisonConfig
from repro.scheduling.schedule import FixedSchedule

ENGINES = available_engines()

CONFIG = ScheduleComparisonConfig(lengths=(5.0, 8.0, 11.0), fa=1, attacked_indices=(1,))


def result_bytes(result) -> tuple:
    return (
        result.fusion_lo.tobytes(),
        result.fusion_hi.tobytes(),
        result.widths.tobytes(),
        result.valid.tobytes(),
        result.attacker_detected.tobytes(),
    )


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("attack", ["stretch", "expectation"])
def test_run_rounds_bit_identical_traced_vs_untraced(engine_name, attack):
    engine = get_engine(engine_name)

    def run():
        return engine.run_rounds(
            CONFIG,
            FixedSchedule((0, 1, 2)),
            attack,
            None,
            samples=64,
            rng=np.random.default_rng(42),
        )

    untraced = result_bytes(run())
    with obs.collect() as session:
        traced = result_bytes(run())
    assert traced == untraced
    # ... and telemetry actually recorded the work it watched.
    counters = {
        (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
        for row in session.snapshot()["metrics"]["counters"]
    }
    assert counters[("repro_engine_samples_total", (("engine", engine_name),))] == 64


@pytest.mark.parametrize("engine_name", ENGINES)
def test_run_many_bit_identical_traced_vs_untraced(engine_name):
    engine = get_engine(engine_name)

    def run():
        return engine.run_many(
            CONFIG,
            FixedSchedule((0, 1, 2)),
            "stretch",
            None,
            budgets=[32, 16],
            rngs=[np.random.default_rng(1), np.random.default_rng(2)],
        )

    untraced = [result_bytes(result) for result in run()]
    with obs.collect():
        traced = [result_bytes(result) for result in run()]
    assert traced == untraced


def test_scenario_payload_bit_identical_traced_vs_untraced():
    spec = ComparisonScenario(
        name="obs-bit-identity",
        engine="batch",
        samples=2_000,
        shard_samples=500,
        cases=(ComparisonCase(label="n3-fa1", lengths=(5.0, 11.0, 17.0), fa=1),),
    )
    untraced = run_scenario(spec, store=None).payload
    with obs.collect():
        traced = run_scenario(spec, store=None).payload
    assert json.dumps(traced, sort_keys=True) == json.dumps(untraced, sort_keys=True)
