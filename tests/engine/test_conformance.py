"""Registry-driven engine conformance: every backend, one contract.

Parametrised over :func:`repro.engine.available_engines`, so registering a new
engine automatically subjects it to the whole suite — scalar-oracle bit
parity under the deterministic attack specs, result completeness, RNG
stream discipline, and scenario-payload equality across engines and
worker counts.  CI runs this file as its own job step over all registered
engines (see ``.github/workflows/ci.yml``).
"""

import numpy as np
import pytest

from repro.engine import available_engines
from repro.runner import run_scenario
from repro.scenarios import ComparisonCase, ComparisonScenario

from conformance import (
    CONFORMANCE_MATRIX,
    check_oracle_parity,
    check_result_completeness,
    check_rng_discipline,
    conformance_ids,
)

ENGINES = available_engines()
#: The expectation cells re-run the scalar policy's grid search per round;
#: restricting them to a subset of the matrix keeps the suite fast while
#: the stretch/truthful cells cover every schedule and fault model.
FAST_MATRIX = tuple(c for c in CONFORMANCE_MATRIX if not c.attack.startswith("expectation"))


def test_every_builtin_engine_is_covered():
    # The suite must cover the two shipped backends (and anything else
    # registered by the session under test).
    assert {"scalar", "batch"} <= set(ENGINES)


@pytest.mark.parametrize("case", CONFORMANCE_MATRIX, ids=conformance_ids)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_bit_parity_with_scalar_oracle(engine_name, case):
    check_oracle_parity(engine_name, case)


@pytest.mark.parametrize("case", FAST_MATRIX, ids=conformance_ids)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_result_completeness(engine_name, case):
    check_result_completeness(engine_name, case)


@pytest.mark.parametrize("case", FAST_MATRIX, ids=conformance_ids)
@pytest.mark.parametrize("engine_name", ENGINES)
def test_rng_stream_discipline(engine_name, case):
    check_rng_discipline(engine_name, case)


@pytest.mark.parametrize("engine_name", ENGINES)
def test_compare_consumes_one_shared_stream(engine_name):
    # Engine.compare must run the schedules sequentially on one stream —
    # the contract that makes a comparison reproducible from (seed, spec).
    from repro.scheduling import AscendingSchedule, DescendingSchedule, ScheduleComparisonConfig
    from repro.engine import get_engine

    config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1)
    engine = get_engine(engine_name)
    schedules = [AscendingSchedule(), DescendingSchedule()]
    merged = engine.compare(config, schedules, samples=64, rng=np.random.default_rng(17))
    rng = np.random.default_rng(17)
    manual = tuple(
        engine.run_rounds(config, schedule, "stretch", None, 64, rng).to_row()
        for schedule in schedules
    )
    assert merged.rows == manual


@pytest.mark.parametrize("engine_name", [name for name in ENGINES if name != "scalar"])
def test_scenario_payloads_identical_across_engines_and_workers(engine_name, tmp_path):
    """The acceptance criterion at the scenario level: any engine, any workers.

    A multi-case comparison scenario (faults on one case, two schedules,
    four shards) must produce the byte-identical payload on this engine as
    on the batch engine, for one and for two workers.
    """

    def spec(engine: str) -> ComparisonScenario:
        return ComparisonScenario(
            name=f"conformance-{engine}",
            engine=engine,
            samples=400,
            shard_samples=100,
            cases=(
                ComparisonCase(label="plain", lengths=(2.0, 3.0, 3.0, 6.0, 8.0), fa=2),
                ComparisonCase(
                    label="faulty",
                    lengths=(1.0, 1.0, 1.0, 1.0, 1.0),
                    fa=1,
                    f=2,
                    fault_probability=0.3,
                ),
            ),
        )

    reference = run_scenario(spec("batch"), workers=1).payload
    for workers in (1, 2):
        payload = run_scenario(spec(engine_name), workers=workers).payload
        assert payload == reference, (
            f"engine={engine_name} workers={workers} diverged from the batch payload"
        )
