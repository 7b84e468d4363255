"""Randomized engine parity on top of the conformance suite.

The deterministic parity matrix lives in ``conformance.py`` and runs for
every registered engine in ``test_conformance.py``; this module adds the
hypothesis fuzz over random configurations — again parametrised over the
registry, so new backends inherit the fuzz too — plus the
:class:`~repro.engine.base.RoundsResult` accessor coverage.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conformance import assert_rounds_equal
from repro.engine import BatchEngine, ScalarEngine, StretchAttack, available_engines, get_engine
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    ScheduleComparisonConfig,
)

#: The oracle fuzzes against every other registered backend.
NON_ORACLE_ENGINES = [name for name in available_engines() if name != "scalar"]


@pytest.mark.parametrize("engine_name", NON_ORACLE_ENGINES)
@given(
    lengths=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=3, max_size=7),
    attacked_index=st.integers(min_value=0, max_value=6),
    side=st.sampled_from([1, -1]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_engines_bitmatch_random_configs(engine_name, lengths, attacked_index, side, seed):
    lengths = tuple(lengths)
    config = ScheduleComparisonConfig(
        lengths=lengths, fa=1, attacked_indices=(attacked_index % len(lengths),)
    )
    schedule = AscendingSchedule() if seed % 2 else DescendingSchedule()
    attack = StretchAttack(side=side)
    scalar = ScalarEngine().run_rounds(
        config, schedule, attack, None, 8, np.random.default_rng(seed)
    )
    other = get_engine(engine_name).run_rounds(
        config, schedule, attack, None, 8, np.random.default_rng(seed)
    )
    assert_rounds_equal(scalar, other)


def test_engine_compare_rows_match():
    config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1)
    schedules = [AscendingSchedule(), DescendingSchedule()]
    scalar = ScalarEngine().compare(
        config, schedules, samples=64, rng=np.random.default_rng(9)
    )
    for name in NON_ORACLE_ENGINES:
        other = get_engine(name).compare(
            config, schedules, samples=64, rng=np.random.default_rng(9)
        )
        assert scalar.rows == other.rows


def test_rounds_result_accessors():
    config = ScheduleComparisonConfig(lengths=(5.0, 11.0, 17.0), fa=1)
    result = BatchEngine().run_rounds(config, DescendingSchedule(), samples=500)
    assert result.samples == 500
    assert result.valid.all()
    assert result.mean_width == pytest.approx(float(result.widths.mean()))
    assert 0.0 <= result.detected_fraction <= 1.0
    row = result.to_row()
    assert row.schedule_name == "descending"
    assert row.combinations == 500
