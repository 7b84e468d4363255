"""Table I — the exact expectation attacker's batch-vs-scalar throughput gate.

``test_table1_expectation_speedup`` gates the throughput on the heaviest
Table I row (n=5, fa=2 — full lookahead recursion) at the paper's finer
discretisation: the batch engine's vectorized grid evaluation
(:mod:`repro.batch.expectation`) must beat the scalar grid search by at
least ``REPRO_BENCH_SPEEDUP_FLOOR`` (default 10x) in rounds per second,
over ``REPRO_BENCH_EXPECTATION_SAMPLES`` batch rounds (default 1 000).

Table I itself is regenerated by the ``table1-row*`` and
``table1-expectation`` catalogue scenarios (``python -m repro run NAME``);
its shape is pinned by ``tests/integration/test_paper_claims.py``.
"""

import time

import numpy as np

from repro.analysis import TABLE1_CONFIGURATIONS, format_table
from repro.engine import BatchEngine, ExpectationAttack, ScalarEngine
from repro.scheduling import AscendingSchedule


def test_table1_expectation_speedup(report_writer, expectation_samples, speedup_floor):
    """Batched exact attacker vs the scalar grid search: rounds/sec floor.

    Benchmarked on the heaviest Table I configuration (n=5, fa=2: two
    compromised sensors, so every decision recurses over the later
    compromised slot) at the paper's finer discretisation, Ascending
    schedule, B >= 1000 — the workload the ROADMAP flagged as "the exact
    grid search is still scalar".
    """
    entry = TABLE1_CONFIGURATIONS[-1]  # n=5, fa=2, L=(5, 5, 5, 14, 17)
    config = entry.comparison_config()
    schedule = AscendingSchedule()
    spec = ExpectationAttack(true_value_positions=4, placement_positions=4, grid_positions=12)

    scalar_samples = 4
    scalar_seconds = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        ScalarEngine().run_rounds(
            config, schedule, spec, None, scalar_samples, np.random.default_rng(0)
        )
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)
    scalar_rate = scalar_samples / scalar_seconds

    start = time.perf_counter()
    result = BatchEngine().run_rounds(
        config, schedule, spec, None, expectation_samples, np.random.default_rng(0)
    )
    batch_seconds = time.perf_counter() - start
    batch_rate = expectation_samples / batch_seconds
    speedup = batch_rate / scalar_rate
    assert result.valid.all()

    report_writer(
        "table1_expectation_speedup",
        format_table(
            ["engine", "rounds", "seconds", "rounds/s"],
            [
                ["scalar", f"{scalar_samples:,}", f"{scalar_seconds:.3f}", f"{scalar_rate:,.1f}"],
                ["batch", f"{expectation_samples:,}", f"{batch_seconds:.3f}", f"{batch_rate:,.0f}"],
                ["speedup", "", "", f"{speedup:.1f}x"],
            ],
            title=(
                "Exact expectation attacker throughput — scalar grid search vs "
                f"batch engine (n={entry.n}, fa={entry.fa}, ascending)"
            ),
        ),
    )
    assert speedup >= speedup_floor, (
        f"batched exact expectation attacker is only {speedup:.1f}x faster than the "
        f"scalar grid search (floor: {speedup_floor}x)"
    )
