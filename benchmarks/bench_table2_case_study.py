"""Table II — LandShark platoon case study: critical speed violations.

Three LandSharks drive at a 10 mph target with a ±0.5 mph safety envelope;
one (uniformly random) sensor is under attack each fusion round.  For the
Ascending, Descending and Random schedules the benchmark reports the
percentage of fusion rounds whose upper bound exceeds 10.5 mph and whose
lower bound falls below 9.5 mph — the two rows of the paper's Table II.

``test_table2_case_study_batch`` runs the vectorized closed-loop stepper,
``replicas × vehicles × steps`` fusion rounds per schedule, and gates its
throughput: it must beat the scalar reference stack (one Python call per
control period and vehicle) by at least ``REPRO_BENCH_SPEEDUP_FLOOR``
(default 10x) in rounds per second, and keep the table's shape.

Expected shape (and, with the random attacked-sensor assumption,
magnitude): Ascending ≈ 0 %, Descending the largest, Random roughly a third
of Descending.  Table II itself is regenerated by the ``table2-*``
catalogue scenarios; the seeded scalar numbers are pinned by
``tests/vehicle/test_table2_regression.py``.
"""

import time

from repro.analysis import TABLE2_PAPER_RESULTS, format_percentage, format_table
from repro.vehicle import CaseStudyConfig, run_case_study


def _best_seconds(thunk, repeats: int = 3):
    """Best-of-N wall time plus the first run's result.

    Taking the minimum strips downward scheduling noise from the throughput
    ratio; returning the result lets the timed runs double as the
    statistics-producing runs.
    """
    best = float("inf")
    result = None
    for repeat in range(repeats):
        start = time.perf_counter()
        value = thunk()
        best = min(best, time.perf_counter() - start)
        if repeat == 0:
            result = value
    return best, result


def _total_rounds(result) -> int:
    return sum(stats.rounds for stats in result.stats)


def _assert_table2_shape(result) -> None:
    ascending = result.for_schedule("ascending")
    descending = result.for_schedule("descending")
    random_row = result.for_schedule("random")
    total = lambda row: row.upper_violations + row.lower_violations  # noqa: E731
    # Shape of Table II: Ascending eliminates violations entirely, Descending
    # is the worst, Random sits in between.
    assert total(ascending) == 0
    assert total(descending) > total(random_row) > total(ascending)


def _report_rows(result):
    rows = []
    for name in ("ascending", "descending", "random"):
        stats = result.for_schedule(name)
        paper_upper, paper_lower = TABLE2_PAPER_RESULTS[name]
        rows.append(
            [
                name,
                format_percentage(stats.upper_percentage),
                format_percentage(stats.lower_percentage),
                format_percentage(paper_upper),
                format_percentage(paper_lower),
            ]
        )
    return rows


_REPORT_HEADER = [
    "schedule",
    "> 10.5 mph (measured)",
    "< 9.5 mph (measured)",
    "> 10.5 mph (paper)",
    "< 9.5 mph (paper)",
]


def test_table2_case_study_batch(
    benchmark, report_writer, case_study_steps, case_study_replicas, speedup_floor
):
    """Batched Table II: same statistics regime, ≥10x the scalar throughput."""
    config = CaseStudyConfig(n_steps=case_study_steps, n_vehicles=3, seed=2014)

    # Scalar reference throughput, measured over a bounded number of steps so
    # the comparison stays cheap at publication-scale settings.
    scalar_config = CaseStudyConfig(
        n_steps=min(case_study_steps, 100), n_vehicles=3, seed=2014
    )
    scalar_seconds, scalar_result = _best_seconds(
        lambda: run_case_study(scalar_config, engine="scalar"), 2
    )
    scalar_rate = _total_rounds(scalar_result) / scalar_seconds

    result = benchmark.pedantic(
        run_case_study,
        args=(config,),
        kwargs={"engine": "batch", "n_replicas": case_study_replicas},
        iterations=1,
        rounds=1,
    )
    batch_seconds, _ = _best_seconds(
        lambda: run_case_study(config, engine="batch", n_replicas=case_study_replicas)
    )
    batch_rate = _total_rounds(result) / batch_seconds
    speedup = batch_rate / scalar_rate

    table = format_table(
        _REPORT_HEADER,
        _report_rows(result),
        title=(
            f"Table II (batch engine) — {case_study_replicas} replicas x "
            f"{config.n_vehicles} vehicles x {config.n_steps} steps per schedule"
        ),
    )
    throughput = format_table(
        ["engine", "rounds", "seconds", "rounds/s"],
        [
            [
                "scalar",
                f"{_total_rounds(scalar_result):,}",
                f"{scalar_seconds:.3f}",
                f"{scalar_rate:,.0f}",
            ],
            ["batch", f"{_total_rounds(result):,}", f"{batch_seconds:.3f}", f"{batch_rate:,.0f}"],
            ["speedup", "", "", f"{speedup:.1f}x"],
        ],
        title="Case-study throughput — scalar vs batch engine",
    )
    report_writer("table2_case_study_batch", f"{table}\n\n{throughput}")

    _assert_table2_shape(result)
    assert speedup >= speedup_floor, (
        f"batched case study is only {speedup:.1f}x faster than the scalar engine "
        f"(floor: {speedup_floor}x)"
    )
