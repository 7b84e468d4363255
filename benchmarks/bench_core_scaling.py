"""Micro-benchmarks of the core primitives, scalar and batched.

Not a paper table — these benchmarks document the cost of the building blocks
(fusion sweep, coverage profile, detection, one simulated round) so that
regressions in the inner loops of the experiment harnesses are caught.  The
batched counterparts from :mod:`repro.batch` run the same workloads over all
rounds at once; ``test_batch_fuse_speedup_report`` records the headline
scalar-versus-batch throughput ratio and fails if vectorization ever degrades
below 10x at the reference point (n=9, B=10 000), and
``test_fusion_kernel_choice_report`` keeps the batch fusion's choice between
its two kernels (endpoint sort for short batches, endpoint-coverage counts
for wide ones) justified by measurement.
"""

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.attack import ExpectationPolicy
from repro.batch import (
    ActiveStretchBatchAttacker,
    BatchRoundConfig,
    batch_detect,
    batch_fuse,
    batch_rounds,
    sample_correct_bounds,
)
from repro.batch import fuse as fuse_module
from repro.core import Interval, coverage_profile, detect, fuse
from repro.scheduling import DescendingSchedule, RoundConfig, run_round

SPEEDUP_N = 9
SPEEDUP_BATCH = 10_000

#: Each fusion kernel must beat the other by this factor where it is chosen:
#: the counts kernel on wide batches, the sort on a Table II control step.
KERNEL_CHOICE_FLOOR = 1.3
WIDE_BATCH = 25_000
WIDE_SENSORS = (3, 5, 9)
STEP_BATCH = 24
STEP_SENSORS = 4


def _random_intervals(n: int, seed: int = 0) -> list[Interval]:
    rng = np.random.default_rng(seed)
    intervals = []
    for _ in range(n):
        width = float(rng.uniform(0.5, 5.0))
        lo = -width * float(rng.uniform(0.0, 1.0))
        intervals.append(Interval(lo, lo + width))
    return intervals


def _random_bounds(batch: int, n: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.5, 5.0, (batch, n))
    lowers = -widths * rng.uniform(0.0, 1.0, (batch, n))
    return lowers, lowers + widths


@pytest.mark.parametrize("n", [8, 64, 512])
def test_scaling_fuse(benchmark, n):
    intervals = _random_intervals(n)
    fusion = benchmark(fuse, intervals, (n + 1) // 2 - 1)
    assert fusion.contains(0.0)


@pytest.mark.parametrize("n", [8, 64, 512])
def test_scaling_coverage_profile(benchmark, n):
    intervals = _random_intervals(n)
    profile = benchmark(coverage_profile, intervals)
    assert max(segment.coverage for segment in profile) <= n


def test_scaling_detection(benchmark):
    intervals = _random_intervals(256)
    fusion = fuse(intervals, 127)
    result = benchmark(detect, intervals, fusion)
    assert not result.any_flagged


@pytest.mark.parametrize("batch", [1_000, 10_000, 100_000])
def test_scaling_batch_fuse(benchmark, batch):
    lowers, uppers = _random_bounds(batch, SPEEDUP_N)
    result = benchmark(batch_fuse, lowers, uppers, (SPEEDUP_N + 1) // 2 - 1)
    assert result.valid.all()
    assert (result.lo <= 0.0).all() and (result.hi >= 0.0).all()


def test_scaling_batch_detect(benchmark):
    lowers, uppers = _random_bounds(10_000, SPEEDUP_N)
    fusion = batch_fuse(lowers, uppers, (SPEEDUP_N + 1) // 2 - 1)
    flagged = benchmark(batch_detect, lowers, uppers, fusion)
    assert not flagged.any()


def test_scaling_batch_attacked_rounds(benchmark):
    config = BatchRoundConfig(
        schedule=DescendingSchedule(),
        attacked_indices=(0,),
        attacker=ActiveStretchBatchAttacker(),
        f=2,
    )

    def run():
        rng = np.random.default_rng(0)
        lowers, uppers = sample_correct_bounds((1.0, 2.0, 3.0, 4.0, 5.0), 0.0, 10_000, rng)
        return batch_rounds(lowers, uppers, config, rng)

    result = benchmark(run)
    assert result.fusion.valid.all()
    assert not result.attacker_detected.any()


def test_batch_fuse_speedup_report(report_writer, speedup_floor):
    """Scalar-vs-batch fusion throughput at the reference point (n=9, B=10k)."""
    f = (SPEEDUP_N + 1) // 2 - 1
    lowers, uppers = _random_bounds(SPEEDUP_BATCH, SPEEDUP_N)
    rows = [
        [Interval(lowers[b, i], uppers[b, i]) for i in range(SPEEDUP_N)]
        for b in range(SPEEDUP_BATCH)
    ]

    start = time.perf_counter()
    for row in rows:
        fuse(row, f)
    scalar_seconds = time.perf_counter() - start

    batch_seconds = min(
        _timed(lambda: batch_fuse(lowers, uppers, f)) for _ in range(7)
    )
    speedup = scalar_seconds / batch_seconds
    report_writer(
        "core_batch_speedup",
        format_table(
            ["path", "seconds", "rounds/s"],
            [
                ["scalar fuse loop", f"{scalar_seconds:.4f}", f"{SPEEDUP_BATCH / scalar_seconds:,.0f}"],
                ["batch_fuse", f"{batch_seconds:.4f}", f"{SPEEDUP_BATCH / batch_seconds:,.0f}"],
                ["speedup", f"{speedup:.1f}x", ""],
            ],
            title=f"Marzullo fusion throughput — n={SPEEDUP_N}, B={SPEEDUP_BATCH:,}",
        ),
    )
    assert speedup >= speedup_floor, (
        f"batch fusion is only {speedup:.1f}x faster than the scalar loop "
        f"(floor: {speedup_floor}x at n={SPEEDUP_N}, B={SPEEDUP_BATCH})"
    )


def test_fusion_kernel_choice_report(report_writer):
    """The counts kernel wins on wide batches and the sort on short ones.

    ``coverage_extremes`` counts endpoint coverage from ``_COUNTS_MIN_ROWS``
    rows on; both sides of that choice are timed here against the kernel it
    rejects: B = 25,000 (a sweep shard) for n in {3, 5, 9}, and B = 24, n = 4
    (one Table II control step).
    """
    assert STEP_BATCH < fuse_module._COUNTS_MIN_ROWS <= WIDE_BATCH
    kernels = {"sort": fuse_module._swept_extremes, "counts": fuse_module._counted_extremes}
    cases = [(WIDE_BATCH, n, 7) for n in WIDE_SENSORS] + [(STEP_BATCH, STEP_SENSORS, 200)]
    rows, failures = [], []
    for batch, n, repeats in cases:
        lowers, uppers = _random_bounds(batch, n)
        required = n - ((n + 1) // 2 - 1)
        seconds = {
            name: min(_timed(lambda: kernel(lowers, uppers, required)) for _ in range(repeats))
            for name, kernel in kernels.items()
        }
        chosen, rejected = ("counts", "sort") if batch >= fuse_module._COUNTS_MIN_ROWS else ("sort", "counts")
        advantage = seconds[rejected] / seconds[chosen]
        rows.append(
            [
                f"{batch:,}",
                n,
                f"{seconds['sort'] * 1e6:,.0f}",
                f"{seconds['counts'] * 1e6:,.0f}",
                chosen,
                f"{advantage:.2f}x",
            ]
        )
        if advantage < KERNEL_CHOICE_FLOOR:
            failures.append(f"B={batch}, n={n}: {chosen} is only {advantage:.2f}x faster than {rejected}")
    report_writer(
        "fusion_kernel_choice",
        format_table(
            ["B", "n", "sort us", "counts us", "chosen", "advantage"],
            rows,
            title=f"coverage_extremes kernel choice (floor {KERNEL_CHOICE_FLOOR}x)",
        ),
    )
    assert not failures, "; ".join(failures)


def _timed(thunk) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_scaling_attacked_round(benchmark):
    correct = _random_intervals(5, seed=3)
    config = RoundConfig(
        schedule=DescendingSchedule(),
        attacked_indices=(0,),
        policy=ExpectationPolicy(true_value_positions=2, placement_positions=2),
        f=2,
    )

    def run():
        return run_round(correct, config, np.random.default_rng(0))

    result = benchmark(run)
    assert result.fusion.contains(0.0)
