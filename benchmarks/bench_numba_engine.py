"""Numba engine throughput vs the batch engine on the n=9 multi-slot row.

The numba engine's design target is paper-precision statistics: 10⁷-sample
Monte-Carlo sweeps of the heavy Table I style rows, where even the batch
engine's per-transmission event matrices dominate the runtime.  The
benchmark row matches ``bench_fused_engine``: the nine-sensor extension of
the Table I grid with ``fa=3`` compromised sensors, under Ascending,
Descending and Random schedules.

Rounds are streamed in 10⁶-row chunks (a resident 10⁷ × 9 float64 batch
would be ~720 MB *per array*), each chunk re-seeded identically for both
engines; per-leg rates sum the chunk times.  Two assertions gate every run:

* **bit identity** — on a full chunk per schedule, the numba engine's
  :class:`~repro.engine.base.RoundsResult` must equal the batch engine's
  array for array (the conformance suite pins this at small scale; the
  benchmark re-checks it at chunk scale);
* **throughput floor** — on the random-schedule leg the numba engine must
  deliver at least ``REPRO_BENCH_NUMBA_FLOOR`` (default 5x) the batch
  engine's rounds/sec.  The deterministic legs are reported but not gated.

The whole module skips unless numba is actually installed and compiling
(``REPRO_NUMBA_PUREPY=1`` forces the pure-Python kernels, which are for
conformance, not speed).  Besides the human-readable table, the run writes
``benchmarks/results/bench_numba_engine.json`` (rates, speedups, samples
per leg) which CI uploads as a workflow artifact.
"""

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.batch.kernels._compat import NUMBA_COMPILED
from repro.engine import BatchEngine, get_engine
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    RandomSchedule,
    ScheduleComparisonConfig,
)

pytestmark = pytest.mark.skipif(
    not NUMBA_COMPILED, reason="numba is not installed (or pure-Python kernels forced)"
)

#: The n=9 multi-slot row shared with ``bench_fused_engine``.
MULTI_SLOT_LENGTHS = (5.0, 5.0, 5.0, 8.0, 8.0, 11.0, 14.0, 17.0, 20.0)
MULTI_SLOT_FA = 3
MULTI_SLOT_ATTACKED = (0, 4, 8)

SCHEDULES = (AscendingSchedule(), DescendingSchedule(), RandomSchedule())
#: The gated leg: under a random schedule the compromised transmissions
#: land in different slots every round — the multi-slot stress case.
GATED_SCHEDULE = "random"

#: Rows per streamed chunk; bounds resident memory at roughly chunk × n × 8
#: bytes per array regardless of the total sample count.
CHUNK_SAMPLES = 1_000_000


def _config() -> ScheduleComparisonConfig:
    return ScheduleComparisonConfig(
        lengths=MULTI_SLOT_LENGTHS,
        fa=MULTI_SLOT_FA,
        attacked_indices=MULTI_SLOT_ATTACKED,
    )


def _chunked_rate(engine, schedule, samples: int, repeats: int = 2) -> float:
    """Best-of-N rounds/sec, streaming ``samples`` rounds in seeded chunks.

    Chunk ``i`` always runs on ``default_rng(i)``, so both engines consume
    identical random streams and the measured work is identical.
    """
    config = _config()
    best = float("inf")
    for _ in range(repeats):
        elapsed = 0.0
        done = 0
        index = 0
        while done < samples:
            step = min(CHUNK_SAMPLES, samples - done)
            rng = np.random.default_rng(index)
            start = time.perf_counter()
            engine.run_rounds(config, schedule, "stretch", None, step, rng)
            elapsed += time.perf_counter() - start
            done += step
            index += 1
        best = min(best, elapsed)
    return samples / best


def _assert_bit_identical(batch_result, numba_result, schedule_name: str) -> None:
    for field in (
        "fusion_lo",
        "fusion_hi",
        "valid",
        "attacker_detected",
        "broadcast_lo",
        "broadcast_hi",
        "flagged",
    ):
        np.testing.assert_array_equal(
            getattr(batch_result, field),
            getattr(numba_result, field),
            err_msg=f"numba != batch on {schedule_name}/{field}",
        )


def test_numba_engine_speedup(
    report_writer, json_report_writer, numba_samples, numba_speedup_floor
):
    """Numba vs batch on the n=9 multi-slot row: chunk parity plus the 5x floor."""
    batch_engine = BatchEngine()
    numba_engine = get_engine("numba")
    config = _config()
    parity_samples = min(numba_samples, CHUNK_SAMPLES)
    # Warm the JIT cache outside the timed region (first call compiles).
    numba_engine.run_rounds(
        config, RandomSchedule(), "stretch", None, 1_000, np.random.default_rng(0)
    )
    rows = []
    legs = {}
    parity = []
    for schedule in SCHEDULES:
        parity.append(
            (
                batch_engine.run_rounds(
                    config, schedule, "stretch", None, parity_samples, np.random.default_rng(0)
                ),
                numba_engine.run_rounds(
                    config, schedule, "stretch", None, parity_samples, np.random.default_rng(0)
                ),
                schedule.name,
            )
        )
        batch_rate = _chunked_rate(batch_engine, schedule, numba_samples)
        numba_rate = _chunked_rate(numba_engine, schedule, numba_samples)
        speedup = numba_rate / batch_rate
        legs[schedule.name] = {
            "batch_rounds_per_second": batch_rate,
            "numba_rounds_per_second": numba_rate,
            "speedup": speedup,
            "samples": numba_samples,
        }
        rows.append(
            [
                schedule.name,
                f"{batch_rate:,.0f}",
                f"{numba_rate:,.0f}",
                f"{speedup:.2f}x",
                "yes" if schedule.name == GATED_SCHEDULE else "",
            ]
        )
    report_writer(
        "bench_numba_engine",
        format_table(
            ["schedule", "batch rounds/s", "numba rounds/s", "speedup", "gated"],
            rows,
            title=(
                "Numba vs batch engine — n=9 multi-slot row "
                f"(fa={MULTI_SLOT_FA}, attacked={MULTI_SLOT_ATTACKED}, "
                f"{numba_samples:,} rounds per leg in {CHUNK_SAMPLES:,}-row chunks, "
                "bit-identical results)"
            ),
        ),
    )
    json_report_writer(
        "bench_numba_engine",
        {
            "row": {
                "lengths": list(MULTI_SLOT_LENGTHS),
                "fa": MULTI_SLOT_FA,
                "attacked_indices": list(MULTI_SLOT_ATTACKED),
            },
            "gated_schedule": GATED_SCHEDULE,
            "floor": numba_speedup_floor,
            "chunk_samples": CHUNK_SAMPLES,
            "legs": legs,
        },
    )
    # Assertions come *after* the reports, so a failing run still leaves
    # the table and the JSON behind for CI to upload and diagnose.
    for batch_result, numba_result, name in parity:
        _assert_bit_identical(batch_result, numba_result, name)
    gated = legs[GATED_SCHEDULE]["speedup"]
    assert gated >= numba_speedup_floor, (
        f"numba engine is only {gated:.2f}x the batch engine on the n=9 multi-slot "
        f"{GATED_SCHEDULE} row (floor: {numba_speedup_floor}x)"
    )


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.name)
def test_numba_engine_benchmark(benchmark, schedule, numba_samples):
    """pytest-benchmark timing of the numba engine per schedule leg."""
    engine = get_engine("numba")
    config = _config()
    samples = min(numba_samples, CHUNK_SAMPLES)
    engine.run_rounds(config, schedule, "stretch", None, 1_000, np.random.default_rng(0))

    def run():
        return engine.run_rounds(
            config, schedule, "stretch", None, samples, np.random.default_rng(0)
        )

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    assert result.valid.all()
