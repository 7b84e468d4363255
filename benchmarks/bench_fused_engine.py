"""Per-transmission program vs slot loop on the n=9 multi-slot row.

The batch engine runs the greedy stretch attacker on the per-transmission
program (:func:`repro.batch.rounds.transmission_rounds`) and every other
attacker on the slot loop (:func:`repro.batch.rounds.slot_loop_rounds`).
This benchmark keeps that specialization honest on the workload it exists
for: many sensors, several compromised transmissions, and a random
schedule, so the attacker forges at nearly every slot across the batch and
the slot loop runs an active-mode support sweep per slot.  The benchmark
row is the nine-sensor extension of the paper's Table I grid (the paper
tops out at n=5) with ``fa=3`` simultaneously compromised sensors, run
under Ascending, Descending and Random.

Both bodies run on the *same* prepared rounds (one
:func:`repro.batch.rounds.prepare_rounds` call per leg), so the rates
compare the simulation bodies alone.  Two assertions gate every run:

* **bit identity** — the per-transmission program's
  :class:`~repro.batch.rounds.BatchRoundResult` must equal the slot loop's
  array for array on every schedule (the test-suite pins this at small
  scale; the benchmark re-checks it at Monte-Carlo scale);
* **throughput floor** — on the multi-slot random-schedule leg the
  per-transmission program must deliver at least
  ``REPRO_BENCH_FUSED_FLOOR`` (default 3x) the slot loop's rounds/sec; the
  deterministic legs are reported but not gated (the slot loop hurts them
  less).

Besides the human-readable table, the run writes
``benchmarks/results/bench_fused_engine.json`` (rates, speedups, samples
per leg) which CI uploads as a workflow artifact.
"""

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.batch.rounds import (
    ActiveStretchBatchAttacker,
    BatchRoundConfig,
    prepare_rounds,
    sample_correct_bounds,
    slot_loop_rounds,
    transmission_rounds,
)
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    RandomSchedule,
    ScheduleComparisonConfig,
)

#: The n=9 multi-slot row: the Table I length grid extended to nine
#: sensors, three sensors across the precision range compromised together
#: (the ``sweep-multi-fault`` scenario family's territory).
MULTI_SLOT_LENGTHS = (5.0, 5.0, 5.0, 8.0, 8.0, 11.0, 14.0, 17.0, 20.0)
MULTI_SLOT_FA = 3
MULTI_SLOT_ATTACKED = (0, 4, 8)

SCHEDULES = (AscendingSchedule(), DescendingSchedule(), RandomSchedule())
#: The gated leg: under a random schedule the compromised transmissions
#: land in different slots every round — the multi-slot stress case.
GATED_SCHEDULE = "random"

#: The result arrays both bodies must agree on, bit for bit.
RESULT_FIELDS = ("broadcast_lo", "broadcast_hi", "flagged", "attacker_detected")


def _config() -> ScheduleComparisonConfig:
    return ScheduleComparisonConfig(
        lengths=MULTI_SLOT_LENGTHS,
        fa=MULTI_SLOT_FA,
        attacked_indices=MULTI_SLOT_ATTACKED,
    )


def prepared_leg(schedule, samples: int, channel=None):
    """One leg's round config and prepared rounds, as the batch engine builds them."""
    config = _config()
    round_config = BatchRoundConfig(
        schedule=schedule,
        attacked_indices=config.resolved_attacked,
        attacker=ActiveStretchBatchAttacker(),
        f=config.resolved_f,
        channel=channel,
    )
    rng = np.random.default_rng(0)
    lowers, uppers = sample_correct_bounds(config.lengths, config.true_value, samples, rng)
    return round_config, prepare_rounds(lowers, uppers, round_config, rng)


def best_rates(round_config, prepared, repeats: int = 3):
    """Best-of-N rounds/sec of the slot loop and the per-transmission program.

    Returns ``(slot_rate, slot_result, transmission_rate, transmission_result)``.
    """
    bodies = (
        lambda: slot_loop_rounds(prepared, round_config, np.random.default_rng(0)),
        lambda: transmission_rounds(prepared, round_config),
    )
    out = []
    for body in bodies:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            result = body()
            best = min(best, time.perf_counter() - start)
        out += [prepared.shape[0] / best, result]
    return tuple(out)


def assert_bit_identical(slot_result, transmission_result, leg: str, fields=()) -> None:
    pairs = [
        ("fusion.lo", slot_result.fusion.lo, transmission_result.fusion.lo),
        ("fusion.hi", slot_result.fusion.hi, transmission_result.fusion.hi),
        ("fusion.valid", slot_result.fusion.valid, transmission_result.fusion.valid),
    ]
    pairs += [
        (name, getattr(slot_result, name), getattr(transmission_result, name))
        for name in RESULT_FIELDS + tuple(fields)
    ]
    for name, expected, actual in pairs:
        np.testing.assert_array_equal(
            expected, actual, err_msg=f"per-transmission != slot loop on {leg}/{name}"
        )


def test_fused_engine_speedup(report_writer, json_report_writer, batch_samples, fused_speedup_floor):
    """Per-transmission program vs slot loop on the n=9 row: parity plus the 3x floor."""
    rows = []
    legs = {}
    parity = []
    for schedule in SCHEDULES:
        round_config, prepared = prepared_leg(schedule, batch_samples)
        slot_rate, slot_result, transmission_rate, transmission_result = best_rates(
            round_config, prepared
        )
        parity.append((slot_result, transmission_result, schedule.name))
        speedup = transmission_rate / slot_rate
        legs[schedule.name] = {
            "slot_loop_rounds_per_second": slot_rate,
            "per_transmission_rounds_per_second": transmission_rate,
            "speedup": speedup,
            "samples": batch_samples,
        }
        rows.append(
            [
                schedule.name,
                f"{slot_rate:,.0f}",
                f"{transmission_rate:,.0f}",
                f"{speedup:.2f}x",
                "yes" if schedule.name == GATED_SCHEDULE else "",
            ]
        )
    report_writer(
        "bench_fused_engine",
        format_table(
            ["schedule", "slot loop rounds/s", "per-transmission rounds/s", "speedup", "gated"],
            rows,
            title=(
                "Per-transmission program vs slot loop — n=9 multi-slot row "
                f"(fa={MULTI_SLOT_FA}, attacked={MULTI_SLOT_ATTACKED}, "
                f"{batch_samples:,} prepared rounds per leg, bit-identical results)"
            ),
        ),
    )
    json_report_writer(
        "bench_fused_engine",
        {
            "row": {
                "lengths": list(MULTI_SLOT_LENGTHS),
                "fa": MULTI_SLOT_FA,
                "attacked_indices": list(MULTI_SLOT_ATTACKED),
            },
            "gated_schedule": GATED_SCHEDULE,
            "floor": fused_speedup_floor,
            "legs": legs,
        },
    )
    # Assertions come *after* the reports, so a failing run still leaves
    # the table and the JSON behind for CI to upload and diagnose.
    for slot_result, transmission_result, name in parity:
        assert_bit_identical(slot_result, transmission_result, name)
    gated = legs[GATED_SCHEDULE]["speedup"]
    assert gated >= fused_speedup_floor, (
        f"the per-transmission program is only {gated:.2f}x the slot loop on the n=9 "
        f"multi-slot {GATED_SCHEDULE} row (floor: {fused_speedup_floor}x)"
    )


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.name)
def test_fused_engine_benchmark(benchmark, schedule, batch_samples):
    """pytest-benchmark timing of the per-transmission program per schedule leg."""
    round_config, prepared = prepared_leg(schedule, batch_samples)

    def run():
        return transmission_rounds(prepared, round_config)

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    assert result.fusion.valid.all()
