"""Per-transmission program vs slot loop under a lossy channel.

Same shape as ``bench_fused_engine.py`` — the n=9 multi-slot row that
collapses the slot loop — but with the channel on: i.i.d. loss with delay
and a retransmission budget, so every leg exercises the masked sweeps
(per-slot visibility, received-subset fusion, channel counters) of both
simulation bodies.  Both bodies run on the same prepared rounds.

Two assertions gate every run:

* **bit identity** — the per-transmission program's results must equal
  the slot loop's array for array on every schedule and channel;
* **throughput floor** — on the lossy multi-slot random-schedule leg the
  per-transmission program must deliver at least
  ``REPRO_BENCH_LOSSY_FLOOR`` (default 2x) the slot loop's rounds/sec.

Besides the human-readable table, the run writes
``benchmarks/results/bench_lossy.json`` (rates, speedups, loss counters
per leg) which CI uploads as a workflow artifact.
"""

import pytest

from bench_fused_engine import (
    MULTI_SLOT_ATTACKED,
    MULTI_SLOT_FA,
    MULTI_SLOT_LENGTHS,
    assert_bit_identical,
    best_rates,
    prepared_leg,
)
from repro.analysis import format_table
from repro.batch.rounds import transmission_rounds
from repro.channel import ChannelSpec
from repro.scheduling import AscendingSchedule, DescendingSchedule, RandomSchedule

SCHEDULES = (AscendingSchedule(), DescendingSchedule(), RandomSchedule())
GATED_SCHEDULE = "random"

CHANNELS = {
    "iid-retx": ChannelSpec(model="iid", loss=0.2, retransmit_budget=2),
    "iid-delay": ChannelSpec(
        model="iid", loss=0.15, delay=0.3, max_delay=2, retransmit_budget=1
    ),
}
#: The gated leg's channel: loss + delay + retransmission together drive
#: every masked code path at once.
GATED_CHANNEL = "iid-delay"


def test_lossy_fused_speedup(report_writer, json_report_writer, batch_samples, lossy_speedup_floor):
    """Per-transmission program vs slot loop on the lossy n=9 row: parity plus the 2x floor."""
    rows = []
    legs = {}
    parity = []
    for channel_name, channel in CHANNELS.items():
        for schedule in SCHEDULES:
            leg = f"{channel_name}/{schedule.name}"
            round_config, prepared = prepared_leg(schedule, batch_samples, channel)
            slot_rate, slot_result, transmission_rate, transmission_result = best_rates(
                round_config, prepared
            )
            parity.append((slot_result, transmission_result, leg))
            speedup = transmission_rate / slot_rate
            gated = channel_name == GATED_CHANNEL and schedule.name == GATED_SCHEDULE
            legs[leg] = {
                "channel": channel.to_dict(),
                "slot_loop_rounds_per_second": slot_rate,
                "per_transmission_rounds_per_second": transmission_rate,
                "speedup": speedup,
                "samples": batch_samples,
                "dropped_total": int(prepared.channel.dropped.sum()),
                "retransmits_total": int(prepared.channel.retransmits.sum()),
            }
            rows.append(
                [
                    leg,
                    f"{slot_rate:,.0f}",
                    f"{transmission_rate:,.0f}",
                    f"{speedup:.2f}x",
                    f"{legs[leg]['dropped_total']:,}",
                    "yes" if gated else "",
                ]
            )
    report_writer(
        "bench_lossy",
        format_table(
            [
                "channel/schedule",
                "slot loop rounds/s",
                "per-transmission rounds/s",
                "speedup",
                "dropped",
                "gated",
            ],
            rows,
            title=(
                "Per-transmission program vs slot loop under a lossy channel — n=9 "
                f"multi-slot row (fa={MULTI_SLOT_FA}, attacked={MULTI_SLOT_ATTACKED}, "
                f"{batch_samples:,} prepared rounds per leg, bit-identical results)"
            ),
        ),
    )
    json_report_writer(
        "bench_lossy",
        {
            "row": {
                "lengths": list(MULTI_SLOT_LENGTHS),
                "fa": MULTI_SLOT_FA,
                "attacked_indices": list(MULTI_SLOT_ATTACKED),
            },
            "gated_leg": f"{GATED_CHANNEL}/{GATED_SCHEDULE}",
            "floor": lossy_speedup_floor,
            "legs": legs,
        },
    )
    # Assertions come *after* the reports, so a failing run still leaves
    # the table and the JSON behind for CI to upload and diagnose.
    for slot_result, transmission_result, leg in parity:
        assert_bit_identical(slot_result, transmission_result, leg)
        assert transmission_result.prepared.channel is slot_result.prepared.channel
    gated_speedup = legs[f"{GATED_CHANNEL}/{GATED_SCHEDULE}"]["speedup"]
    assert gated_speedup >= lossy_speedup_floor, (
        f"the per-transmission program is only {gated_speedup:.2f}x the slot loop on the "
        f"lossy n=9 multi-slot {GATED_SCHEDULE} row (floor: {lossy_speedup_floor}x)"
    )


@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.name)
def test_lossy_fused_benchmark(benchmark, schedule, batch_samples):
    """pytest-benchmark timing of the per-transmission program per lossy schedule leg."""
    round_config, prepared = prepared_leg(schedule, batch_samples, CHANNELS[GATED_CHANNEL])

    def run():
        return transmission_rounds(prepared, round_config)

    result = benchmark.pedantic(run, iterations=1, rounds=1)
    assert result.prepared.channel.dropped.sum() > 0
