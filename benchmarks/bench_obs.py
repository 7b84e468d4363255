"""Telemetry overhead on the batch engine's n=9 multi-slot stress leg.

The ``repro.obs`` layer promises two things the benchmark pins at
Monte-Carlo scale:

* **bit identity** — running the same rounds inside an ``obs.collect()``
  scope changes wall-clock only, never a result byte (telemetry uses
  monotonic clocks, never the RNG);
* **overhead floor** — a fully *traced* run (spans, counters, snapshot)
  costs at most ``REPRO_BENCH_OBS_OVERHEAD`` (default 5%) over the
  untraced run, best-of-3 each, on the batch engine's hardest leg — the
  n=9 multi-slot row under a random schedule from
  :mod:`bench_fused_engine`.  Untraced instrumentation is a thread-local
  read and a ``None`` check per site, so the untraced leg *is* the
  baseline: the production hot path with telemetry compiled in but off.

Besides the human-readable table, the run writes
``benchmarks/results/bench_obs.json`` (timings, overhead fraction, gate)
which CI uploads as a workflow artifact.
"""

import time

import numpy as np

from bench_fused_engine import (
    MULTI_SLOT_ATTACKED,
    MULTI_SLOT_FA,
    MULTI_SLOT_LENGTHS,
    _config,
)
from repro import obs
from repro.analysis import format_table
from repro.engine import BatchEngine
from repro.scheduling import RandomSchedule


def _assert_bit_identical(untraced_result, traced_result) -> None:
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
            getattr(untraced_result, field),
            getattr(traced_result, field),
            err_msg=f"traced != untraced on random/{field}",
        )


def _best_time(engine, samples: int, traced: bool, repeats: int = 3):
    """Best-of-N wall-clock for one leg (plus the last result for parity)."""
    config = _config()
    best = float("inf")
    result = None
    for _ in range(repeats):
        schedule = RandomSchedule()
        rng = np.random.default_rng(0)
        if traced:
            start = time.perf_counter()
            with obs.collect() as session:
                result = engine.run_rounds(config, schedule, "stretch", None, samples, rng)
                session.snapshot()  # include the export cost in the traced leg
            best = min(best, time.perf_counter() - start)
        else:
            start = time.perf_counter()
            result = engine.run_rounds(config, schedule, "stretch", None, samples, rng)
            best = min(best, time.perf_counter() - start)
    return best, result


def test_telemetry_overhead(report_writer, json_report_writer, batch_samples, obs_overhead_floor):
    """Traced vs untraced batch runs: bit identity plus the ≤5% overhead gate."""
    engine = BatchEngine()
    untraced_s, untraced_result = _best_time(engine, batch_samples, traced=False)
    traced_s, traced_result = _best_time(engine, batch_samples, traced=True)
    overhead = traced_s / untraced_s - 1.0
    rows = [
        ["untraced", f"{untraced_s * 1e3:,.1f}", f"{batch_samples / untraced_s:,.0f}", ""],
        [
            "traced",
            f"{traced_s * 1e3:,.1f}",
            f"{batch_samples / traced_s:,.0f}",
            f"{overhead * 100:+.2f}%",
        ],
    ]
    report_writer(
        "bench_obs",
        format_table(
            ["leg", "best ms", "rounds/s", "overhead"],
            rows,
            title=(
                "Telemetry overhead — batch engine, n=9 multi-slot random row "
                f"(fa={MULTI_SLOT_FA}, attacked={MULTI_SLOT_ATTACKED}, "
                f"{batch_samples:,} rounds per leg, gate ≤{obs_overhead_floor * 100:g}%)"
            ),
        ),
    )
    json_report_writer(
        "bench_obs",
        {
            "row": {
                "lengths": list(MULTI_SLOT_LENGTHS),
                "fa": MULTI_SLOT_FA,
                "attacked_indices": list(MULTI_SLOT_ATTACKED),
            },
            "samples": batch_samples,
            "untraced_seconds": untraced_s,
            "traced_seconds": traced_s,
            "overhead_fraction": overhead,
            "floor": obs_overhead_floor,
        },
    )
    # Assertions come *after* the reports, so a failing run still leaves
    # the table and the JSON behind for CI to upload and diagnose.
    _assert_bit_identical(untraced_result, traced_result)
    assert traced_s <= untraced_s * (1.0 + obs_overhead_floor), (
        f"tracing costs {overhead * 100:.2f}% over the untraced batch run "
        f"on the n=9 multi-slot random row (gate: {obs_overhead_floor * 100:g}%)"
    )
