"""Quickstart: abstract sensors, Marzullo fusion, detection and a first attack.

Run with::

    python examples/quickstart.py

The script walks through the library's core loop:

1. build a small sensor suite and take one round of measurements,
2. fuse the intervals with Marzullo's algorithm for several fault bounds,
3. run the controller's detection procedure,
4. let a stealthy attacker forge one interval and observe the effect,
5. render the round the way the paper draws its figures,
6. scale the experiment up through the pluggable engine layer
   (``engine="batch"`` runs thousands of Monte-Carlo rounds at once).
"""

from __future__ import annotations

import numpy as np

from repro import (
    AscendingSchedule,
    DescendingSchedule,
    RoundConfig,
    ScheduleComparisonConfig,
    detect,
    fuse,
    get_engine,
    max_safe_fault_bound,
    run_round,
    sensors_from_widths,
)
from repro.attack import ExpectationPolicy
from repro.sensors import SensorSuite
from repro.viz import LabeledInterval, render_fusion_figure


def section(title: str) -> None:
    print(f"\n=== {title} ===")


def main() -> None:
    rng = np.random.default_rng(7)
    true_speed = 10.0

    # ------------------------------------------------------------------
    # 1. Abstract sensors: each measurement becomes an interval whose width
    #    encodes the sensor's precision.
    # ------------------------------------------------------------------
    section("One round of measurements")
    suite = SensorSuite(sensors_from_widths([0.2, 1.0, 2.0, 4.0]))
    readings = suite.measure_all(true_speed, rng)
    for reading in readings:
        print(f"{reading.sensor_name}: measured {reading.measurement:.3f} -> interval {reading.interval}")

    # ------------------------------------------------------------------
    # 2. Marzullo fusion for increasing fault bounds.
    # ------------------------------------------------------------------
    section("Marzullo fusion for f = 0, 1 (uncertainty grows with f)")
    intervals = [reading.interval for reading in readings]
    for f in (0, 1):
        fusion = fuse(intervals, f)
        print(f"f = {f}: fusion = {fusion} (width {fusion.width:.3f})")

    # ------------------------------------------------------------------
    # 3. Controller side: fusion with the conservative f = ceil(n/2) - 1,
    #    then detection of every interval disjoint from the fusion.
    # ------------------------------------------------------------------
    section("Fusion engine with detection")
    fusion = fuse(intervals, max_safe_fault_bound(len(intervals)))
    detection = detect(intervals, fusion)
    print(f"fusion interval : {fusion}")
    print(f"point estimate  : {fusion.center:.3f} (true value {true_speed})")
    print(f"flagged sensors : {list(detection.flagged_indices) or 'none'}")

    # ------------------------------------------------------------------
    # 4. A stealthy attacker compromises the most precise sensor.  Under the
    #    Descending schedule she transmits last and can stretch the fusion
    #    interval; under Ascending she transmits first and gains nothing.
    # ------------------------------------------------------------------
    section("Stealthy attack on the most precise sensor")
    for schedule in (DescendingSchedule(), AscendingSchedule()):
        result = run_round(
            intervals,
            RoundConfig(schedule=schedule, attacked_indices=(0,), policy=ExpectationPolicy()),
            rng,
        )
        print(
            f"{schedule.name:>10}: fusion {result.fusion} "
            f"(width {result.fusion_width:.3f}, attacker detected: {result.attacker_detected})"
        )

    # ------------------------------------------------------------------
    # 5. Render the attacked round the way the paper draws its figures.
    # ------------------------------------------------------------------
    section("Figure-style rendering of the attacked (Descending) round")
    result = run_round(
        intervals,
        RoundConfig(schedule=DescendingSchedule(), attacked_indices=(0,), policy=ExpectationPolicy()),
        rng,
    )
    sensors = [
        LabeledInterval(f"s{i + 1}" + (" (attacked)" if result.is_attacked(i) else ""), interval, result.is_attacked(i))
        for i, interval in enumerate(result.broadcast)
    ]
    fusions = [LabeledInterval("fusion", result.fusion)]
    print(render_fusion_figure(sensors, fusions))

    # ------------------------------------------------------------------
    # 6. Scale up through the engine layer: the same Monte-Carlo sweep on
    #    the scalar reference loop and on the vectorized batch engine.
    #    (`engine="batch"` is 1-2 orders of magnitude faster at large
    #    sample counts; the default engine is "scalar".)
    # ------------------------------------------------------------------
    section("Same sweep on both simulation engines (greedy stretch attacker)")
    config = ScheduleComparisonConfig(lengths=(0.2, 1.0, 2.0, 4.0), fa=1)
    for name in ("scalar", "batch"):
        engine = get_engine(name)
        rounds = engine.run_rounds(
            config, DescendingSchedule(), samples=2_000, rng=np.random.default_rng(0)
        )
        print(
            f"{name:>7} engine: {rounds.samples} rounds, "
            f"mean fusion width {rounds.mean_width:.3f}, "
            f"attacker detected in {rounds.detected_fraction:.0%} of rounds"
        )


if __name__ == "__main__":
    main()
