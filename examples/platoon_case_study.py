"""LandShark platoon case study (the paper's Table II scenario).

Run with::

    python examples/platoon_case_study.py

Three LandShark UGVs drive in a platoon at a 10 mph target speed with a
±0.5 mph safety envelope.  Each vehicle fuses four speed sensors (two wheel
encoders, GPS, camera) over its shared bus; one uniformly random sensor per
round is under stealthy attack.  The script reports, for each communication
schedule, how often the fusion interval crosses the critical speeds that
force the safety supervisor to preempt the low-level controller.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import api
from repro.analysis import TABLE2_PAPER_RESULTS, format_percentage, format_table
from repro.scenarios import get_scenario
from repro.scheduling import DescendingSchedule
from repro.vehicle import CaseStudyConfig, Platoon

N_STEPS = 150


def violation_table(n_steps: int) -> str:
    """Table II on the scalar reference stack (the ``table2-scalar`` scenario)."""
    spec = dataclasses.replace(
        get_scenario("table2-scalar"), n_steps=n_steps, n_vehicles=3, seed=2014
    )
    by_schedule = {row["schedule"]: row for row in api.run(spec, store=None).payload["rows"]}
    rows = []
    for name in ("ascending", "descending", "random"):
        row = by_schedule[name]
        paper_upper, paper_lower = TABLE2_PAPER_RESULTS[name]
        rows.append(
            [
                name,
                format_percentage(row["upper_percentage"]),
                format_percentage(row["lower_percentage"]),
                f"{format_percentage(paper_upper)} / {format_percentage(paper_lower)}",
            ]
        )
    return format_table(
        ["schedule", "> 10.5 mph", "< 9.5 mph", "paper (upper / lower)"],
        rows,
        title=(
            f"Critical speed violations over {spec.n_steps} control periods x "
            f"{spec.n_vehicles} vehicles (one random sensor attacked per round)"
        ),
    )


def platoon_trace(n_steps: int = 50) -> str:
    """A short single-platoon trace under the Descending schedule."""
    config = CaseStudyConfig(n_steps=n_steps, n_vehicles=3, seed=1)
    platoon = Platoon(
        config.platoon_config(),
        DescendingSchedule(),
        attacked_selector=config.attacked_selector(),
    )
    rng = np.random.default_rng(1)
    lines = ["step | leader speed | fusion interval (leader) | preempted | min gap"]
    for step_index in range(n_steps):
        step = platoon.step(rng)
        leader = step.records[0]
        if step_index % 10 == 0:
            lines.append(
                f"{step_index:4d} | {leader.true_speed:12.2f} | "
                f"[{leader.fusion.lo:6.2f}, {leader.fusion.hi:6.2f}]        | "
                f"{'yes' if leader.decision.preempted else 'no ':3} | {step.min_gap:7.2f}"
            )
    return "\n".join(lines)


def main() -> None:
    print(violation_table(N_STEPS))
    print(
        "\nThe Ascending schedule forces the attacker to transmit before seeing any other"
        "\nmeasurement, so she cannot push the fusion interval over the critical speeds."
    )
    print("\nShort platoon trace (Descending schedule, leader vehicle):\n")
    print(platoon_trace())


if __name__ == "__main__":
    main()
