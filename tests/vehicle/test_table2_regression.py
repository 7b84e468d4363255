"""Seeded regression pin of the scalar Table II reference numbers.

The scalar case study is the oracle the batched engine is validated
against, so its seeded output must not drift silently under refactors.
These counts come from the ``table2-scalar`` catalogue scenario, the
scalar driver at a reduced-but-stable scale (60 steps, 2 vehicles, seed
2014); the percentages land close to the paper's Table II (Ascending 0/0,
Descending 17.42/17.65, Random 5.72/5.97) and preserve its Ascending <
Random < Descending ordering exactly.

The per-schedule streams are derived with
:func:`repro.utils.seeding.derive_rng` (SeedSequence spawn keys); the pins
were recomputed when that replaced the collision-prone ``seed + index``
arithmetic.
"""

import pytest

from repro.runner import run_scenario
from repro.scenarios import get_scenario

#: (upper_violations, lower_violations) per schedule for the pinned config.
PINNED_COUNTS = {
    "ascending": (0, 0),
    "descending": (27, 24),
    "random": (11, 9),
}

PINNED_CONFIG = dict(n_steps=60, n_vehicles=2, seed=2014)


@pytest.fixture(scope="module")
def pinned_rows():
    spec = get_scenario("table2-scalar")
    assert {name: getattr(spec, name) for name in PINNED_CONFIG} == PINNED_CONFIG
    return {row["schedule"]: row for row in run_scenario(spec, store=None).payload["rows"]}


def test_scalar_violation_counts_are_pinned(pinned_rows):
    for name, (upper, lower) in PINNED_COUNTS.items():
        row = pinned_rows[name]
        assert row["rounds"] == PINNED_CONFIG["n_steps"] * PINNED_CONFIG["n_vehicles"]
        measured = (row["upper_violations"], row["lower_violations"])
        assert measured == (upper, lower), (
            f"{name}: scalar Table II reference numbers drifted — got {measured}, "
            f"pinned ({upper}, {lower})"
        )


def test_paper_ordering_holds_at_pin(pinned_rows):
    totals = {
        name: sum(PINNED_COUNTS[name]) for name in ("ascending", "random", "descending")
    }
    measured = {
        name: row["upper_violations"] + row["lower_violations"]
        for name, row in pinned_rows.items()
    }
    assert measured == totals
    assert totals["ascending"] < totals["random"] < totals["descending"]
