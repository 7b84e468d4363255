"""Seeded regression pin of the batch Table II case study.

``tests/vehicle/test_table2_regression.py`` pins the scalar oracle; the
batch attackers are otherwise checked only at the statistics level
(``test_case_study_batch.py``).  These counts pin both batch attackers —
the vectorized proxy and the exact problem (2) attacker — on a small
two-shard platoon (2 vehicles, seed 2014), so a refactor of the batch
round programs or of the case-study loop cannot move Table II silently.

Each shard runs every schedule on its own ``derive_rng(seed, schedule,
shard)`` stream; two shards per scenario keep that merge in the pin.
"""

import pytest

from repro.runner import run_scenario
from repro.scenarios.spec import CaseStudyScenario

#: attacker -> (n_steps, n_replicas): two shards of n_replicas // 2 each.
PINNED_SCALE = {"proxy": (40, 4), "exact": (30, 2)}

#: attacker -> schedule -> (upper_violations, lower_violations).
PINNED_COUNTS = {
    "proxy": {"ascending": (0, 0), "descending": (48, 52), "random": (15, 22)},
    "exact": {"ascending": (0, 0), "descending": (16, 27), "random": (8, 7)},
}


def pinned_spec(attacker: str) -> CaseStudyScenario:
    n_steps, n_replicas = PINNED_SCALE[attacker]
    return CaseStudyScenario(
        name=f"table2-batch-pin-{attacker}",
        attacker=attacker,
        n_steps=n_steps,
        n_vehicles=2,
        n_replicas=n_replicas,
        shard_replicas=n_replicas // 2,
        seed=2014,
    )


@pytest.mark.parametrize("attacker", sorted(PINNED_COUNTS))
def test_batch_violation_counts_are_pinned(attacker):
    spec = pinned_spec(attacker)
    rows = {row["schedule"]: row for row in run_scenario(spec, store=None, workers=1).payload["rows"]}
    for name, (upper, lower) in PINNED_COUNTS[attacker].items():
        row = rows[name]
        assert row["rounds"] == spec.n_steps * spec.n_vehicles * spec.n_replicas
        measured = (row["upper_violations"], row["lower_violations"])
        assert measured == (upper, lower), (
            f"{attacker}/{name}: batch Table II counts drifted — got {measured}, pinned ({upper}, {lower})"
        )
    totals = {name: sum(counts) for name, counts in PINNED_COUNTS[attacker].items()}
    assert totals["ascending"] < totals["random"] < totals["descending"]
