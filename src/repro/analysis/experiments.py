"""Canonical experiment configurations from the paper's evaluation section.

Keeping the exact configurations in one importable place means the scenario
catalogue, the tests, the examples and EXPERIMENTS.md all draw from the same
source of truth:

* :data:`TABLE1_CONFIGURATIONS` — the eight ``(n, fa, L)`` rows of Table I;
* :func:`figure1_intervals` — the five-sensor configuration used to draw
  Marzullo's algorithm for ``f = 0, 1, 2`` in Figure 1;
* :func:`figure2_configuration`, :func:`figure5a_configuration`,
  :func:`figure5b_configuration` — the hand-built illustrative examples;
* :data:`TABLE2_SCHEDULES` — the three schedules compared in Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # annotation-only: repro.engine is imported lazily below
    from repro.engine.base import AttackSpec

from repro.core.interval import Interval
from repro.scheduling.comparison import ScheduleComparison, ScheduleComparisonConfig
from repro.scheduling.schedule import (
    AscendingSchedule,
    DescendingSchedule,
    RandomSchedule,
    Schedule,
)

__all__ = [
    "Table1Entry",
    "TABLE1_CONFIGURATIONS",
    "TABLE1_PAPER_RESULTS",
    "TABLE2_PAPER_RESULTS",
    "TABLE2_SCHEDULES",
    "figure1_intervals",
    "figure2_configuration",
    "figure5a_configuration",
    "figure5b_configuration",
    "table1_row_name",
]


def table1_row_name(index: int) -> str:
    """Scenario-registry name of Table I row ``index`` (0-based).

    The scenario catalogue (:mod:`repro.scenarios.catalog`) registers each
    row of :data:`TABLE1_CONFIGURATIONS` under this name, so
    ``python -m repro run table1-row1`` reproduces the first row.
    """
    if not 0 <= index < len(TABLE1_CONFIGURATIONS):
        raise IndexError(f"Table I has {len(TABLE1_CONFIGURATIONS)} rows, no row index {index}")
    return f"table1-row{index + 1}"


@dataclass(frozen=True)
class Table1Entry:
    """One row of Table I: a configuration plus the paper's reported numbers."""

    n: int
    fa: int
    lengths: tuple[float, ...]
    paper_ascending: float
    paper_descending: float

    def comparison_config(self, positions: int = 3) -> ScheduleComparisonConfig:
        """Build the schedule-comparison configuration for this row."""
        return ScheduleComparisonConfig(lengths=self.lengths, fa=self.fa, positions=positions)

    def engine_comparison(
        self,
        engine: str | object | None = "batch",
        samples: int = 100_000,
        rng: np.random.Generator | None = None,
        schedules: Sequence[Schedule] | None = None,
        attack: "AttackSpec" = "stretch",
    ) -> ScheduleComparison:
        """Run this row's schedule sweep on a registered simulation engine.

        ``attack`` selects the engine attacker spec: the greedy stretch
        attacker by default, or ``"expectation"`` for the paper's exact
        problem (2) attacker (vectorized on the batch engine by
        :class:`repro.batch.expectation.ExactExpectationBatchAttacker`, so
        Table I rows run at 10³–10⁵ Monte-Carlo trials; drop ``samples``
        accordingly — the exact attacker costs more per round).  The scalar
        exhaustive path (via :meth:`comparison_config` and
        :func:`repro.scheduling.comparison.compare_schedules`) remains the
        paper-methodology reference.
        """
        from repro.engine import get_engine

        if schedules is None:
            schedules = (AscendingSchedule(), DescendingSchedule())
        return get_engine(engine).compare(
            self.comparison_config(), schedules, samples=samples, rng=rng, attack=attack
        )

    def batch_comparison(
        self,
        samples: int = 100_000,
        rng: np.random.Generator | None = None,
        schedules: Sequence[Schedule] | None = None,
        attack: "AttackSpec" = "stretch",
    ) -> ScheduleComparison:
        """Shorthand for :meth:`engine_comparison` on the batch engine."""
        return self.engine_comparison(
            "batch", samples=samples, rng=rng, schedules=schedules, attack=attack
        )


#: The eight configurations of Table I with the expected fusion lengths the
#: paper reports for the Ascending and Descending schedules.
TABLE1_CONFIGURATIONS: tuple[Table1Entry, ...] = (
    Table1Entry(3, 1, (5.0, 11.0, 17.0), 10.77, 13.58),
    Table1Entry(3, 1, (5.0, 11.0, 11.0), 9.43, 10.16),
    Table1Entry(4, 1, (5.0, 8.0, 17.0, 20.0), 7.66, 8.75),
    Table1Entry(4, 1, (5.0, 8.0, 8.0, 11.0), 6.32, 6.53),
    Table1Entry(5, 1, (5.0, 5.0, 5.0, 5.0, 20.0), 5.4, 5.57),
    Table1Entry(5, 1, (5.0, 5.0, 5.0, 14.0, 20.0), 6.33, 7.03),
    Table1Entry(5, 2, (5.0, 5.0, 5.0, 5.0, 20.0), 5.22, 5.31),
    Table1Entry(5, 2, (5.0, 5.0, 5.0, 14.0, 17.0), 6.87, 7.74),
)

#: Paper numbers of Table I keyed by (n, fa, lengths) for quick lookup.
TABLE1_PAPER_RESULTS = {
    (entry.n, entry.fa, entry.lengths): (entry.paper_ascending, entry.paper_descending)
    for entry in TABLE1_CONFIGURATIONS
}

#: Table II of the paper: percentage of rounds above 10.5 mph / below 9.5 mph.
TABLE2_PAPER_RESULTS = {
    "ascending": (0.0, 0.0),
    "descending": (17.42, 17.65),
    "random": (5.72, 5.97),
}

#: The schedules compared in the case study, in the paper's column order.
TABLE2_SCHEDULES = (AscendingSchedule(), DescendingSchedule(), RandomSchedule())


def figure1_intervals() -> list[Interval]:
    """A five-sensor configuration illustrating Marzullo's algorithm (Fig. 1).

    The exact numbers in the paper's figure are not given; this configuration
    reproduces its qualitative structure — five partially overlapping
    intervals whose fusion interval grows as ``f`` increases from 0 to 2.
    """
    return [
        Interval(0.0, 4.0),
        Interval(1.5, 5.5),
        Interval(3.0, 6.0),
        Interval(3.5, 9.0),
        Interval(3.8, 10.0),
    ]


def figure2_configuration() -> dict[str, Interval | float]:
    """The Figure 2 setup: attacker has seen only ``s1`` when placing ``a1``.

    Returns the seen correct interval ``s1``, the two possible positions of
    the unseen correct interval ``s2`` (left / right of ``s1``), and the width
    of the attacked interval — enough to demonstrate that neither one-sided
    nor two-sided placement of ``a1`` is optimal for both realisations.
    """
    return {
        "s1": Interval(4.0, 10.0),
        "s2_left": Interval(1.0, 6.0),
        "s2_right": Interval(8.0, 13.0),
        "attacked_width": 3.0,
        "f": 1,
    }


def figure5a_configuration() -> dict[str, object]:
    """Figure 5(a): an example where the Ascending schedule is better.

    Three sensors; the attacked one is the most precise.  Under Descending the
    attacker sees the two wide intervals before placing hers and can stretch
    the fusion interval much further than under Ascending, where she must
    commit first.
    """
    return {
        "correct": [Interval(4.0, 14.0), Interval(6.0, 16.0)],
        "attacked_width": 4.0,
        "attacked_reading": Interval(7.0, 11.0),
        "f": 1,
    }


def figure5b_configuration() -> dict[str, object]:
    """Figure 5(b): an example where the Descending schedule is better.

    The two precise intervals nearly coincide while the wide interval hangs
    far to one side; seeing the wide interval first (Descending) tempts the
    attacker into a placement that ends up worse than the Ascending one.
    """
    return {
        "correct_small": [Interval(5.0, 7.0), Interval(5.5, 7.5)],
        "correct_large": Interval(6.0, 18.0),
        "attacked_width": 3.0,
        "attacked_reading": Interval(5.0, 8.0),
        "f": 1,
    }
