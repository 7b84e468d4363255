"""Schedule comparison: the machinery behind Table I of the paper.

For a configuration (number of sensors, interval lengths ``L``, number of
attacked sensors ``fa``) and a communication schedule, the *expected fusion
width* is the average width of the fusion interval over every combination of
correct measurements (discretised as in :mod:`repro.scheduling.enumeration`),
with the attacker acting at her scheduled slots according to a given policy.

:func:`expected_fusion_width_exhaustive` is the paper's method: enumerate
every combination (deterministic, exponential in ``n``).
:func:`compare_schedules` runs it for several schedules on the same
configuration and returns a :class:`ScheduleComparison` with one row per
schedule.  Monte-Carlo sweeps (uniformly sampled combinations, 10⁵+ trials
on the vectorized backend) go through the engine layer instead:
``repro.engine.get_engine(name).compare(...)`` or :func:`repro.api.compare`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.exceptions import ExperimentError
from repro.core.marzullo import max_safe_fault_bound
from repro.scheduling.enumeration import count_combinations, enumerate_combinations
from repro.scheduling.schedule import Schedule
from repro.utils.seeding import ensure_rng

if TYPE_CHECKING:
    from repro.attack.policy import AttackPolicy
    from repro.scheduling.round import RoundResult

__all__ = [
    "ScheduleComparisonConfig",
    "ScheduleRow",
    "ScheduleComparison",
    "default_attacked_indices",
    "expected_fusion_width_exhaustive",
    "compare_schedules",
]


@dataclass(frozen=True)
class ScheduleComparisonConfig:
    """One Table I style configuration.

    Attributes
    ----------
    lengths:
        Interval lengths ``L`` in sensor order.
    fa:
        Number of attacked sensors.
    f:
        Fusion fault bound; defaults to ``ceil(n/2) - 1`` as in the paper.
    attacked_indices:
        Which sensors are compromised.  Defaults to the ``fa`` most precise
        sensors (the strongest attacker by Theorem 4).
    true_value:
        Ground-truth value around which correct placements are enumerated.
        The expected width is translation invariant, so the default of 0 is
        only a convention.
    positions:
        Number of grid positions per sensor in the exhaustive enumeration.
    """

    lengths: tuple[float, ...]
    fa: int
    f: int | None = None
    attacked_indices: tuple[int, ...] | None = None
    true_value: float = 0.0
    positions: int = 3

    def __post_init__(self) -> None:
        n = len(self.lengths)
        if n == 0:
            raise ExperimentError("a schedule comparison needs at least one sensor")
        f = self.f if self.f is not None else max_safe_fault_bound(n)
        if not 0 <= self.fa <= f:
            raise ExperimentError(f"fa={self.fa} must satisfy 0 <= fa <= f={f}")
        if self.attacked_indices is not None and len(self.attacked_indices) != self.fa:
            raise ExperimentError(
                f"attacked_indices has {len(self.attacked_indices)} entries but fa={self.fa}"
            )

    @property
    def n(self) -> int:
        """Number of sensors."""
        return len(self.lengths)

    @property
    def resolved_f(self) -> int:
        """The fault bound actually used."""
        return self.f if self.f is not None else max_safe_fault_bound(self.n)

    @property
    def resolved_attacked(self) -> tuple[int, ...]:
        """The attacked sensor indices actually used."""
        if self.attacked_indices is not None:
            return tuple(self.attacked_indices)
        return default_attacked_indices(self.lengths, self.fa)


def default_attacked_indices(lengths: Sequence[float], fa: int) -> tuple[int, ...]:
    """The ``fa`` most precise sensors — the strongest attacked set (Theorem 4)."""
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    return tuple(sorted(order[:fa]))


@dataclass(frozen=True)
class ScheduleRow:
    """Expected fusion width of one schedule on one configuration."""

    schedule_name: str
    expected_width: float
    combinations: int
    detected_fraction: float


@dataclass(frozen=True)
class ScheduleComparison:
    """All schedule rows for one configuration, Table I style."""

    config: ScheduleComparisonConfig
    rows: tuple[ScheduleRow, ...] = field(default_factory=tuple)

    def row(self, schedule_name: str) -> ScheduleRow:
        """Return the row for ``schedule_name`` (raises if absent)."""
        for row in self.rows:
            if row.schedule_name == schedule_name:
                return row
        raise ExperimentError(f"no row for schedule {schedule_name!r}")

    def expected_width(self, schedule_name: str) -> float:
        """Shorthand for ``row(name).expected_width``."""
        return self.row(schedule_name).expected_width


def _average_rounds(results: Sequence[RoundResult]) -> tuple[float, float]:
    """Mean fusion width and fraction of rounds where the attacker was flagged."""
    if not results:
        raise ExperimentError("no rounds were simulated")
    widths = [r.fusion_width for r in results]
    detected = [1.0 if r.attacker_detected else 0.0 for r in results]
    return float(np.mean(widths)), float(np.mean(detected))


def expected_fusion_width_exhaustive(
    config: ScheduleComparisonConfig,
    schedule: Schedule,
    policy: AttackPolicy,
    rng: np.random.Generator | None = None,
    give_oracle: bool = False,
) -> ScheduleRow:
    """Expected fusion width by exhaustive enumeration (the paper's method)."""
    # The scalar round is imported here: the engines' Monte-Carlo runs only
    # need this module's configuration types.
    from repro.scheduling.round import RoundConfig, run_round

    rng = ensure_rng(rng)
    round_config = RoundConfig(
        schedule=schedule,
        attacked_indices=config.resolved_attacked,
        policy=policy,
        f=config.resolved_f,
        give_oracle=give_oracle,
    )
    results = [
        run_round(list(combo), round_config, rng)
        for combo in enumerate_combinations(config.lengths, config.true_value, config.positions)
    ]
    mean_width, detected_fraction = _average_rounds(results)
    return ScheduleRow(
        schedule_name=schedule.name,
        expected_width=mean_width,
        combinations=count_combinations(config.lengths, config.positions),
        detected_fraction=detected_fraction,
    )


def compare_schedules(
    config: ScheduleComparisonConfig,
    schedules: Sequence[Schedule],
    policy_factory=None,
    rng: np.random.Generator | None = None,
) -> ScheduleComparison:
    """Run every schedule on one configuration by exhaustive enumeration.

    Parameters
    ----------
    policy_factory:
        Zero-argument callable building a fresh attack policy per schedule
        (so per-policy caches cannot leak decisions between schedules).
        Defaults to the expectation-maximising attacker of problem (2).
    """
    if policy_factory is None:
        from repro.attack.expectation import ExpectationPolicy

        policy_factory = ExpectationPolicy
    rng = ensure_rng(rng)
    rows = tuple(
        expected_fusion_width_exhaustive(config, schedule, policy_factory(), rng)
        for schedule in schedules
    )
    return ScheduleComparison(config=config, rows=rows)
