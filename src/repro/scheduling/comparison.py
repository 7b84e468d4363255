"""Schedule comparison: the machinery behind Table I of the paper.

For a configuration (number of sensors, interval lengths ``L``, number of
attacked sensors ``fa``) and a communication schedule, the *expected fusion
width* is the average width of the fusion interval over every combination of
correct measurements (discretised as in :mod:`repro.scheduling.enumeration`),
with the attacker acting at her scheduled slots according to a given policy.

Two estimators are provided:

* :func:`expected_fusion_width_exhaustive` — the paper's method: enumerate
  every combination (deterministic, exponential in ``n``);
* :func:`expected_fusion_width_monte_carlo` — sample combinations uniformly;
  used for larger configurations and as a cross-check;
* the engine-layer Monte-Carlo sweep — samples combinations like the
  Monte-Carlo estimator but runs them on a registered simulation backend
  (:mod:`repro.engine`), reachable here via ``engine="batch"`` (vectorized,
  10⁵+ trials) or ``engine="scalar"``, with the attacker chosen by spec
  (``attack="stretch"`` or the exact ``attack="expectation"`` of problem
  (2), vectorized in :mod:`repro.batch.expectation`).

:func:`compare_schedules` runs several schedules on the same configuration
and returns a :class:`ScheduleComparison` with one row per schedule, which the
Table I benchmark renders directly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # repro.engine imports this module; annotation-only import
    from repro.engine.base import AttackSpec

from repro.attack.expectation import ExpectationPolicy
from repro.attack.policy import AttackPolicy
from repro.core.exceptions import ExperimentError
from repro.core.interval import Interval
from repro.core.marzullo import max_safe_fault_bound
from repro.scheduling.enumeration import count_combinations, enumerate_combinations
from repro.scheduling.round import RoundConfig, RoundResult, run_round
from repro.scheduling.schedule import Schedule
from repro.utils.seeding import ensure_rng

__all__ = [
    "ScheduleComparisonConfig",
    "ScheduleRow",
    "ScheduleComparison",
    "default_attacked_indices",
    "expected_fusion_width_exhaustive",
    "expected_fusion_width_monte_carlo",
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


def expected_fusion_width_monte_carlo(
    config: ScheduleComparisonConfig,
    schedule: Schedule,
    policy: AttackPolicy,
    samples: int,
    rng: np.random.Generator | None = None,
    give_oracle: bool = False,
) -> ScheduleRow:
    """Expected fusion width by uniform sampling of correct placements."""
    if samples <= 0:
        raise ExperimentError(f"need a positive number of samples, got {samples}")
    rng = ensure_rng(rng)
    round_config = RoundConfig(
        schedule=schedule,
        attacked_indices=config.resolved_attacked,
        policy=policy,
        f=config.resolved_f,
        give_oracle=give_oracle,
    )
    results = []
    for _ in range(samples):
        combo = [
            Interval(lo, lo + width)
            for width, lo in (
                (w, config.true_value - rng.uniform(0.0, w)) for w in config.lengths
            )
        ]
        results.append(run_round(combo, round_config, rng))
    mean_width, detected_fraction = _average_rounds(results)
    return ScheduleRow(
        schedule_name=schedule.name,
        expected_width=mean_width,
        combinations=samples,
        detected_fraction=detected_fraction,
    )


def compare_schedules(
    config: ScheduleComparisonConfig,
    schedules: Sequence[Schedule],
    policy_factory=None,
    rng: np.random.Generator | None = None,
    method: str | None = None,
    samples: int = 500,
    engine: str | object | None = None,
    attack: "AttackSpec | None" = None,
) -> ScheduleComparison:
    """Run every schedule on one configuration and collect the rows.

    Parameters
    ----------
    policy_factory:
        Zero-argument callable building a fresh attack policy per schedule
        (so per-policy caches cannot leak decisions between schedules).
        Defaults to the expectation-maximising attacker of problem (2).
        Must be left ``None`` when an ``engine`` is selected (rejected
        otherwise): engine-route attackers are chosen with the ``attack``
        spec instead.
    method:
        ``"exhaustive"`` (paper's method, the default) or ``"monte_carlo"``
        — the scalar estimator variants.
    engine:
        Select a simulation backend by name (``"scalar"``/``"batch"``, or
        any :class:`~repro.engine.base.Engine` instance) and run the
        Monte-Carlo sweep through the :mod:`repro.engine` registry.  When
        neither ``engine`` nor ``method`` is given, the ``REPRO_ENGINE``
        environment variable may route the call onto a *non-default*
        backend (``REPRO_ENGINE=scalar`` is a no-op); otherwise the scalar
        exhaustive estimator runs.
    attack:
        Engine-route attack specification (see
        :func:`repro.engine.base.resolve_attack`): ``"stretch"`` (default),
        ``"truthful"``, ``"expectation"`` / ``"expectation-conservative"``
        (the exact problem (2) attacker, vectorized on the batch engine), or
        a spec instance.  Only valid together with ``engine``: the scalar
        ``method`` estimators take a ``policy_factory`` instead.
    """
    if engine is None and method is None:
        # Env-overridable default: an explicit method always wins, and a bare
        # call keeps the paper's exhaustive estimator unless REPRO_ENGINE
        # selects a non-default backend (REPRO_ENGINE=scalar is a no-op here:
        # "scalar" is already the default backend, so nothing is rerouted).
        from repro.engine.base import DEFAULT_ENGINE, ENGINE_ENV_VAR

        env_name = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
        if env_name and env_name != DEFAULT_ENGINE:
            engine = env_name
        else:
            method = "exhaustive"
    if method is None:
        # Engine route: all backend selection goes through the registry.
        if policy_factory is not None:
            raise ExperimentError(
                "engine selection uses the engines' own attack specs and cannot honour "
                "policy_factory; pass attack=... (e.g. attack='expectation') instead"
            )
        from repro.engine import get_engine

        return get_engine(engine).compare(
            config,
            schedules,
            samples=samples,
            rng=rng,
            attack=attack if attack is not None else "stretch",
        )
    if engine is not None:
        raise ExperimentError("pass either method=... or engine=..., not both")
    if attack is not None:
        raise ExperimentError(
            "attack specs select an engine attacker; the scalar estimators take a "
            "policy_factory instead (or pass engine=... to use the spec)"
        )
    if policy_factory is None:
        policy_factory = ExpectationPolicy
    rng = ensure_rng(rng)
    rows = []
    for schedule in schedules:
        policy = policy_factory()
        if method == "exhaustive":
            row = expected_fusion_width_exhaustive(config, schedule, policy, rng)
        elif method == "monte_carlo":
            row = expected_fusion_width_monte_carlo(config, schedule, policy, samples, rng)
        else:
            raise ExperimentError(f"unknown comparison method {method!r}")
        rows.append(row)
    return ScheduleComparison(config=config, rows=tuple(rows))
