"""Vectorized Table II — the platoon case study at Monte-Carlo scale.

The scalar case study (:mod:`repro.vehicle.case_study`) steps every LandShark
through the full object stack — sensor suite, scalar fusion round with its
attack policy, PI controller, safety supervisor, longitudinal dynamics — one
control period at a time, which caps Table II at a few hundred rounds per
schedule.  This module replays the *same* closed loop as array operations:

* one state vector per simulated vehicle, across ``n_replicas`` independent
  platoon replicas (vehicles of the scalar platoon are dynamically uncoupled
  — the leader only shares the target speed — so batching over
  ``replicas × vehicles`` is exact, not an approximation);
* each control period measures all sensors at once, draws the per-round
  attacked sensor, and plays every fusion round of the batch through
  :func:`repro.batch.rounds.batch_rounds` with a per-round attacked mask;
* the PI controller, the supervisor's violation checks and preemption rule,
  and the first-order speed dynamics are all elementwise array updates that
  mirror :class:`~repro.vehicle.controller.SpeedController`,
  :class:`~repro.vehicle.supervisor.SafetySupervisor` and
  :class:`~repro.vehicle.dynamics.LongitudinalVehicle` exactly.

The attacker is :class:`~repro.batch.rounds.ExpectationProxyBatchAttacker`,
the vectorized stand-in for the scalar coarse-grid expectation policy; the
equivalence is validated at the statistics level (violation-rate tolerance
and the paper's Ascending < Random < Descending ordering), not bit-for-bit —
see ``tests/batch/test_case_study_batch.py``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.batch.rounds import (
    BatchAttacker,
    BatchRoundConfig,
    ExpectationProxyBatchAttacker,
    batch_rounds,
)
from repro.core.exceptions import ExperimentError
from repro.core.marzullo import max_safe_fault_bound
from repro.scheduling.schedule import Schedule
from repro.utils.seeding import ensure_rng
from repro.vehicle.case_study import CaseStudyConfig, ViolationStats
from repro.vehicle.controller import SpeedController
from repro.vehicle.dynamics import VehicleParameters
from repro.vehicle.landshark import landshark_suite
from repro.vehicle.selection import (
    AttackedSensorSelector,
    FixedSelector,
    MostPreciseSelector,
    NoAttackSelector,
    RandomSensorSelector,
)
from repro.vehicle.supervisor import PREEMPT_GAIN

__all__ = ["batch_case_study_for_schedule"]


def _attacked_indices_per_round(
    selector: AttackedSensorSelector,
    n_sensors: int,
    widths: np.ndarray,
    batch: int,
    rng: np.random.Generator,
) -> np.ndarray | None:
    """Vectorize one selector draw: ``(B, count)`` indices or ``None`` (no attack)."""
    if isinstance(selector, NoAttackSelector):
        return None
    if isinstance(selector, RandomSensorSelector):
        if selector.count == 1:
            return rng.integers(0, n_sensors, size=(batch, 1))
        # k distinct sensors per row: order a random matrix and keep the first k.
        return np.argsort(rng.random((batch, n_sensors)), axis=1)[:, : selector.count]
    if isinstance(selector, MostPreciseSelector):
        order = sorted(range(n_sensors), key=lambda i: (widths[i], i))
        fixed = np.asarray(sorted(order[: selector.count]), dtype=np.int64)
        return np.tile(fixed, (batch, 1))
    if isinstance(selector, FixedSelector):
        fixed = np.asarray(sorted(set(selector.indices)), dtype=np.int64)
        if fixed.size == 0:
            return None
        return np.tile(fixed, (batch, 1))
    raise ExperimentError(
        f"cannot vectorize attacked-sensor selector {type(selector).__name__}; "
        "use the scalar case-study engine for custom selectors"
    )


def batch_case_study_for_schedule(
    config: CaseStudyConfig,
    schedule: Schedule,
    n_replicas: int,
    rng: np.random.Generator | None = None,
    attacker_factory: Callable[[], BatchAttacker] | None = None,
) -> ViolationStats:
    """Run the platoon under one schedule with all rounds of a step batched.

    Parameters
    ----------
    n_replicas:
        Independent platoon replicas evolved in parallel; the returned
        statistics cover ``n_replicas * n_vehicles * n_steps`` fusion rounds.
    attacker_factory:
        Zero-argument callable building the vectorized attacker (defaults to
        :class:`~repro.batch.rounds.ExpectationProxyBatchAttacker`, the
        stand-in for the scalar case study's expectation policy).
    """
    if n_replicas <= 0:
        raise ExperimentError(f"need a positive number of replicas, got {n_replicas}")
    rng = ensure_rng(rng, config.seed)
    attacker = attacker_factory() if attacker_factory is not None else ExpectationProxyBatchAttacker()

    suite = landshark_suite()
    widths = np.asarray(suite.widths, dtype=np.float64)
    n = widths.size
    f = max_safe_fault_bound(n)
    selector = config.attacked_selector()
    # One scalar selector call up front reuses the selectors' own validation
    # (index ranges, counts), so a bad attacked_sensor spec fails with the
    # same descriptive ExperimentError as the scalar engine instead of a raw
    # indexing error from the vectorized mask assignment below.
    selector.select(suite, np.random.default_rng(0))
    limits = config.platoon_config().limits()
    params = VehicleParameters()
    controller = SpeedController()

    batch = n_replicas * config.n_vehicles
    speed = np.full(batch, config.target_speed)
    integral = np.zeros(batch)
    row_index = np.arange(batch)
    upper_count = 0
    lower_count = 0

    for _ in range(config.n_steps):
        # Measure: every interval has its configured width and contains the
        # true speed, exactly like Sensor.measure with UniformNoise.
        lowers = speed[:, None] - rng.uniform(0.0, 1.0, (batch, n)) * widths
        uppers = lowers + widths

        indices = _attacked_indices_per_round(selector, n, widths, batch, rng)
        attacked_mask = np.zeros((batch, n), dtype=bool)
        if indices is not None:
            attacked_mask[row_index[:, None], indices] = True

        round_config = BatchRoundConfig(
            schedule=schedule,
            attacker=attacker,
            f=f,
            attacked_mask=attacked_mask,
        )
        result = batch_rounds(lowers, uppers, round_config, rng)
        fusion = result.fusion
        valid = fusion.valid

        # Supervisor review: violation bookkeeping plus preemption.
        upper_violation = valid & (fusion.hi > limits.upper_limit)
        lower_violation = valid & (fusion.lo < limits.lower_limit)
        upper_count += int(upper_violation.sum())
        lower_count += int(lower_violation.sum())

        # PI controller on the fused point estimate (fall back to the target
        # on the measure-zero chance of an empty fusion, i.e. zero command).
        estimate = np.where(valid, fusion.center, limits.target_speed)
        error = limits.target_speed - estimate
        integral = np.clip(
            integral + error * params.dt, -controller.integral_limit, controller.integral_limit
        )
        command = controller.kp * error + controller.ki * integral
        # Preemption mirrors SafetySupervisor.review: braking wins when both
        # bounds are violated.
        command = np.where(
            upper_violation,
            -PREEMPT_GAIN * (fusion.hi - limits.upper_limit),
            np.where(lower_violation, PREEMPT_GAIN * (limits.lower_limit - fusion.lo), command),
        )

        # Longitudinal dynamics with saturated acceleration and bounded
        # process disturbance, clipped to the physical speed range.
        accel = np.clip(command, -params.max_accel, params.max_accel)
        disturbance = rng.uniform(-params.max_disturbance, params.max_disturbance, batch)
        speed = np.clip(
            speed + params.dt * (accel - params.drag * speed) + disturbance,
            0.0,
            params.max_speed,
        )

    return ViolationStats(
        schedule_name=schedule.name,
        rounds=batch * config.n_steps,
        upper_violations=upper_count,
        lower_violations=lower_count,
    )

