"""The scalar reference engine: one Python call per simulated round.

:class:`ScalarEngine` wraps the repository's original fusion-round
simulator, :func:`repro.scheduling.round.run_round`, behind the
:class:`repro.engine.base.Engine` protocol.  It is the oracle the
vectorized :class:`repro.engine.batch.BatchEngine` is tested against: both
engines draw correct intervals with
:func:`repro.batch.rounds.sample_correct_bounds`, draw transmission orders,
transient faults and the channel with the same
:func:`repro.batch.rounds.prepare_rounds` prologue, and return through the
same :func:`repro.engine.base.rounds_results` builder — so their RNG streams
coincide and their :class:`~repro.engine.base.RoundsResult` arrays match
bit-for-bit under the deterministic attack specs (randomized schedules
included).  Only the simulation body differs: here ``run_round`` plays each
prepared row with a scalar attack policy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attack.expectation import ExpectationPolicy
from repro.attack.policy import AttackPolicy, TruthfulPolicy
from repro.attack.stretch import ActiveStretchPolicy
from repro.batch import rounds
from repro.batch.fuse import BatchFusion
from repro.batch.rounds import (
    BatchRoundConfig,
    BatchRoundResult,
    BatchTransientFaults,
    PreparedRounds,
)
from repro.channel import ChannelSpec
from repro.core.exceptions import EmptyFusionError
from repro.core.interval import Interval
from repro import obs
from repro.engine.base import (
    AttackSpec,
    Engine,
    ExpectationAttack,
    RoundsResult,
    StretchAttack,
    TruthfulAttack,
    check_channel_support,
    check_run_many_args,
    resolve_attack,
    rounds_results,
)
from repro.scheduling.comparison import ScheduleComparisonConfig
from repro.scheduling.round import RoundConfig, run_round
from repro.scheduling.schedule import FixedSchedule, Schedule

__all__ = ["ScalarEngine"]


class ScalarEngine(Engine):
    """Reference backend built on the per-round Python simulator."""

    name = "scalar"

    @staticmethod
    def _policy(attack: TruthfulAttack | StretchAttack | ExpectationAttack) -> AttackPolicy:
        if isinstance(attack, TruthfulAttack):
            return TruthfulPolicy()
        if isinstance(attack, ExpectationAttack):
            # Deterministic tie-breaking keeps the policy RNG-free, so the
            # engine streams stay aligned and the batch backend's vectorized
            # expectation attacker can be compared bit-for-bit.
            return ExpectationPolicy(
                true_value_positions=attack.true_value_positions,
                placement_positions=attack.placement_positions,
                grid_positions=attack.grid_positions,
                conservative=attack.conservative,
                tie_break="first",
            )
        return ActiveStretchPolicy(side=attack.side)

    def run_many(
        self,
        config: ScheduleComparisonConfig,
        schedule: Schedule,
        attack: AttackSpec = "stretch",
        faults: BatchTransientFaults | None = None,
        budgets: Sequence[int] = (),
        rngs: Sequence[np.random.Generator] | None = None,
        channel: ChannelSpec | None = None,
    ) -> list[RoundsResult]:
        """The reference loop: one ``engine.run`` pass per ``(budget, rng)``.

        Each item gets a fresh attack policy, so no expectation memo is
        shared between items and every result equals a standalone run.
        """
        budgets, streams = check_run_many_args(budgets, rngs)
        spec = resolve_attack(attack)
        check_channel_support(spec, channel)
        round_config = BatchRoundConfig(
            schedule=schedule,
            attacked_indices=config.resolved_attacked,
            f=config.resolved_f,
            faults=faults,
            channel=channel,
        )
        results = []
        for samples, rng in zip(budgets, streams):
            with obs.span("engine.run", engine=self.name, schedule=schedule.name, samples=samples):
                with obs.span("engine.sample", engine=self.name, samples=samples):
                    bounds = rounds.sample_correct_bounds(config.lengths, config.true_value, samples, rng)
                prepared = rounds.prepare_rounds(*bounds, round_config, rng)
                policy = self._policy(spec)
                results += rounds_results(
                    self.name,
                    schedule.name,
                    self._simulate(prepared, policy, rng),
                    [samples],
                    policy if isinstance(policy, ExpectationPolicy) else None,
                )
        return results

    def _simulate(
        self, prepared: PreparedRounds, policy: AttackPolicy, rng: np.random.Generator
    ) -> BatchRoundResult:
        """Play every prepared row through ``run_round``, in the batch result shape.

        Each row's transmission order is replayed as a fixed schedule over
        the (possibly faulted) readings the prologue drew, so the rounds are
        the ones the batch programs simulate.
        """
        samples, n = prepared.shape
        fusion_lo = np.full(samples, np.nan)
        fusion_hi = np.full(samples, np.nan)
        valid = np.zeros(samples, dtype=bool)
        # Sensor-major, the batch layout rule (PreparedRounds).
        broadcast_lo = np.full((n, samples), np.nan).T
        broadcast_hi = np.full((n, samples), np.nan).T
        flagged = np.zeros((n, samples), dtype=bool).T
        with obs.span("engine.rounds", engine=self.name, samples=samples):
            for index in range(samples):
                intervals = list(map(Interval, prepared.sent_lo[index], prepared.sent_hi[index]))
                round_config = RoundConfig(
                    schedule=FixedSchedule(tuple(int(i) for i in prepared.orders[index])),
                    attacked_indices=prepared.attacked,
                    policy=policy,
                    f=prepared.f,
                )
                try:
                    result = run_round(
                        intervals,
                        round_config,
                        rng,
                        channel=None if prepared.channel is None else prepared.channel.row(index),
                    )
                except EmptyFusionError:
                    # An empty-fusion round is reported through `valid`, like
                    # the batch programs do, instead of aborting the sweep.
                    continue
                fusion_lo[index] = result.fusion.lo
                fusion_hi[index] = result.fusion.hi
                valid[index] = True
                broadcast_lo[index] = [interval.lo for interval in result.broadcast]
                broadcast_hi[index] = [interval.hi for interval in result.broadcast]
                # Detection reports flags in slot order; re-index by sensor.
                flagged[index, [result.order[slot] for slot in result.detection.flagged_indices]] = True
        return BatchRoundResult(
            prepared, broadcast_lo, broadcast_hi, BatchFusion(lo=fusion_lo, hi=fusion_hi, valid=valid), flagged
        )
