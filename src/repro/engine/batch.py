"""The vectorized batch engine: NumPy array operations over whole batches.

:class:`BatchEngine` wraps :mod:`repro.batch` behind the
:class:`repro.engine.base.Engine` protocol: fusion-round sweeps go through
:func:`repro.batch.rounds.batch_rounds_prepared` (one vectorized pass
instead of ``B`` Python calls; the attacker type picks the per-transmission
program or the slot loop).  The engine is registered as ``"batch"``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.batch import rounds
from repro.batch.expectation import ExactExpectationBatchAttacker
from repro.batch.rounds import (
    ActiveStretchBatchAttacker,
    BatchAttacker,
    BatchRoundConfig,
    BatchRoundResult,
    BatchTransientFaults,
    TruthfulBatchAttacker,
)
from repro.channel import ChannelSpec
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
)
from repro.scheduling.comparison import ScheduleComparisonConfig
from repro.scheduling.schedule import Schedule

__all__ = ["BatchEngine"]


class BatchEngine(Engine):
    """Vectorized backend built on the :mod:`repro.batch` array kernels."""

    name = "batch"

    @staticmethod
    def _attacker(
        attack: TruthfulAttack | StretchAttack | ExpectationAttack,
    ) -> BatchAttacker:
        if isinstance(attack, TruthfulAttack):
            return TruthfulBatchAttacker()
        if isinstance(attack, ExpectationAttack):
            return ExactExpectationBatchAttacker(
                true_value_positions=attack.true_value_positions,
                placement_positions=attack.placement_positions,
                grid_positions=attack.grid_positions,
                conservative=attack.conservative,
            )
        return ActiveStretchBatchAttacker(side=attack.side)

    @staticmethod
    def _flush_attacker_stats(attacker: BatchAttacker) -> None:
        # Fold the expectation memo's per-run hit/miss tallies into the live
        # telemetry scope (no-op when tracing is off); the policy itself
        # keeps plain ints so the per-decision hot path stays lock-free.
        if not obs.enabled() or not isinstance(attacker, ExactExpectationBatchAttacker):
            return
        stats = attacker.policy.stats()
        if stats["hits"]:
            obs.add("repro_expectation_memo_total", stats["hits"], outcome="hit")
        if stats["misses"]:
            obs.add("repro_expectation_memo_total", stats["misses"], outcome="miss")

    def _flush_channel_stats(self, result: BatchRoundResult) -> None:
        realization = result.channel
        if realization is None:
            return
        obs.add("repro_channel_dropped_total", int(realization.dropped.sum()), engine=self.name)
        obs.add(
            "repro_channel_retransmits_total",
            int(realization.retransmits.sum()),
            engine=self.name,
        )

    @staticmethod
    def _rounds_result(schedule: Schedule, result: BatchRoundResult) -> RoundsResult:
        # The batch driver keeps broadcasts for empty-fusion rounds (they were
        # transmitted before fusion failed); the scalar engine aborts such
        # rounds before recording them, so the engines agree on NaN / no-flag
        # for invalid rows.  Without invalid rows (faults off, the common
        # case) the driver arrays pass through untouched.
        invalid = ~result.fusion.valid
        broadcast_lo = result.broadcast_lo
        broadcast_hi = result.broadcast_hi
        if bool(invalid.any()):
            broadcast_lo = broadcast_lo.copy()
            broadcast_hi = broadcast_hi.copy()
            broadcast_lo[invalid] = np.nan
            broadcast_hi[invalid] = np.nan
        realization = result.channel
        return RoundsResult(
            schedule_name=schedule.name,
            fusion_lo=result.fusion.lo,
            fusion_hi=result.fusion.hi,
            valid=result.fusion.valid,
            attacker_detected=result.attacker_detected,
            broadcast_lo=broadcast_lo,
            broadcast_hi=broadcast_hi,
            flagged=result.flagged,
            channel_dropped=None if realization is None else realization.dropped,
            channel_retransmits=None if realization is None else realization.retransmits,
        )

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
        """Pack every budget into one simulation pass (bit-identical split).

        Each budget samples its correct bounds, schedule orders and faults
        from its *own* RNG stream — exactly the draws a one-item call would
        make — via the per-item :func:`repro.batch.rounds.prepare_rounds`
        prologue.  The prepared items are then concatenated and the RNG-free
        simulation body runs once over the packed batch, so
        ``len(budgets)`` requests pay one invocation's overhead.  Slicing the
        packed result row-wise returns exactly the arrays of one-item calls
        (the ``run_many`` conformance tests pin this).
        """
        budgets, streams = check_run_many_args(budgets, rngs)
        spec = resolve_attack(attack)
        check_channel_support(spec, channel)
        round_config = BatchRoundConfig(
            schedule=schedule,
            attacked_indices=config.resolved_attacked,
            attacker=self._attacker(spec),
            f=config.resolved_f,
            faults=faults,
            channel=channel,
        )
        with obs.span(
            "engine.run", engine=self.name, schedule=schedule.name, samples=sum(budgets), items=len(budgets)
        ):
            items = [
                rounds.prepare_rounds(
                    *rounds.sample_correct_bounds(config.lengths, config.true_value, samples, rng),
                    round_config,
                    rng,
                )
                for samples, rng in zip(budgets, streams)
            ]
            # Looked up on the module at call time, like the sampling and
            # preparation steps, so timing wrappers installed on
            # repro.batch.rounds from outside see every call.
            packed = rounds.batch_rounds_prepared(
                rounds.concat_prepared(items), round_config, streams[0]
            )
        obs.add("repro_engine_samples_total", sum(budgets), engine=self.name)
        self._flush_attacker_stats(round_config.attacker)
        self._flush_channel_stats(packed)
        full = self._rounds_result(schedule, packed)
        results = []
        start = 0
        for samples in budgets:
            stop = start + samples
            results.append(
                RoundsResult(
                    schedule_name=full.schedule_name,
                    fusion_lo=full.fusion_lo[start:stop],
                    fusion_hi=full.fusion_hi[start:stop],
                    valid=full.valid[start:stop],
                    attacker_detected=full.attacker_detected[start:stop],
                    broadcast_lo=full.broadcast_lo[start:stop],
                    broadcast_hi=full.broadcast_hi[start:stop],
                    flagged=full.flagged[start:stop],
                    channel_dropped=(
                        None if full.channel_dropped is None else full.channel_dropped[start:stop]
                    ),
                    channel_retransmits=(
                        None
                        if full.channel_retransmits is None
                        else full.channel_retransmits[start:stop]
                    ),
                )
            )
            start = stop
        return results
