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
from repro.batch.rounds import (
    ActiveStretchBatchAttacker,
    BatchAttacker,
    BatchRoundConfig,
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
    rounds_results,
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
            # Imported here: only the exact attacker needs its module.
            from repro.batch.expectation import ExactExpectationBatchAttacker

            return ExactExpectationBatchAttacker(
                true_value_positions=attack.true_value_positions,
                placement_positions=attack.placement_positions,
                grid_positions=attack.grid_positions,
                conservative=attack.conservative,
            )
        return ActiveStretchBatchAttacker(side=attack.side)

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
        packed result row-wise (:func:`repro.engine.base.rounds_results`)
        returns exactly the arrays of one-item calls (the ``run_many``
        conformance tests pin this).
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
            items = []
            for samples, rng in zip(budgets, streams):
                with obs.span("engine.sample", engine=self.name, samples=samples):
                    bounds = rounds.sample_correct_bounds(config.lengths, config.true_value, samples, rng)
                items.append(rounds.prepare_rounds(*bounds, round_config, rng))
            # Looked up on the module at call time, like the sampling and
            # preparation steps, so timing wrappers installed on
            # repro.batch.rounds from outside see every call.
            packed = rounds.batch_rounds_prepared(
                rounds.concat_prepared(items), round_config, streams[0]
            )
        memo = round_config.attacker.policy if isinstance(spec, ExpectationAttack) else None
        return rounds_results(self.name, schedule.name, packed, budgets, memo)
