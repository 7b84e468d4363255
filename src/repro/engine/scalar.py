"""The scalar reference engine: one Python call per simulated round.

:class:`ScalarEngine` wraps the repository's original fusion-round
simulator, :func:`repro.scheduling.round.run_round`, behind the
:class:`repro.engine.base.Engine` protocol.  It is the oracle the
vectorized :class:`repro.engine.batch.BatchEngine` is tested against: both
engines draw correct intervals through the same
:func:`repro.batch.rounds.sample_correct_bounds` call, compute transmission
orders through the same :func:`repro.batch.rounds.batch_orders` call, and
apply transient faults through the same
:class:`repro.batch.rounds.BatchTransientFaults` model — so their RNG
streams coincide and their :class:`~repro.engine.base.RoundsResult` arrays
match bit-for-bit under the deterministic attack specs (randomized
schedules included).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.attack.expectation import ExpectationPolicy
from repro.attack.policy import AttackPolicy, TruthfulPolicy
from repro.attack.stretch import ActiveStretchPolicy
from repro.batch.rounds import BatchTransientFaults, batch_orders, sample_correct_bounds
from repro.channel import ChannelSpec, realize_channel
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
)
from repro.scheduling.comparison import ScheduleComparisonConfig
from repro.scheduling.round import RoundConfig, run_round
from repro.scheduling.schedule import FixedSchedule, Schedule
from repro.utils.seeding import spawn_rng

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
        n = config.n
        attacked = config.resolved_attacked
        results = []
        for samples, rng in zip(budgets, streams):
            with obs.span("engine.run", engine=self.name, schedule=schedule.name, samples=samples):
                with obs.span("engine.prepare", engine=self.name):
                    lowers, uppers = sample_correct_bounds(
                        config.lengths, config.true_value, samples, rng
                    )
                    # Schedules order sensors by their *correct* widths (widths
                    # are the public a-priori information, and transient faults
                    # only displace an interval).  Precomputing the orders with
                    # the same vectorized call as the batch engine keeps the two
                    # RNG streams — and, down to floating-point tie-breaking on
                    # faulted rounds, the simulated rounds — bit-identical
                    # across engines.
                    orders = batch_orders(schedule, uppers - lowers, rng)
                    if faults is not None:
                        # Same fault model, mask semantics and RNG consumption
                        # as the batch engine: honest sensors only, drawn for
                        # the whole batch.
                        eligible = np.ones((samples, n), dtype=bool)
                        if attacked:
                            eligible[:, list(attacked)] = False
                        lowers, uppers, _fault_mask = faults.apply(lowers, uppers, eligible, rng)
                    # The channel draws from its own spawned child stream so
                    # that the main stream — and therefore every channel-free
                    # payload — is untouched, and every engine backend realizes
                    # the identical channel for identical (spec, samples, rng)
                    # triples.
                    realization = (
                        realize_channel(channel, samples, n, spawn_rng(rng))
                        if channel is not None
                        else None
                    )

                policy = self._policy(spec)
                fusion_lo = np.full(samples, np.nan)
                fusion_hi = np.full(samples, np.nan)
                valid = np.zeros(samples, dtype=bool)
                detected = np.zeros(samples, dtype=bool)
                broadcast_lo = np.full((samples, n), np.nan)
                broadcast_hi = np.full((samples, n), np.nan)
                flagged = np.zeros((samples, n), dtype=bool)
                with obs.span("engine.rounds", engine=self.name, samples=samples):
                    for index in range(samples):
                        intervals = [Interval(lowers[index, i], uppers[index, i]) for i in range(n)]
                        round_config = RoundConfig(
                            schedule=FixedSchedule(tuple(int(i) for i in orders[index])),
                            attacked_indices=attacked,
                            policy=policy,
                            f=config.resolved_f,
                        )
                        try:
                            result = run_round(
                                intervals,
                                round_config,
                                rng,
                                channel=None if realization is None else realization.row(index),
                            )
                        except EmptyFusionError:
                            # The batch engine reports these rounds through its
                            # `valid` mask; mirror that instead of aborting the
                            # sweep.  The per-sensor arrays keep their NaN /
                            # all-False convention for these rows on both
                            # backends.
                            continue
                        fusion_lo[index] = result.fusion.lo
                        fusion_hi[index] = result.fusion.hi
                        valid[index] = True
                        detected[index] = result.attacker_detected
                        for sensor, interval in enumerate(result.broadcast):
                            broadcast_lo[index, sensor] = interval.lo
                            broadcast_hi[index, sensor] = interval.hi
                        # Detection reports flags in slot order; re-index by
                        # sensor like the batch engine's flagged array.
                        for slot, sensor in enumerate(result.order):
                            flagged[index, sensor] = result.detection.is_flagged(slot)
                obs.add("repro_engine_samples_total", samples, engine=self.name)
                if obs.enabled() and isinstance(policy, ExpectationPolicy):
                    stats = policy.stats()
                    if stats["hits"]:
                        obs.add("repro_expectation_memo_total", stats["hits"], outcome="hit")
                    if stats["misses"]:
                        obs.add("repro_expectation_memo_total", stats["misses"], outcome="miss")
                if realization is not None:
                    obs.add(
                        "repro_channel_dropped_total",
                        int(realization.dropped.sum()),
                        engine=self.name,
                    )
                    obs.add(
                        "repro_channel_retransmits_total",
                        int(realization.retransmits.sum()),
                        engine=self.name,
                    )
            results.append(
                RoundsResult(
                    schedule_name=schedule.name,
                    fusion_lo=fusion_lo,
                    fusion_hi=fusion_hi,
                    valid=valid,
                    attacker_detected=detected,
                    broadcast_lo=broadcast_lo,
                    broadcast_hi=broadcast_hi,
                    flagged=flagged,
                    channel_dropped=None if realization is None else realization.dropped,
                    channel_retransmits=None if realization is None else realization.retransmits,
                )
            )
        return results
