"""Simulation of one fusion round: schedule → broadcasts → fusion → detection.

A *round* is the paper's unit of analysis: every sensor transmits its interval
in its scheduled slot on the shared bus, compromised sensors instead broadcast
whatever their attack policy chooses (having seen every earlier message), and
once all ``n`` intervals are in, the controller fuses them with its fixed
``f`` and runs the detection procedure.

This is the one scalar round: the Table I style experiments, the figures,
the conformance oracle and every :class:`~repro.vehicle.landshark.LandShark`
control period all run through :func:`run_round`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.attack.context import AttackContext
from repro.attack.policy import AttackPolicy, TruthfulPolicy
from repro.attack.stealth import AttackerMode, check_admissible
from repro.channel.model import ChannelRoundView
from repro.core.detection import DetectionResult, detect
from repro.core.exceptions import EmptyFusionError, ScheduleError
from repro.core.interval import Interval, intersect_all
from repro.core.marzullo import fuse, fuse_or_none, max_safe_fault_bound
from repro.scheduling.schedule import Schedule

__all__ = ["RoundConfig", "RoundResult", "run_round"]


@dataclass(frozen=True)
class RoundConfig:
    """Static configuration of a fusion round.

    Attributes
    ----------
    f:
        Fault bound used by the controller; defaults (``None``) to the
        conservative ``ceil(n/2) - 1``.
    schedule:
        Communication schedule ordering the sensors.
    attacked_indices:
        Indices (in sensor order) of the compromised sensors.
    policy:
        Attack policy invoked for every compromised slot.
    give_oracle:
        If ``True`` the attack context exposes every correct interval of the
        round (needed by :class:`~repro.attack.omniscient.OmniscientPolicy`);
        honest partial-information experiments leave it ``False``.
    """

    schedule: Schedule
    attacked_indices: tuple[int, ...] = ()
    policy: AttackPolicy = field(default_factory=TruthfulPolicy)
    f: int | None = None
    give_oracle: bool = False


@dataclass(frozen=True)
class RoundResult:
    """Everything observable after one fusion round.

    Attributes
    ----------
    order:
        Transmission order (sensor indices) used this round.
    broadcast:
        Intervals actually broadcast, indexed by sensor (not by slot).
    correct:
        The correct readings, indexed by sensor.
    fusion:
        The controller's fusion interval.
    detection:
        Detection result over the broadcast intervals in *slot* order.
    attacked_indices:
        The compromised sensors of this round.
    attacker_modes:
        For each compromised sensor, the stealth mode its broadcast interval
        was admissible under (``None`` when it was not admissible at all —
        such an interval risks detection).
    """

    order: tuple[int, ...]
    broadcast: tuple[Interval, ...]
    correct: tuple[Interval, ...]
    fusion: Interval
    detection: DetectionResult
    attacked_indices: tuple[int, ...]
    attacker_modes: Mapping[int, AttackerMode | None]

    @property
    def fusion_width(self) -> float:
        """Width of the fusion interval (the attacker's objective)."""
        return self.fusion.width

    @property
    def attacker_detected(self) -> bool:
        """``True`` if any compromised sensor was flagged by the controller."""
        slot_of_sensor = {sensor: slot for slot, sensor in enumerate(self.order)}
        return any(
            self.detection.is_flagged(slot_of_sensor[sensor]) for sensor in self.attacked_indices
        )

    def is_attacked(self, sensor_index: int) -> bool:
        """Return ``True`` if ``sensor_index`` was compromised this round."""
        return sensor_index in self.attacked_indices


def run_round(
    correct_intervals: Sequence[Interval],
    config: RoundConfig,
    rng: np.random.Generator,
    channel: ChannelRoundView | None = None,
) -> RoundResult:
    """Simulate one fusion round.

    Parameters
    ----------
    correct_intervals:
        The correct reading of every sensor, in sensor order.  Compromised
        sensors still *have* a correct reading — the attacker sees it and may
        or may not forward it.
    config:
        Round configuration (schedule, attacked set, policy, fault bound).
    rng:
        Random source, used by randomised schedules and randomised policies.
    channel:
        Optional lossy-channel fate of this round's transmissions
        (:mod:`repro.channel`).  Attackers then see only the earlier
        transmissions that already arrived, and fusion/detection run over
        the received subset; an unfusable subset raises
        :class:`~repro.core.exceptions.EmptyFusionError` like any other
        fault overflow.
    """
    n = len(correct_intervals)
    if n == 0:
        raise ScheduleError("a round needs at least one sensor")
    attacked = tuple(sorted(set(config.attacked_indices)))
    for index in attacked:
        if not 0 <= index < n:
            raise ScheduleError(f"attacked sensor index {index} out of range for n={n}")
    f = config.f if config.f is not None else max_safe_fault_bound(n)

    widths = [s.width for s in correct_intervals]
    order = config.schedule.order(widths, rng)
    if sorted(order) != list(range(n)):
        raise ScheduleError(f"schedule produced an invalid order {order}")

    delta = (
        intersect_all([correct_intervals[i] for i in attacked]) if attacked else None
    )
    oracle = (
        {i: correct_intervals[i] for i in range(n) if i not in attacked}
        if config.give_oracle
        else None
    )

    config.policy.reset()
    broadcast_by_sensor: dict[int, Interval] = {}
    transmitted: list[Interval] = []
    transmitted_compromised: list[bool] = []
    protected_points: tuple[float, ...] = ()
    attacker_modes: dict[int, AttackerMode | None] = {}

    for slot, sensor_index in enumerate(order):
        if sensor_index not in attacked:
            interval = correct_intervals[sensor_index]
            broadcast_by_sensor[sensor_index] = interval
            transmitted.append(interval)
            transmitted_compromised.append(False)
            continue

        remaining = order[slot + 1 :]
        assert delta is not None
        if channel is None:
            visible = tuple(transmitted)
            visible_compromised = tuple(transmitted_compromised)
        else:
            # The attacker only sees transmissions that were not lost and
            # have already arrived; the rest are hidden, not absent — the
            # context still accounts for all n sensors via n_hidden.
            mask = channel.visible_at(slot)
            visible = tuple(t for t, ok in zip(transmitted, mask) if ok)
            visible_compromised = tuple(
                c for c, ok in zip(transmitted_compromised, mask) if ok
            )
        context = AttackContext(
            n=n,
            f=f,
            slot_index=slot,
            sensor_index=sensor_index,
            width=widths[sensor_index],
            own_reading=correct_intervals[sensor_index],
            delta=delta,
            transmitted=visible,
            transmitted_compromised=visible_compromised,
            remaining_widths=tuple(widths[i] for i in remaining),
            remaining_compromised=tuple(i in attacked for i in remaining),
            protected_points=protected_points,
            n_hidden=slot - len(visible),
            oracle_correct_intervals=oracle,
        )
        forged = config.policy.choose_interval(context, rng)
        admissibility = check_admissible(forged, context)
        attacker_modes[sensor_index] = admissibility.mode if admissibility.admissible else None
        if admissibility.mode is AttackerMode.ACTIVE and admissibility.support is not None:
            protected_points = protected_points + (admissibility.support,)
        broadcast_by_sensor[sensor_index] = forged
        transmitted.append(forged)
        transmitted_compromised.append(True)

    broadcast_in_sensor_order = tuple(broadcast_by_sensor[i] for i in range(n))
    if channel is None:
        fusion = fuse(list(transmitted), f)
        detection = detect(transmitted, fusion)
    else:
        # Fusion and detection only see what the channel delivered.  The
        # fault bound stays the configured f (the controller does not know
        # how many losses occurred), so a thin received subset degrades to
        # the hull (required <= 0) exactly like the batch engines' masked
        # coverage sweep.
        received_slots = [slot for slot in range(n) if channel.received[slot]]
        if not received_slots:
            raise EmptyFusionError("the channel delivered no interval this round")
        received = [transmitted[slot] for slot in received_slots]
        maybe_fusion = fuse_or_none(received, f)
        if maybe_fusion is None:
            raise EmptyFusionError(
                f"no point is covered by at least {len(received) - f} received intervals"
            )
        fusion = maybe_fusion
        subset = detect(received, fusion)
        flagged = tuple(received_slots[i] for i in subset.flagged_indices)
        detection = DetectionResult(
            fusion=fusion,
            flagged_indices=flagged,
            cleared_indices=tuple(s for s in range(n) if s not in flagged),
        )
    return RoundResult(
        order=order,
        broadcast=broadcast_in_sensor_order,
        correct=tuple(correct_intervals),
        fusion=fusion,
        detection=detection,
        attacked_indices=attacked,
        attacker_modes=attacker_modes,
    )
