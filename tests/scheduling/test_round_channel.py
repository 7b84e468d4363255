"""`run_round` over a lossy channel: what the attacker sees, what is fused.

The hand-built view pins each delivery fate of one five-slot round
(immediate, lost-then-retried, delayed in time, delayed past the round,
lost for good); the `realize_channel` tests then check the attacker's view
and the received subset against the realization for arbitrary draws.
"""

import numpy as np
import pytest

from repro.attack import ActiveStretchPolicy, AttackPolicy, TruthfulPolicy
from repro.channel import ChannelRoundView, ChannelSpec, realize_channel
from repro.core import EmptyFusionError, Interval, fuse, fuse_or_none, max_safe_fault_bound
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    FixedSchedule,
    RandomSchedule,
    RoundConfig,
    run_round,
)

# Widths grow with the index, so the ascending schedule puts sensor i in slot i.
CORRECT = [
    Interval(9.9, 10.1),
    Interval(9.7, 10.3),
    Interval(9.5, 10.5),
    Interval(9.3, 10.7),
    Interval(9.0, 11.0),
]

IN_INDEX_ORDER = FixedSchedule((0, 1, 2, 3, 4))


def hand_view() -> ChannelRoundView:
    """slot 0 immediate; 1 lost, retry delivered; 2 lands at slot 4;
    3 lands after the round (dropped); 4 lost, retry lost (dropped)."""
    return ChannelRoundView(
        lost=np.array([False, True, False, False, True]),
        arrival=np.array([0, 1, 4, 9, 4]),
        received=np.array([True, True, True, False, False]),
    )


class RecordingPolicy(AttackPolicy):
    """Forward to ``inner`` and keep every attack context the round built."""

    def __init__(self, inner: AttackPolicy | None = None) -> None:
        self.inner = inner if inner is not None else TruthfulPolicy()
        self.contexts = []

    def choose_interval(self, context, rng):
        self.contexts.append(context)
        return self.inner.choose_interval(context, rng)


class TestHandBuiltView:
    def test_attacker_sees_only_transmissions_that_arrived(self):
        policy = RecordingPolicy()
        config = RoundConfig(schedule=AscendingSchedule(), attacked_indices=(2, 3, 4), policy=policy)
        run_round(CORRECT, config, np.random.default_rng(0), channel=hand_view())
        seen = {c.slot_index: c for c in policy.contexts}
        # Slot 1 was lost and slot 2 lands at slot 4, visible only after it.
        assert seen[2].transmitted == (CORRECT[0],)
        assert seen[2].n_hidden == 1
        assert seen[3].transmitted == (CORRECT[0],)
        assert seen[3].n_hidden == 2
        assert seen[4].transmitted == (CORRECT[0],)
        assert seen[4].transmitted_compromised == (False,)
        assert seen[4].n_hidden == 3
        assert all(c.n == 5 for c in policy.contexts)

    def test_fusion_runs_over_the_received_subset(self):
        # The dropped slots 3 and 4 lean right; only slots 0-2 are fused.
        intervals = CORRECT[:3] + [Interval(10.0, 11.4), Interval(10.0, 12.0)]
        config = RoundConfig(schedule=IN_INDEX_ORDER, f=1)
        plain = run_round(intervals, config, np.random.default_rng(0))
        lossy = run_round(intervals, config, np.random.default_rng(0), hand_view())
        assert plain.fusion == Interval(10.0, 10.3)
        assert lossy.fusion == fuse(intervals[:3], 1) == Interval(9.7, 10.3)

    def test_dropped_outlier_is_never_flagged(self):
        intervals = CORRECT[:3] + [Interval(20.0, 21.0), Interval(30.0, 31.0)]
        config = RoundConfig(schedule=IN_INDEX_ORDER, f=2)
        plain = run_round(intervals, config, np.random.default_rng(0))
        assert plain.detection.flagged_indices == (3, 4)
        lossy = run_round(intervals, config, np.random.default_rng(0), hand_view())
        assert lossy.detection.flagged_indices == ()
        assert lossy.detection.cleared_indices == (0, 1, 2, 3, 4)

    def test_received_outlier_is_flagged_by_its_slot(self):
        intervals = CORRECT[:2] + [Interval(20.0, 21.0)] + CORRECT[3:]
        result = run_round(
            intervals, RoundConfig(schedule=IN_INDEX_ORDER, f=1), np.random.default_rng(0), hand_view()
        )
        assert result.detection.flagged_indices == (2,)
        assert result.fusion == fuse(intervals[:3], 1)

    def test_nothing_received_raises(self):
        view = ChannelRoundView(
            lost=np.ones(5, dtype=bool), arrival=np.arange(5), received=np.zeros(5, dtype=bool)
        )
        with pytest.raises(EmptyFusionError, match="no interval"):
            run_round(CORRECT, RoundConfig(schedule=AscendingSchedule()), np.random.default_rng(0), view)

    def test_unfusable_received_subset_raises(self):
        # f = 1 over three received, pairwise disjoint intervals needs a
        # point covered twice; none exists.
        intervals = [Interval(0.0, 1.0), Interval(2.0, 3.0), Interval(4.0, 5.0)] + CORRECT[3:]
        with pytest.raises(EmptyFusionError, match="received intervals"):
            run_round(
                intervals, RoundConfig(schedule=IN_INDEX_ORDER, f=1), np.random.default_rng(0), hand_view()
            )


SCHEDULES = [AscendingSchedule(), DescendingSchedule(), RandomSchedule()]


class TestRealizedChannel:
    @pytest.mark.parametrize("schedule", SCHEDULES, ids=["ascending", "descending", "random"])
    def test_perfect_channel_is_the_plain_round(self, schedule):
        realization = realize_channel(ChannelSpec(loss=0.0), 1, 5, np.random.default_rng(1))
        config = RoundConfig(schedule=schedule, attacked_indices=(0, 3), policy=ActiveStretchPolicy())
        plain = run_round(CORRECT, config, np.random.default_rng(2))
        lossy = run_round(CORRECT, config, np.random.default_rng(2), realization.row(0))
        assert lossy == plain

    @pytest.mark.parametrize("schedule", SCHEDULES[:2], ids=["ascending", "descending"])
    @pytest.mark.parametrize("row", [0, 3, 11])
    def test_attacker_view_and_fusion_follow_the_realization(self, schedule, row):
        spec = ChannelSpec(loss=0.35, delay=0.3, max_delay=2, retransmit_budget=2)
        view = realize_channel(spec, 12, 5, np.random.default_rng(7)).row(row)
        policy = RecordingPolicy(ActiveStretchPolicy())
        config = RoundConfig(schedule=schedule, attacked_indices=(1, 4), policy=policy)
        result = run_round(CORRECT, config, np.random.default_rng(0), view)
        order = schedule.order([c.width for c in CORRECT], np.random.default_rng(0))
        assert [c.slot_index for c in policy.contexts] == [
            slot for slot, sensor in enumerate(order) if sensor in (1, 4)
        ]
        broadcast_by_slot = [result.broadcast[s] for s in order]
        for context in policy.contexts:
            visible = np.flatnonzero(view.visible_at(context.slot_index))
            assert context.n_hidden == context.slot_index - len(visible)
            assert context.transmitted == tuple(broadcast_by_slot[s] for s in visible)
        received = np.flatnonzero(view.received)
        assert result.fusion == fuse_or_none(
            [broadcast_by_slot[s] for s in received], max_safe_fault_bound(5)
        )
        assert set(result.detection.flagged_indices) <= set(received)
