"""Per-round realization of a :class:`~repro.channel.spec.ChannelSpec`.

:func:`realize_channel` is the single place channel randomness is drawn, so
every engine backend consumes an identical stream for identical specs.  The
draw order is part of the bit-identity contract (the conformance suite
compares engines bit-for-bit under every channel spec):

1. loss uniforms over all ``n + retransmit_budget`` slots — one
   ``(batch, n + R)`` draw for ``model="iid"``; for ``"gilbert-elliott"``
   one ``(batch, n + R)`` draw of state uniforms (column 0 against the
   stationary bad probability, later columns against the transition
   probabilities) followed by one ``(batch, n + R)`` draw of loss uniforms;
2. delay — only when ``spec.delay > 0``: one ``(batch, n)`` uniform draw
   for which transmissions are delayed, then one ``(batch, n)``
   ``integers(1, max_delay + 1)`` draw for by how much.

Semantics (see ``docs/CHANNELS.md`` for the prose version):

* a transmission in slot ``s`` is **lost** when its loss uniform fires; a
  lost transmission reaches nobody and can be **retransmitted**;
* a surviving transmission **arrives** at ``s`` (or later when delayed).
  An attacker choosing its forgery in slot ``t`` sees exactly the
  transmissions with ``arrival < t`` — a delayed interval is invisible
  until it lands;
* the round has ``n + tail_used`` delivery opportunities, where
  ``tail_used = min(#lost, retransmit_budget)``: the first
  ``retransmit_budget`` lost transmissions (in slot order) are retried in
  the tail slots, each retry subject to the same loss process.  A message
  reaches fusion when it arrives before the round closes or its retry
  succeeds.  Delayed-past-the-end messages are *not* retried — delivery
  was acknowledged, just late;
* retransmissions land in tail slots ``>= n``, so they are never visible
  to an attacker forging in slots ``0..n-1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.spec import ChannelSpec

__all__ = ["ChannelRealization", "ChannelRoundView", "realize_channel"]


@dataclass(frozen=True, eq=False)
class ChannelRoundView:
    """One round's slice of a :class:`ChannelRealization` (all arrays 1-D)."""

    lost: np.ndarray
    arrival: np.ndarray
    received: np.ndarray

    def visible_at(self, slot: int) -> np.ndarray:
        """(slot,) bool — which earlier transmissions are visible in ``slot``."""
        return ~self.lost[:slot] & (self.arrival[:slot] < slot)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """The concrete fate of every transmission in a batch of rounds.

    All arrays are indexed in **slot space** (column ``s`` is the ``s``-th
    transmission of the schedule, not sensor ``s``).
    """

    spec: ChannelSpec
    #: (batch, n) bool — the original transmission in slot ``s`` was lost.
    lost: np.ndarray
    #: (batch, n) int — slot index at which a surviving transmission lands
    #: (``>= s``; meaningless where ``lost``).
    arrival: np.ndarray
    #: (batch, n) bool — the slot's interval reaches fusion (directly,
    #: delayed-but-in-time, or via a successful retransmission).
    received: np.ndarray
    #: (batch,) int — transmissions that never reached fusion this round.
    dropped: np.ndarray
    #: (batch,) int — tail slots consumed by retransmission attempts.
    retransmits: np.ndarray

    @property
    def batch(self) -> int:
        return self.lost.shape[0]

    @property
    def n(self) -> int:
        return self.lost.shape[1]

    def received_counts(self) -> np.ndarray:
        """(batch,) int — transmissions that reached fusion per round."""
        return self.received.sum(axis=1)

    def visible(self, slot: int) -> np.ndarray:
        """(batch, slot) bool — earlier transmissions visible *in* ``slot``.

        A transmission from slot ``s < slot`` is visible to a sensor (or
        attacker) acting in ``slot`` iff it was not lost and has already
        arrived.  Retransmissions occupy tail slots ``>= n`` and are never
        visible here.
        """
        return ~self.lost[:, :slot] & (self.arrival[:, :slot] < slot)

    def visible_counts(self) -> np.ndarray:
        """(batch, n + 1) int — visible transmissions per observing slot.

        ``table[b, t]`` counts the transmissions of round ``b`` that are
        visible in slot ``t`` (``= self.visible(t)[b].sum()``), for every
        ``t`` at once: a non-lost message is visible at ``t`` exactly when
        its arrival slot is ``< t``, so one histogram of arrival slots plus
        a cumulative sum answers all slots without per-slot masking — the
        per-transmission program's replacement for the slot loop's
        per-slot ``visible.sum(axis=1)``.
        """
        batch, n = self.lost.shape
        landing = np.where(self.lost, n, np.minimum(self.arrival, n)).astype(np.int64)
        occupancy = np.zeros((batch, n + 1), dtype=np.int64)
        np.add.at(occupancy, (np.arange(batch)[:, None], landing), 1)
        table = np.zeros((batch, n + 1), dtype=np.int64)
        np.cumsum(occupancy[:, :n], axis=1, out=table[:, 1:])
        return table

    def row(self, index: int) -> ChannelRoundView:
        """The per-round view consumed by the scalar simulator."""
        return ChannelRoundView(
            lost=self.lost[index],
            arrival=self.arrival[index],
            received=self.received[index],
        )

    @staticmethod
    def concat(items: "list[ChannelRealization]") -> "ChannelRealization":
        """Stack realizations of the same spec (``Engine.run_many`` packing)."""
        specs = {item.spec for item in items}
        if len(specs) != 1:
            raise ValueError(f"cannot concatenate realizations of {len(specs)} distinct specs")
        return ChannelRealization(
            spec=items[0].spec,
            lost=np.concatenate([item.lost for item in items], axis=0),
            arrival=np.concatenate([item.arrival for item in items], axis=0),
            received=np.concatenate([item.received for item in items], axis=0),
            dropped=np.concatenate([item.dropped for item in items], axis=0),
            retransmits=np.concatenate([item.retransmits for item in items], axis=0),
        )


def realize_channel(
    spec: ChannelSpec, batch: int, n: int, rng: np.random.Generator
) -> ChannelRealization:
    """Draw the fate of every transmission for ``batch`` rounds of ``n`` slots.

    ``rng`` must be the channel's **own spawned child** generator
    (``parent.spawn(1)[0]``), never the engine's main stream — spawning does
    not consume the parent bitstream, which is what keeps channel-free
    payloads bit-identical to builds without this module.
    """
    budget = spec.retransmit_budget
    total = n + budget

    if spec.model == "iid":
        lost_full = rng.random((batch, total)) < spec.loss
    else:  # gilbert-elliott
        state_uniform = rng.random((batch, total))
        denominator = spec.good_to_bad + spec.bad_to_good
        stationary_bad = spec.good_to_bad / denominator if denominator > 0.0 else 0.0
        state_bad = np.empty((batch, total), dtype=bool)
        state_bad[:, 0] = state_uniform[:, 0] < stationary_bad
        for slot in range(1, total):
            previous = state_bad[:, slot - 1]
            state_bad[:, slot] = np.where(
                previous,
                state_uniform[:, slot] >= spec.bad_to_good,
                state_uniform[:, slot] < spec.good_to_bad,
            )
        loss_probability = np.where(state_bad, spec.loss_bad, spec.loss_good)
        lost_full = rng.random((batch, total)) < loss_probability

    slots = np.arange(n, dtype=np.int64)
    if spec.delay > 0.0:
        delayed = rng.random((batch, n)) < spec.delay
        amounts = rng.integers(1, spec.max_delay + 1, size=(batch, n))
        arrival = slots[None, :] + np.where(delayed, amounts, 0)
    else:
        arrival = np.broadcast_to(slots, (batch, n)).copy()

    lost = lost_full[:, :n]
    lost_counts = lost.sum(axis=1)
    tail_used = np.minimum(lost_counts, budget)

    # The k-th lost transmission (slot order, zero-based rank = exclusive
    # cumulative count) is retried in tail slot n + k while k < budget; the
    # retry succeeds when the tail slot's own loss uniform spares it.
    rank = np.cumsum(lost, axis=1) - lost
    if budget > 0:
        tail_index = np.minimum(n + rank, total - 1)
        retry_ok = lost & (rank < budget) & ~np.take_along_axis(lost_full, tail_index, axis=1)
    else:
        retry_ok = np.zeros_like(lost)

    round_end = n + tail_used
    received = (~lost & (arrival < round_end[:, None])) | retry_ok
    dropped = (n - received.sum(axis=1)).astype(np.int64)
    return ChannelRealization(
        spec=spec,
        lost=lost,
        arrival=arrival,
        received=received,
        dropped=dropped,
        retransmits=tail_used.astype(np.int64),
    )
