"""Batched Monte-Carlo simulation of fusion rounds.

:func:`batch_rounds` is the vectorized counterpart of
:func:`repro.scheduling.round.run_round`: instead of simulating one round per
Python call, it takes a ``(B, n)`` array of correct sensor intervals and plays
all ``B`` rounds simultaneously — ordering sensors by the schedule, letting a
vectorized attacker forge the compromised broadcasts, optionally corrupting
honest sensors with transient faults, then fusing and running detection with
the batched sweep of :mod:`repro.batch.fuse`.

:func:`batch_rounds_prepared` is the one simulation body.  It runs one of two
array programs, and the attacker's type decides which:

* the **per-transmission program** (:func:`transmission_rounds`) for the
  deterministic, RNG-free attackers: exactly :class:`TruthfulBatchAttacker`
  and :class:`ActiveStretchBatchAttacker` (:func:`fusable_attacker`).  It
  loops over the ``fa`` compromised transmissions instead of the ``n``
  slots, because the stretch decision at a slot depends only on the
  transmitted prefix and its anchored support, never on the honest slots in
  between.  It stays in sensor space, because fusion and detection depend
  on the broadcast *set*, not on the transmission order.
* the **slot loop** (:func:`slot_loop_rounds`) for every other attacker (the
  exact expectation attacker, the side-adaptive proxy, third-party
  :class:`BatchAttacker` subclasses): the attacker's ``forge`` hook is called
  once per schedule slot with a :class:`BatchSlotContext`.

Both programs start from the same :func:`prepare_rounds` prologue and end in
the same fusion sweep, and their results are bit-identical wherever both
apply (``tests/batch/test_batch_rounds.py`` pins it).

The attacker model is :class:`ActiveStretchBatchAttacker`, a deterministic
greedy policy designed to be vectorizable while using exactly the stealth
machinery of the paper (Section III-A):

* before active mode is available the attacker falls back to the passive
  extreme placement (contain ``Δ``, extend maximally to one side) or, when her
  interval is too narrow to contain ``Δ``, to the truthful reading;
* at the first slot where active mode is available she anchors her interval on
  the extreme point covered by at least ``n - f - far`` already-transmitted
  intervals and stretches outward from it;
* every later compromised interval of the round anchors on the *same* support
  point, which keeps the protection obligation satisfied and the whole attack
  admissible.

The scalar policy :class:`repro.attack.stretch.ActiveStretchPolicy` implements
the identical decision rule through the ordinary :class:`~repro.attack.policy.AttackPolicy`
interface, so the batched driver can be property-tested round-for-round
against :func:`~repro.scheduling.round.run_round`.

Further batched attackers — including the exact expectation-maximising
attacker of problem (2) (:mod:`repro.batch.expectation`) — implement the
same :class:`BatchAttacker` interface; the catalogue with each attacker's
paper equation and scalar counterpart is in ``docs/ATTACKERS.md``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.attack.candidates import PASSIVE_WIDTH_TOL, batch_side_preference
from repro.batch.faults import BatchTransientFaults
from repro.batch.fuse import BatchFusion, batch_detect, batch_fuse, coverage_extremes
from repro.channel import ChannelRealization, ChannelSpec, realize_channel
from repro.core.exceptions import EmptyIntersectionError, ScheduleError
from repro.core.marzullo import max_safe_fault_bound
from repro import obs
from repro.scheduling.schedule import (
    AscendingSchedule,
    DescendingSchedule,
    FixedSchedule,
    RandomSchedule,
    Schedule,
)
from repro.utils.seeding import spawn_rng

__all__ = [
    "BatchSlotContext",
    "BatchAttacker",
    "TruthfulBatchAttacker",
    "ActiveStretchBatchAttacker",
    "ExpectationProxyBatchAttacker",
    "BatchTransientFaults",
    "BatchRoundConfig",
    "BatchRoundResult",
    "PreparedRounds",
    "batch_orders",
    "sample_correct_bounds",
    "prepare_rounds",
    "concat_prepared",
    "fusable_attacker",
    "batch_rounds",
    "batch_rounds_prepared",
    "slot_loop_rounds",
    "transmission_rounds",
]


@dataclass(frozen=True)
class BatchSlotContext:
    """What a batched attacker knows when one schedule slot comes up.

    All arrays have batch length ``B``; ``rows`` selects the rounds in which
    the sensor transmitting at this slot is compromised (the attacker must
    only rely on the other fields where ``rows`` is ``True``).

    ``transmitted_compromised``, ``remaining_widths`` and
    ``remaining_compromised`` carry the same lookahead information as the
    scalar :class:`repro.attack.context.AttackContext` (widths are public
    a-priori knowledge, so exposing them does not strengthen the attacker);
    they are consumed by lookahead attackers such as
    :class:`repro.batch.expectation.ExactExpectationBatchAttacker` and
    ignored by the prefix-only stretch attackers.

    ``visible`` is the lossy-channel visibility mask over the transmitted
    prefix (``(B, slot)``; ``None`` means the perfect bus, everything
    visible): attackers must only anchor on transmissions that were neither
    lost nor still in flight, mirroring the scalar context's visible-only
    ``transmitted`` tuple.
    """

    n: int
    f: int
    slot: int
    rows: np.ndarray
    width: np.ndarray
    own_lo: np.ndarray
    own_hi: np.ndarray
    delta_lo: np.ndarray
    delta_hi: np.ndarray
    transmitted_lo: np.ndarray
    transmitted_hi: np.ndarray
    far: np.ndarray
    transmitted_compromised: np.ndarray
    remaining_widths: np.ndarray
    remaining_compromised: np.ndarray
    visible: np.ndarray | None = None


class BatchAttacker(abc.ABC):
    """Vectorized attacker invoked once per schedule slot for the whole batch."""

    @abc.abstractmethod
    def forge(
        self, context: BatchSlotContext, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(B,)`` forged bounds; entries outside ``context.rows`` are ignored."""

    def reset(self, batch: int) -> None:
        """Clear per-round state before a new batch of rounds."""


class TruthfulBatchAttacker(BatchAttacker):
    """Compromised sensors simply report their correct intervals."""

    def forge(
        self, context: BatchSlotContext, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        return context.own_lo, context.own_hi


@dataclass
class ActiveStretchBatchAttacker(BatchAttacker):
    """Greedy one-sided stretch attacker (vectorized).

    Parameters
    ----------
    side:
        ``+1`` stretches the fusion interval to the right, ``-1`` to the left.

    The stretch direction is carried as a per-row array internally so that
    side-adaptive subclasses (:class:`ExpectationProxyBatchAttacker`) can pick
    a different side for every round of the batch; this base class fills the
    array with its fixed ``side`` and stays bit-identical to the scalar
    :class:`repro.attack.stretch.ActiveStretchPolicy`.
    """

    side: int = 1
    _support: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)
    _sides: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)

    def __post_init__(self) -> None:
        if self.side not in (1, -1):
            raise ScheduleError(f"stretch side must be +1 or -1, got {self.side}")

    def reset(self, batch: int) -> None:
        self._support = np.full(batch, np.nan)
        self._sides = np.full(batch, float(self.side))

    def _resolve_sides(
        self,
        context: BatchSlotContext,
        can_active: np.ndarray,
        region: BatchFusion | None,
        rng: np.random.Generator,
    ) -> None:
        """Hook deciding the stretch side for rows forging for the first time.

        The fixed-side base class has nothing to decide; ``self._sides`` was
        filled at :meth:`reset`.
        """

    def forge(
        self, context: BatchSlotContext, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._support.shape[0] != context.rows.shape[0]:
            self.reset(context.rows.shape[0])
        lo = context.own_lo.copy()
        hi = context.own_hi.copy()
        width = context.width
        support = self._support

        # Rows already carrying a protection obligation keep anchoring on it.
        have_support = context.rows & ~np.isnan(support)

        # Rows that may open active mode at this slot: enough intervals have
        # been *seen* and the support requirement is a real constraint.  On
        # the perfect bus every transmitted interval is visible, so the seen
        # count is simply the slot index; under a lossy channel it is the
        # per-row count of arrived transmissions and the support sweep masks
        # out the invisible columns.
        required = context.n - context.f - context.far
        need = context.rows & np.isnan(support)
        if context.visible is None:
            seen = context.slot
        else:
            seen = context.visible.sum(axis=1)
        can_active = need & (seen >= required) & (required >= 1)
        region: BatchFusion | None = None
        if context.slot > 0 and bool(can_active.any()):
            region = coverage_extremes(
                context.transmitted_lo,
                context.transmitted_hi,
                np.maximum(required, 1),
                mask=context.visible,
            )
        self._resolve_sides(context, can_active, region, rng)
        right = self._sides > 0

        placed = np.zeros_like(need)
        if region is not None:
            placed = can_active & region.valid
            point = np.where(right, region.hi, region.lo)
            support = np.where(placed, point, support)
        self._support = support

        anchored = have_support | placed
        lo = np.where(anchored, np.where(right, support, support - width), lo)
        hi = np.where(anchored, np.where(right, support + width, support), hi)

        # Passive extreme for rounds where active mode is not (yet) possible
        # and the forged width can contain Δ; otherwise stay truthful.
        rest = need & ~placed
        delta_width = context.delta_hi - context.delta_lo
        passive = rest & (width >= delta_width - PASSIVE_WIDTH_TOL)
        lo = np.where(passive, np.where(right, context.delta_lo, context.delta_hi - width), lo)
        hi = np.where(passive, np.where(right, context.delta_lo + width, context.delta_hi), hi)
        return lo, hi


@dataclass
class ExpectationProxyBatchAttacker(ActiveStretchBatchAttacker):
    """Side-adaptive stretch attacker — batch stand-in for the expectation policy.

    The scalar case study drives a coarse-grid
    :class:`repro.attack.expectation.ExpectationPolicy`, whose sequential
    candidate search cannot be vectorized.  This attacker reproduces its
    qualitative behaviour — attack towards whichever side the already-seen
    intervals leave the most room for — by scoring the two extreme candidate
    placements with :func:`repro.attack.candidates.batch_side_preference` at
    each row's first compromised slot and then running the regular stretch
    machinery on the chosen side.

    The stand-in is validated at the *statistics* level (violation-rate
    tolerance against the scalar Table II driver), not bit-for-bit: the
    decision grid of the expectation policy and the binary side choice here
    agree on direction, not on exact placements.
    """

    def reset(self, batch: int) -> None:
        self._support = np.full(batch, np.nan)
        self._sides = np.full(batch, np.nan)

    def _resolve_sides(
        self,
        context: BatchSlotContext,
        can_active: np.ndarray,
        region: BatchFusion | None,
        rng: np.random.Generator,
    ) -> None:
        undecided = context.rows & np.isnan(self._sides)
        if not bool(undecided.any()):
            return
        batch = undecided.shape[0]
        if context.slot == 0:
            # Nothing observed yet: no basis for a preference.
            sides = np.where(rng.random(batch) < 0.5, 1.0, -1.0)
        else:
            width = context.width
            delta_width = context.delta_hi - context.delta_lo
            passive_ok = width >= delta_width - PASSIVE_WIDTH_TOL
            # Extreme admissible candidate per side: active support anchor
            # when available, else the passive extreme, else the truthful
            # reading (whose score then ties and falls to a random side).
            right_lo = np.where(passive_ok, context.delta_lo, context.own_lo)
            left_hi = np.where(passive_ok, context.delta_hi, context.own_hi)
            if region is not None:
                active = can_active & region.valid
                right_lo = np.where(active, region.hi, right_lo)
                left_hi = np.where(active, region.lo, left_hi)
            # Tie-break on the anchor's protrusion from the attacker's best
            # true-value estimate (Δ's centre): still-unseen honest sensors
            # collapse the opposite fusion bound towards the true value, so
            # when the prefix-only widths tie, the side whose anchor sits
            # farther from the truth wins the lookahead the scalar
            # expectation policy computes explicitly.
            delta_center = (context.delta_lo + context.delta_hi) / 2.0
            sides = batch_side_preference(
                self._candidate_width(context, right_lo, right_lo + width),
                self._candidate_width(context, left_hi - width, left_hi),
                rng,
                right_tiebreak=right_lo - delta_center,
                left_tiebreak=delta_center - left_hi,
            )
        self._sides = np.where(undecided, sides, self._sides)

    @staticmethod
    def _candidate_width(
        context: BatchSlotContext, cand_lo: np.ndarray, cand_hi: np.ndarray
    ) -> np.ndarray:
        """Fusion width over (transmitted prefix + candidate) — the side score.

        This is exactly the quantity the scalar expectation policy maximises
        once every other sensor has transmitted; at earlier slots it is a
        surrogate that ignores the still-unseen sensors (whose placements are
        symmetric in expectation, so they do not bias the side choice).
        """
        k = context.transmitted_lo.shape[1]
        lowers = np.concatenate([context.transmitted_lo, cand_lo[:, None]], axis=1)
        uppers = np.concatenate([context.transmitted_hi, cand_hi[:, None]], axis=1)
        required = max(k + 1 - context.f, 1)
        fusion = coverage_extremes(lowers, uppers, required)
        return fusion.hi - fusion.lo


@dataclass(frozen=True)
class BatchRoundConfig:
    """Static configuration shared by every round of a batch.

    Mirrors :class:`repro.scheduling.round.RoundConfig` with a vectorized
    attacker, plus optional transient faults on honest sensors (the scalar
    round simulator leaves faults to the sensor-suite layer; the batch driver
    injects them directly so fault ablations can run at Monte-Carlo scale).

    The compromised set is given either as ``attacked_indices`` (the same
    sensors in every round, like the scalar simulator) or as a per-round
    ``attacked_mask`` of shape ``(B, n)`` — the form the batched case study
    needs, where a different sensor is attacked in every fusion round.
    """

    schedule: Schedule
    attacked_indices: tuple[int, ...] = ()
    attacker: BatchAttacker = field(default_factory=TruthfulBatchAttacker)
    f: int | None = None
    faults: BatchTransientFaults | None = None
    attacked_mask: np.ndarray | None = None
    channel: ChannelSpec | None = None


def batch_orders(
    schedule: Schedule,
    widths: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Transmission orders for every round as a ``(B, n)`` index array.

    The deterministic schedules (ascending / descending / fixed) are computed
    with stable vectorized sorts that reproduce their scalar tie-breaking;
    :class:`~repro.scheduling.schedule.RandomSchedule` draws one permutation
    per row.  Unknown schedule types fall back to calling ``schedule.order``
    row by row, which is slow but keeps any custom schedule usable.
    """
    batch, n = widths.shape
    if n == 0:
        raise ScheduleError("cannot schedule an empty sensor set")
    if np.any(widths <= 0):
        raise ScheduleError("interval widths must be positive")
    # Exact type checks: a subclass overriding `order` must take the generic
    # fallback, not a vectorized shortcut computing the wrong permutation.
    if type(schedule) is FixedSchedule:
        if len(schedule.permutation) != n:
            raise ScheduleError(
                f"fixed schedule covers {len(schedule.permutation)} sensors but {n} were given"
            )
        return np.tile(np.asarray(schedule.permutation, dtype=np.int64), (batch, 1))
    if type(schedule) is AscendingSchedule:
        return np.argsort(widths, axis=1, kind="stable")
    if type(schedule) is DescendingSchedule:
        return np.argsort(-widths, axis=1, kind="stable")
    if type(schedule) is RandomSchedule:
        return rng.permuted(np.tile(np.arange(n, dtype=np.int64), (batch, 1)), axis=1)
    return np.array(
        [schedule.order(row, rng) for row in widths],
        dtype=np.int64,
    )


def sample_correct_bounds(
    lengths: tuple[float, ...] | np.ndarray,
    true_value: float,
    samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``samples`` rounds of correct intervals containing ``true_value``.

    Each sensor's interval has its configured length and a uniformly random
    offset.  Both engines draw their Monte-Carlo rounds here.  The offsets
    are drawn sample-major ``(B, n)``; the bounds are written into
    sensor-major buffers and returned as their ``(B, n)`` ``.T`` views (the
    layout rule of :class:`PreparedRounds`).
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    if lengths.ndim != 1 or lengths.size == 0:
        raise ScheduleError("lengths must be a non-empty 1-D sequence")
    if np.any(lengths <= 0):
        raise ScheduleError("interval widths must be positive")
    if samples <= 0:
        raise ScheduleError(f"need a positive number of samples, got {samples}")
    offsets = rng.uniform(0.0, 1.0, (samples, lengths.size)).T
    lowers = np.multiply(offsets, lengths[:, None], out=np.empty(offsets.shape))
    np.subtract(true_value, lowers, out=lowers)
    return lowers.T, (lowers + lengths[:, None]).T


@dataclass(frozen=True)
class PreparedRounds:
    """The validated, RNG-consuming prologue shared by every simulation body.

    The slot loop and the per-transmission program both start from this
    structure, so they validate identically and — crucially — consume the
    random stream in exactly the same order (transmission orders before
    fault injection), which is what keeps their results bit-comparable.

    **The batch layout rule.**  Every per-sensor array — correct and sent
    bounds, widths, ``attacked_mask`` and ``fault_mask`` — is a ``(B, n)``
    ``.T`` view of a C-contiguous sensor-major ``(n, B)`` buffer, so a
    sensor's column is contiguous memory.  Slot-space arrays (``orders``
    and the channel realization) are C-ordered ``(B, n)``.
    """

    correct_lo: np.ndarray
    correct_hi: np.ndarray
    widths: np.ndarray
    orders: np.ndarray
    attacked: tuple[int, ...]
    attacked_mask: np.ndarray
    any_attacked: np.ndarray
    f: int
    delta_lo: np.ndarray
    delta_hi: np.ndarray
    sent_lo: np.ndarray
    sent_hi: np.ndarray
    fault_mask: np.ndarray
    channel: ChannelRealization | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.correct_lo.shape


@dataclass(frozen=True)
class BatchRoundResult:
    """Array-valued outcome of a batch of fusion rounds.

    ``prepared`` is the batch's input record.  The per-sensor arrays are
    indexed by *sensor* (not slot), like the scalar
    :class:`~repro.scheduling.round.RoundResult.broadcast`, and follow the
    batch layout rule of :class:`PreparedRounds`: ``(B, n)`` ``.T`` views of
    C-contiguous sensor-major ``(n, B)`` buffers.
    """

    prepared: PreparedRounds
    broadcast_lo: np.ndarray
    broadcast_hi: np.ndarray
    fusion: BatchFusion
    flagged: np.ndarray

    @property
    def batch(self) -> int:
        """Number of rounds in the batch."""
        return self.prepared.shape[0]

    @property
    def attacker_detected(self) -> np.ndarray:
        """``(B,)`` mask: some compromised sensor was flagged this round.

        A static attacked set ORs its sensors' ``flagged`` columns, whole
        columns at a time; per-round masks reduce along each row.
        """
        attacked = self.prepared.attacked
        if not attacked:
            return (self.flagged & self.prepared.attacked_mask).any(axis=1)
        columns = self.flagged.T
        detected = columns[attacked[0]].copy()
        for sensor in attacked[1:]:
            detected |= columns[sensor]
        return detected


def prepare_rounds(
    correct_lo: np.ndarray,
    correct_hi: np.ndarray,
    config: BatchRoundConfig,
    rng: np.random.Generator,
) -> PreparedRounds:
    """Validate a batch of rounds and draw its schedule orders and faults."""
    with obs.span("engine.prepare", kernel="batch"):
        return _prepare_rounds(correct_lo, correct_hi, config, rng)


def _prepare_rounds(
    correct_lo: np.ndarray,
    correct_hi: np.ndarray,
    config: BatchRoundConfig,
    rng: np.random.Generator,
) -> PreparedRounds:
    correct_lo = np.asarray(correct_lo, dtype=np.float64)
    correct_hi = np.asarray(correct_hi, dtype=np.float64)
    if correct_lo.ndim != 2 or correct_hi.shape != correct_lo.shape:
        raise ScheduleError(
            f"batch rounds need matching (B, n) bounds, got {correct_lo.shape} and {correct_hi.shape}"
        )
    batch, n = correct_lo.shape
    if n == 0:
        raise ScheduleError("a round needs at least one sensor")
    correct_lo, correct_hi = _sensor_major(correct_lo), _sensor_major(correct_hi)
    attacked = tuple(sorted(set(config.attacked_indices)))
    for index in attacked:
        if not 0 <= index < n:
            raise ScheduleError(f"attacked sensor index {index} out of range for n={n}")
    if config.attacked_mask is not None:
        if attacked:
            raise ScheduleError(
                "give either attacked_indices or a per-round attacked_mask, not both"
            )
        attacked_mask = np.asarray(config.attacked_mask, dtype=bool)
        if attacked_mask.shape != (batch, n):
            raise ScheduleError(
                f"attacked_mask must have shape {(batch, n)}, got {attacked_mask.shape}"
            )
        attacked_mask = _sensor_major(attacked_mask)
    else:
        static_mask = np.zeros(n, dtype=bool)
        static_mask[list(attacked)] = True
        attacked_mask = _sensor_major(np.broadcast_to(static_mask, (batch, n)))
    # A static set attacks in every round or in none; only per-round masks
    # need the row reduction.
    if config.attacked_mask is None:
        any_attacked = np.full(batch, bool(attacked))
    else:
        any_attacked = attacked_mask.any(axis=1)
    f = config.f if config.f is not None else max_safe_fault_bound(n)

    widths = correct_hi - correct_lo
    orders = batch_orders(config.schedule, widths, rng)

    if attacked:
        # Static attacked set: Δ is a running max/min over the attacked
        # columns, one ufunc call per contiguous column (identical values
        # to the masked reduction below; a reduction along a row of fa
        # entries would loop fa elements at a time on this hot path).
        delta_lo = correct_lo[:, attacked[0]].copy()
        delta_hi = correct_hi[:, attacked[0]].copy()
        for column in attacked[1:]:
            np.maximum(delta_lo, correct_lo[:, column], out=delta_lo)
            np.minimum(delta_hi, correct_hi[:, column], out=delta_hi)
        if np.any(delta_hi < delta_lo):
            raise EmptyIntersectionError(
                "the compromised sensors' correct readings have an empty intersection"
            )
    elif bool(any_attacked.any()):
        delta_lo = np.where(attacked_mask, correct_lo, -np.inf).max(axis=1)
        delta_hi = np.where(attacked_mask, correct_hi, np.inf).min(axis=1)
        if np.any((delta_hi < delta_lo) & any_attacked):
            raise EmptyIntersectionError(
                "the compromised sensors' correct readings have an empty intersection"
            )
        delta_lo = np.where(any_attacked, delta_lo, 0.0)
        delta_hi = np.where(any_attacked, delta_hi, 0.0)
    else:
        delta_lo = np.zeros(batch)
        delta_hi = np.zeros(batch)

    if config.faults is not None:
        sent_lo, sent_hi, fault_mask = config.faults.apply(
            correct_lo, correct_hi, ~attacked_mask, rng
        )
    else:
        sent_lo, sent_hi = correct_lo, correct_hi
        fault_mask = np.zeros((n, batch), dtype=bool).T

    # The channel realizes from a *spawned* child generator: spawning never
    # consumes the parent bitstream, so a channel-free run's draws — and
    # every stored payload — are untouched, while every engine backend sees
    # the identical channel for identical (spec, batch, rng) triples.
    channel = (
        realize_channel(config.channel, batch, n, spawn_rng(rng))
        if config.channel is not None
        else None
    )

    return PreparedRounds(
        correct_lo=correct_lo,
        correct_hi=correct_hi,
        widths=widths,
        orders=orders,
        attacked=attacked,
        attacked_mask=attacked_mask,
        any_attacked=any_attacked,
        f=f,
        delta_lo=delta_lo,
        delta_hi=delta_hi,
        sent_lo=sent_lo,
        sent_hi=sent_hi,
        fault_mask=fault_mask,
        channel=channel,
    )


def _sensor_major(array: np.ndarray) -> np.ndarray:
    """``array`` under the batch layout rule, copied only if it does not follow it."""
    return np.asarray(array.T, order="C").T


def concat_prepared(items: Sequence[PreparedRounds]) -> PreparedRounds:
    """Pack several prepared batches of the *same* configuration into one.

    The packing seam behind :meth:`repro.engine.batch.BatchEngine.run_many`:
    each item was prepared with its own RNG stream (so its draws match a
    standalone run exactly), and the packed batch runs the simulation body
    once.  Because the post-prepare simulation of the deterministic attack
    specs consumes no randomness, slicing the packed result row-wise is
    bit-identical to simulating every item separately.  Row-wise
    concatenation keeps the layout rule of :class:`PreparedRounds`.

    Every item must share the attacked set and fault bound (they came from
    one :class:`BatchRoundConfig`); mismatches raise rather than silently
    pooling incompatible rounds.
    """
    if not items:
        raise ScheduleError("concat_prepared needs at least one prepared batch")
    if len(items) == 1:
        return items[0]
    first = items[0]
    for item in items[1:]:
        if item.attacked != first.attacked or item.f != first.f:
            raise ScheduleError(
                "cannot pack prepared batches with different attacked sets or "
                f"fault bounds: {item.attacked}/f={item.f} vs {first.attacked}/f={first.f}"
            )
        if item.shape[1] != first.shape[1]:
            raise ScheduleError(
                f"cannot pack prepared batches with different sensor counts: "
                f"{item.shape[1]} vs {first.shape[1]}"
            )
        if (item.channel is None) != (first.channel is None) or (
            item.channel is not None
            and first.channel is not None
            and item.channel.spec != first.channel.spec
        ):
            raise ScheduleError(
                "cannot pack prepared batches with different channel specs"
            )
    def stack(name: str) -> np.ndarray:
        return np.concatenate([getattr(item, name) for item in items])

    return PreparedRounds(
        correct_lo=stack("correct_lo"),
        correct_hi=stack("correct_hi"),
        widths=stack("widths"),
        orders=stack("orders"),
        attacked=first.attacked,
        attacked_mask=stack("attacked_mask"),
        any_attacked=stack("any_attacked"),
        f=first.f,
        delta_lo=stack("delta_lo"),
        delta_hi=stack("delta_hi"),
        sent_lo=stack("sent_lo"),
        sent_hi=stack("sent_hi"),
        fault_mask=stack("fault_mask"),
        channel=(
            None
            if first.channel is None
            else ChannelRealization.concat([item.channel for item in items])
        ),
    )


def batch_rounds(
    correct_lo: np.ndarray,
    correct_hi: np.ndarray,
    config: BatchRoundConfig,
    rng: np.random.Generator,
) -> BatchRoundResult:
    """Simulate ``B`` independent fusion rounds at once.

    Parameters
    ----------
    correct_lo / correct_hi:
        ``(B, n)`` arrays with every sensor's correct reading per round, in
        sensor order (compromised sensors still have a correct reading — the
        attacker sees it).
    config:
        Batch round configuration; ``config.f`` defaults to the conservative
        ``ceil(n/2) - 1`` like the scalar simulator.
    rng:
        Random source for randomized schedules and fault injection.
    """
    return batch_rounds_prepared(prepare_rounds(correct_lo, correct_hi, config, rng), config, rng)


def fusable_attacker(config: BatchRoundConfig) -> bool:
    """Whether the per-transmission program covers ``config.attacker``.

    Exact type checks on purpose: a subclass (e.g. the side-adaptive
    :class:`ExpectationProxyBatchAttacker`, which draws randomness in
    ``_resolve_sides``) overrides parts of the decision rule the
    per-transmission program hard-codes, so it must take the slot loop.
    """
    return type(config.attacker) in (TruthfulBatchAttacker, ActiveStretchBatchAttacker)


def batch_rounds_prepared(
    prepared: PreparedRounds,
    config: BatchRoundConfig,
    rng: np.random.Generator,
) -> BatchRoundResult:
    """The simulation body over an already-prepared batch.

    Split out of :func:`batch_rounds` so packed batches
    (:func:`concat_prepared`) can run the body once over items that were
    prepared — and therefore consumed their RNG draws — independently.
    Fusable attackers (:func:`fusable_attacker`) run the per-transmission
    program, every other attacker the slot loop; ``rng`` is forwarded to
    the slot loop's ``forge`` hook, where the built-in attack-spec
    attackers are deterministic and never draw from it.
    """
    if fusable_attacker(config):
        return transmission_rounds(prepared, config)
    return slot_loop_rounds(prepared, config, rng)


def slot_loop_rounds(
    prepared: PreparedRounds,
    config: BatchRoundConfig,
    rng: np.random.Generator,
) -> BatchRoundResult:
    """The slot loop: ``config.attacker.forge`` once per schedule slot.

    Runs any :class:`BatchAttacker`; :func:`batch_rounds_prepared` routes
    only the non-fusable ones here.
    """
    batch, n = prepared.shape
    widths, orders = prepared.widths, prepared.orders
    attacked_mask = prepared.attacked_mask
    sent_lo, sent_hi = prepared.sent_lo, prepared.sent_hi
    channel = prepared.channel

    config.attacker.reset(batch)
    row_index = np.arange(batch)
    rows2 = row_index[:, None]
    transmitted_lo = np.empty((batch, n))
    transmitted_hi = np.empty((batch, n))
    sent_compromised = np.zeros(batch, dtype=np.int64)
    fa_rows = attacked_mask.sum(axis=1)
    # Widths and compromised flags rearranged into slot order, so each slot's
    # context can expose the remaining schedule as cheap array views.
    widths_by_slot = widths[rows2, orders]
    attacked_by_slot = attacked_mask[rows2, orders]

    with obs.span("engine.attack", kernel="batch", samples=batch):
        for slot in range(n):
            sensor = orders[:, slot]
            slot_lo = sent_lo[row_index, sensor]
            slot_hi = sent_hi[row_index, sensor]
            rows = attacked_mask[row_index, sensor]
            if bool(rows.any()):
                context = BatchSlotContext(
                    n=n,
                    f=prepared.f,
                    slot=slot,
                    rows=rows,
                    width=widths[row_index, sensor],
                    own_lo=prepared.correct_lo[row_index, sensor],
                    own_hi=prepared.correct_hi[row_index, sensor],
                    delta_lo=prepared.delta_lo,
                    delta_hi=prepared.delta_hi,
                    transmitted_lo=transmitted_lo[:, :slot],
                    transmitted_hi=transmitted_hi[:, :slot],
                    far=fa_rows - sent_compromised,
                    transmitted_compromised=attacked_by_slot[:, :slot],
                    remaining_widths=widths_by_slot[:, slot + 1 :],
                    remaining_compromised=attacked_by_slot[:, slot + 1 :],
                    visible=None if channel is None else channel.visible(slot),
                )
                forged_lo, forged_hi = config.attacker.forge(context, rng)
                slot_lo = np.where(rows, forged_lo, slot_lo)
                slot_hi = np.where(rows, forged_hi, slot_hi)
                sent_compromised = sent_compromised + rows
            transmitted_lo[:, slot] = slot_lo
            transmitted_hi[:, slot] = slot_hi

    with obs.span("engine.merge", kernel="batch", samples=batch):
        # Sensor-major, like the per-transmission program's buffers.
        broadcast_lo = np.empty((n, batch))
        broadcast_hi = np.empty((n, batch))
        broadcast_lo.T[rows2, orders] = transmitted_lo
        broadcast_hi.T[rows2, orders] = transmitted_hi
    return _fuse_broadcasts(prepared, broadcast_lo, broadcast_hi)


def transmission_rounds(prepared: PreparedRounds, config: BatchRoundConfig) -> BatchRoundResult:
    """The per-transmission program for the fusable attackers.

    Bit-identical to :func:`slot_loop_rounds` for
    :class:`TruthfulBatchAttacker` and :class:`ActiveStretchBatchAttacker`,
    the only attackers it accepts.  Processing each round's compromised
    transmissions in slot order observes exactly the prefixes the slot loop
    observes: honest entries are known upfront, and earlier compromised
    entries were forged in earlier iterations.
    """
    if not fusable_attacker(config):
        raise ScheduleError(
            f"the per-transmission program cannot run {type(config.attacker).__name__}; "
            "use batch_rounds_prepared"
        )
    batch = prepared.shape[0]
    # Copies of the sensor-major sent buffers double as the working transmit
    # state; a truthful attacker forges nothing (faults never hit attacked
    # sensors, so their correct readings are already in them).
    broadcast_lo = prepared.sent_lo.T.copy()
    broadcast_hi = prepared.sent_hi.T.copy()
    # The attacker protocol resets per batch even when no slot is forged.
    config.attacker.reset(batch)
    if type(config.attacker) is ActiveStretchBatchAttacker and bool(prepared.any_attacked.any()):
        with obs.span("engine.attack", kernel="batch", samples=batch):
            _forge_stretch(prepared, config.attacker.side > 0, broadcast_lo, broadcast_hi)
    return _fuse_broadcasts(prepared, broadcast_lo, broadcast_hi)


def _compromised_transmissions(prepared: PreparedRounds, fa: int) -> tuple[np.ndarray, np.ndarray]:
    """``(B, fa)`` slots and sensors of each round's compromised transmissions.

    Columns are in slot order.  Rows with fewer than ``fa`` compromised
    sensors (per-round masks) are padded with honest transmissions, which
    the caller never writes.
    """
    orders = prepared.orders
    batch, n = orders.shape
    if prepared.attacked:
        # The same fa sensors in every round: each row of the attacked-by-slot
        # matrix holds exactly fa nonzeros, found in slot order (as flat
        # indices, a single 1-D scan).
        cells = np.flatnonzero(prepared.attacked_mask[0][orders]).reshape(batch, fa)
        slots = cells - np.arange(0, batch * n, n)[:, None]
    else:
        attacked_by_slot = prepared.attacked_mask[np.arange(batch)[:, None], orders]
        # A stable sort of the honest flags moves each row's compromised
        # slots to the front, still in slot order.
        slots = np.argsort(~attacked_by_slot, axis=1, kind="stable")[:, :fa]
    return slots, np.take_along_axis(orders, slots, axis=1)


def _forge_stretch(
    prepared: PreparedRounds,
    right: bool,
    broadcast_lo: np.ndarray,
    broadcast_hi: np.ndarray,
) -> None:
    """Forge every compromised broadcast of the greedy stretch attacker in place.

    ``broadcast_lo`` / ``broadcast_hi`` are sensor-major ``(n, B)``
    C-contiguous buffers, like the prologue's widths and correct bounds, so
    all of them are read and written through one flat ``sensor * B + row``
    index (one-array ``take`` / ``put``, several times cheaper than
    two-array fancy indexing).  Each support sweep gathers its prefix
    sensor-major too, the layout :func:`coverage_extremes` counts in.
    """
    batch, n = prepared.shape
    f = prepared.f
    orders = prepared.orders
    rows = np.arange(batch)
    static = bool(prepared.attacked)  # every row attacks the same sensors
    if static:
        fa = len(prepared.attacked)
        fa_rows = np.full(batch, fa)
    else:
        fa_rows = prepared.attacked_mask.sum(axis=1)
        fa = int(fa_rows.max())
    comp_slots, comp_sensors = _compromised_transmissions(prepared, fa)
    widths = prepared.widths.T.ravel()
    correct_lo = prepared.correct_lo.T.ravel()
    correct_hi = prepared.correct_hi.T.ravel()
    # A prefix can only anchor a support when at least `required` of its
    # intervals are visible — every earlier slot on the perfect bus, only
    # the already-arrived ones under a lossy channel — so rows short of
    # that skip the sweep (it would come back invalid for them).
    channel = prepared.channel
    visible_table = None if channel is None else channel.visible_counts()
    delta_lo, delta_hi = prepared.delta_lo, prepared.delta_hi
    delta_width = delta_hi - delta_lo
    support = np.full(batch, np.nan)
    unplaced = np.ones(batch, dtype=bool)  # no anchored support yet

    for j in range(fa):
        active_rows = None if static else fa_rows > j  # None: every row
        slot = comp_slots[:, j]
        sensor = comp_sensors[:, j]
        cell = sensor * batch + rows
        width = widths.take(cell)
        need = unplaced if static else active_rows & unplaced
        seen = slot if visible_table is None else visible_table[rows, slot]
        required = n - f - (fa_rows - j)
        can_active = need & (seen >= required) & (required >= 1)
        # Bucket by prefix length: one stable sort lines the candidate rows
        # up by slot (ascending row order within each), and each group
        # sweeps a dense (slot, rows) prefix, masked only by the channel's
        # visibility.
        candidates = np.flatnonzero(can_active)
        prefix_lengths = slot[candidates]
        candidates = candidates[np.argsort(prefix_lengths, kind="stable")]
        sizes = np.bincount(prefix_lengths)
        stops = np.cumsum(sizes)
        for s in np.flatnonzero(sizes):
            group = candidates[stops[s] - sizes[s] : stops[s]]
            prefix_cells = orders[group, :s].T * batch + group
            visible = (
                None
                if channel is None
                else ~channel.lost[group, :s] & (channel.arrival[group, :s] < s)
            )
            region = coverage_extremes(
                broadcast_lo.take(prefix_cells).T,
                broadcast_hi.take(prefix_cells).T,
                required[group],
                mask=visible,
            )
            anchored_rows = group[region.valid]
            support[anchored_rows] = (region.hi if right else region.lo)[region.valid]
            unplaced[anchored_rows] = False

        anchored = ~unplaced if static else active_rows & ~unplaced
        lo = np.where(anchored, support if right else support - width, correct_lo.take(cell))
        hi = np.where(anchored, support + width if right else support, correct_hi.take(cell))
        passive = need & unplaced & (width >= delta_width - PASSIVE_WIDTH_TOL)
        lo = np.where(passive, delta_lo if right else delta_hi - width, lo)
        hi = np.where(passive, delta_lo + width if right else delta_hi, hi)
        if not static:
            writers = np.flatnonzero(active_rows)
            cell, lo, hi = cell[writers], lo[writers], hi[writers]
        broadcast_lo.put(cell, lo)
        broadcast_hi.put(cell, hi)


def _fuse_broadcasts(
    prepared: PreparedRounds, broadcast_lo: np.ndarray, broadcast_hi: np.ndarray
) -> BatchRoundResult:
    """Fusion and detection over the sensor-indexed broadcasts of both programs.

    Marzullo fusion and overlap detection depend on the broadcast *set*, not
    on the transmission order, so the sensor-space sweep returns the values
    a slot-ordered one would.  Both programs hand over sensor-major ``(n,
    B)`` C-contiguous buffers; fusion, detection and the result see their
    ``(B, n)`` ``.T`` views, so the counts kernel reads them without a copy
    and detection broadcasts each round's fusion along contiguous memory.
    """
    batch, n = prepared.shape
    f = prepared.f
    channel = prepared.channel
    broadcast_lo, broadcast_hi = broadcast_lo.T, broadcast_hi.T
    with obs.span("engine.fuse", kernel="batch", samples=batch):
        if channel is None:
            fusion = batch_fuse(broadcast_lo, broadcast_hi, f)
            flagged = batch_detect(broadcast_lo, broadcast_hi, fusion)
        else:
            # Fusion only sees what the channel delivered.  The controller
            # keeps its configured f (it cannot count losses), so the
            # per-row requirement is received_count - f; thin subsets
            # degrade to the hull of the received intervals (required <= 0)
            # and empty subsets come back invalid from the masked sweep —
            # the scalar path mirrors both degeneracies via fuse_or_none.
            # The received mask lives in slot space; scatter it into sensor
            # space through the order permutation.
            received = np.empty((n, batch), dtype=bool).T
            received[np.arange(batch)[:, None], prepared.orders] = channel.received
            fusion = coverage_extremes(
                broadcast_lo,
                broadcast_hi,
                channel.received.sum(axis=1) - f,
                mask=received,
            )
            flagged = batch_detect(broadcast_lo, broadcast_hi, fusion) & received
    return BatchRoundResult(prepared, broadcast_lo, broadcast_hi, fusion, flagged)
