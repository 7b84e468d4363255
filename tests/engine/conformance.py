"""The registry-driven engine conformance suite.

One contract, every backend: a registered engine must be bit-identical to
the scalar reference oracle under the deterministic attack specs, fill the
complete :class:`~repro.engine.base.RoundsResult` (per-sensor arrays
included), and consume the shared random stream with perfect discipline.
``tests/engine/test_conformance.py`` parametrises these checks over
:func:`repro.engine.available_engines`, so a new backend — a jax engine,
say — inherits the whole suite the moment ``register_engine`` runs;
nothing needs hand-wiring per backend.

The module holds the conformance *matrix* (configurations × schedules ×
attacks × fault models) and the check implementations; scalar-oracle
results are memoised per case so the expensive reference loop runs once
regardless of how many engines are registered.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.batch.rounds import BatchTransientFaults, batch_orders, sample_correct_bounds
from repro.channel import ChannelSpec
from repro.engine import RoundsResult, get_engine
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    FixedSchedule,
    RandomSchedule,
    ScheduleComparisonConfig,
)

__all__ = [
    "ConformanceCase",
    "CONFORMANCE_MATRIX",
    "conformance_ids",
    "assert_rounds_equal",
    "oracle_rounds",
    "check_oracle_parity",
    "check_result_completeness",
    "check_rng_discipline",
]

_SCHEDULES = {
    "ascending": AscendingSchedule,
    "descending": DescendingSchedule,
    "random": RandomSchedule,
    "fixed": lambda: FixedSchedule((2, 0, 3, 1, 4)),
}


@dataclass(frozen=True)
class ConformanceCase:
    """One cell of the conformance matrix (hashable, so oracles memoise)."""

    label: str
    lengths: tuple[float, ...]
    fa: int
    schedule: str
    attack: str = "stretch"
    f: int | None = None
    fault_probability: float = 0.0
    samples: int = 96
    seed: int = 2014
    #: Optional lossy-channel spec (frozen, so the case stays hashable).
    channel: ChannelSpec | None = None
    #: Explicit attacked sensors; ``None`` attacks the ``fa`` most precise.
    attacked: tuple[int, ...] | None = None

    def config(self) -> ScheduleComparisonConfig:
        return ScheduleComparisonConfig(
            lengths=self.lengths, fa=self.fa, f=self.f, attacked_indices=self.attacked
        )

    def schedule_object(self):
        return _SCHEDULES[self.schedule]()

    def faults(self) -> BatchTransientFaults | None:
        if self.fault_probability == 0.0:
            return None
        return BatchTransientFaults(probability=self.fault_probability)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


#: The conformance matrix: stretch (both sides) and the exact expectation
#: attacker, transient faults on and off, deterministic / fixed / random
#: schedules, single and multi-sensor attacks.  The expectation cells run
#: tiny batches — the scalar oracle's grid search costs seconds per round.
CONFORMANCE_MATRIX: tuple[ConformanceCase, ...] = (
    ConformanceCase("stretch-asc", (5.0, 11.0, 17.0), 1, "ascending"),
    ConformanceCase("stretch-desc-fa2", (2.0, 3.0, 3.0, 6.0, 8.0), 2, "descending"),
    ConformanceCase("stretch-left-fixed", (2.0, 3.0, 3.0, 6.0, 8.0), 2, "fixed", attack="stretch-left"),
    ConformanceCase("stretch-random", (1.0, 2.0, 3.0, 4.0, 5.0), 1, "random"),
    ConformanceCase("truthful-desc", (5.0, 11.0, 17.0), 1, "descending", attack="truthful"),
    ConformanceCase(
        "stretch-faults", (1.0, 1.0, 1.0, 1.0, 1.0), 1, "ascending", f=2,
        fault_probability=0.35, samples=256,
    ),
    ConformanceCase(
        "stretch-random-faults", (2.0, 3.0, 3.0, 6.0, 8.0), 2, "random",
        fault_probability=0.2, samples=128,
    ),
    ConformanceCase("expectation-asc", (5.0, 11.0, 17.0), 1, "ascending", attack="expectation", samples=8),
    ConformanceCase(
        "expectation-conservative-fa2", (5.0, 5.0, 5.0, 14.0, 17.0), 2, "descending",
        attack="expectation-conservative", samples=4,
    ),
    # Lossy-channel cells: every loss model, delay, and retransmission
    # budget, crossed with schedules, attacks, and the fault model — the
    # bit-identity contract extends to the channel counter arrays.
    ConformanceCase(
        "channel-iid-asc", (5.0, 11.0, 17.0), 1, "ascending",
        channel=ChannelSpec(model="iid", loss=0.3), samples=128,
    ),
    ConformanceCase(
        "channel-iid-retx-desc", (2.0, 3.0, 3.0, 6.0, 8.0), 2, "descending",
        channel=ChannelSpec(model="iid", loss=0.35, retransmit_budget=2), samples=128,
    ),
    ConformanceCase(
        "channel-delay-random", (1.0, 2.0, 3.0, 4.0, 5.0), 1, "random",
        channel=ChannelSpec(model="iid", loss=0.15, delay=0.4, max_delay=3, retransmit_budget=1),
        samples=128,
    ),
    ConformanceCase(
        "channel-burst-fixed", (2.0, 3.0, 3.0, 6.0, 8.0), 2, "fixed",
        channel=ChannelSpec(
            model="gilbert-elliott", good_to_bad=0.3, bad_to_good=0.4,
            loss_good=0.05, loss_bad=0.9, retransmit_budget=1,
        ),
        samples=128,
    ),
    ConformanceCase(
        "channel-truthful-heavy-loss", (5.0, 11.0, 17.0), 1, "descending", attack="truthful",
        channel=ChannelSpec(model="iid", loss=0.7, delay=0.3, max_delay=2), samples=160,
    ),
    ConformanceCase(
        "channel-faults", (1.0, 1.0, 1.0, 1.0, 1.0), 1, "ascending", f=2,
        fault_probability=0.35,
        channel=ChannelSpec(model="iid", loss=0.25, retransmit_budget=1), samples=160,
    ),
    # Sensor-set shapes: an even sensor count, a wide seven-sensor array
    # with three attackers, a fault bound above the attacker count, tied
    # lengths (the schedules' sort must break ties the same way), no
    # attacker at all, and an explicitly chosen (least precise) victim.
    ConformanceCase("stretch-even-n4", (1.0, 2.0, 4.0, 8.0), 1, "descending"),
    ConformanceCase(
        "stretch-left-n7-fa3", (0.5, 1.0, 1.5, 2.0, 4.0, 8.0, 16.0), 3, "random",
        attack="stretch-left",
    ),
    ConformanceCase("stretch-f-above-fa", (2.0, 3.0, 3.0, 6.0, 8.0), 1, "ascending", f=2),
    ConformanceCase("stretch-tied-lengths", (3.0, 3.0, 3.0, 3.0, 3.0), 2, "descending"),
    ConformanceCase("no-attacker-random", (5.0, 11.0, 17.0), 0, "random"),
    ConformanceCase(
        "stretch-explicit-victim", (2.0, 3.0, 3.0, 6.0, 8.0), 1, "fixed", attacked=(4,),
    ),
    # More fault / channel crossings: the truthful attacker under faults,
    # the left stretch over a bursty channel, bursts with delay and faults,
    # and the two loss extremes (a lossless channel still reports zero
    # counters; a total loss empties every fusion).
    ConformanceCase(
        "truthful-faults-random", (2.0, 3.0, 3.0, 6.0, 8.0), 2, "random", attack="truthful",
        fault_probability=0.25, samples=128,
    ),
    ConformanceCase(
        "channel-burst-stretch-left", (5.0, 11.0, 17.0), 1, "descending", attack="stretch-left",
        channel=ChannelSpec(
            model="gilbert-elliott", good_to_bad=0.2, bad_to_good=0.5,
            loss_good=0.0, loss_bad=0.8,
        ),
        samples=128,
    ),
    ConformanceCase(
        "channel-burst-delay-faults", (1.0, 1.0, 1.0, 1.0, 1.0), 1, "random", f=2,
        fault_probability=0.2,
        channel=ChannelSpec(
            model="gilbert-elliott", good_to_bad=0.25, bad_to_good=0.5,
            loss_good=0.05, loss_bad=0.7, delay=0.3, max_delay=2, retransmit_budget=1,
        ),
        samples=128,
    ),
    ConformanceCase(
        "channel-lossless-retx", (2.0, 3.0, 3.0, 6.0, 8.0), 2, "ascending",
        channel=ChannelSpec(model="iid", loss=0.0, retransmit_budget=2),
    ),
    ConformanceCase(
        "channel-total-loss", (5.0, 11.0, 17.0), 1, "ascending",
        channel=ChannelSpec(model="iid", loss=1.0, retransmit_budget=1),
    ),
)


def conformance_ids(case: ConformanceCase) -> str:
    return case.label


def assert_rounds_equal(a: RoundsResult, b: RoundsResult) -> None:
    """Bit-for-bit equality of two :class:`RoundsResult` instances.

    The per-sensor extension arrays are part of the contract: broadcasts
    and flags must match, with the NaN / no-flag convention on invalid
    (empty-fusion) rows.
    """
    assert a.schedule_name == b.schedule_name
    np.testing.assert_array_equal(a.fusion_lo, b.fusion_lo)
    np.testing.assert_array_equal(a.fusion_hi, b.fusion_hi)
    np.testing.assert_array_equal(a.valid, b.valid)
    np.testing.assert_array_equal(a.attacker_detected, b.attacker_detected)
    np.testing.assert_array_equal(a.broadcast_lo, b.broadcast_lo)
    np.testing.assert_array_equal(a.broadcast_hi, b.broadcast_hi)
    np.testing.assert_array_equal(a.flagged, b.flagged)
    # Channel counters are physical per-round counts and part of the
    # bit-identity contract; both sides must agree on their presence too.
    assert (a.channel_dropped is None) == (b.channel_dropped is None)
    if a.channel_dropped is not None:
        np.testing.assert_array_equal(a.channel_dropped, b.channel_dropped)
        np.testing.assert_array_equal(a.channel_retransmits, b.channel_retransmits)


def run_rounds(engine_name: str, case: ConformanceCase) -> RoundsResult:
    """One engine's rounds for a conformance case (fresh RNG per call)."""
    return get_engine(engine_name).run_rounds(
        case.config(),
        case.schedule_object(),
        case.attack,
        case.faults(),
        case.samples,
        case.rng(),
        case.channel,
    )


@lru_cache(maxsize=None)
def oracle_rounds(case: ConformanceCase) -> RoundsResult:
    """The scalar reference result, memoised across engine parametrisations."""
    return run_rounds("scalar", case)


def check_oracle_parity(engine_name: str, case: ConformanceCase) -> None:
    """The engine's rounds are bit-identical to the scalar oracle's."""
    assert_rounds_equal(oracle_rounds(case), run_rounds(engine_name, case))


def check_result_completeness(engine_name: str, case: ConformanceCase) -> None:
    """The engine fills the full result: shapes, per-sensor arrays, conventions."""
    result = run_rounds(engine_name, case)
    samples, n = case.samples, len(case.lengths)
    assert result.samples == samples
    assert result.fusion_lo.shape == (samples,)
    assert result.fusion_hi.shape == (samples,)
    assert result.valid.shape == (samples,)
    assert result.valid.dtype == bool
    assert result.attacker_detected.shape == (samples,)
    for array in (result.broadcast_lo, result.broadcast_hi, result.flagged):
        assert array is not None, "per-sensor arrays are part of the engine contract"
        assert array.shape == (samples, n)
    valid = result.valid
    # Valid rows carry well-formed bounds; invalid rows carry the NaN /
    # no-flag convention on every backend.
    assert (result.fusion_lo[valid] <= result.fusion_hi[valid]).all()
    assert np.isnan(result.fusion_lo[~valid]).all()
    assert (result.broadcast_lo[valid] <= result.broadcast_hi[valid]).all()
    assert np.isnan(result.broadcast_lo[~valid]).all()
    assert not result.flagged[~valid].any()
    rates = result.flagged_fraction_per_sensor
    assert rates.shape == (n,)
    if bool(valid.any()):
        assert ((rates >= 0.0) & (rates <= 1.0)).all()
    if case.channel is None:
        assert result.channel_dropped is None
        assert result.channel_retransmits is None
    else:
        for counters in (result.channel_dropped, result.channel_retransmits):
            assert counters is not None, "channel counters are part of the contract"
            assert counters.shape == (samples,)
            assert (counters >= 0).all()
        assert (result.channel_dropped <= n).all()
        assert (result.channel_retransmits <= case.channel.retransmit_budget).all()


def check_rng_discipline(engine_name: str, case: ConformanceCase) -> None:
    """Deterministic attacks consume exactly the shared sampling stream.

    Every engine draws correct bounds, transmission orders and transient
    faults through the shared primitives and nothing else — that is what
    makes engine results bit-comparable and lets callers interleave
    engines on one stream.  After ``run_rounds`` the engine's generator
    must sit exactly where the reference consumption leaves it.
    """
    config = case.config()
    engine_rng = case.rng()
    get_engine(engine_name).run_rounds(
        config,
        case.schedule_object(),
        case.attack,
        case.faults(),
        case.samples,
        engine_rng,
        case.channel,
    )
    # The channel draws from a *spawned* child generator, which must leave
    # the parent stream untouched — so the reference consumption below is
    # identical whether or not a channel is configured.
    reference = case.rng()
    lowers, uppers = sample_correct_bounds(
        config.lengths, config.true_value, case.samples, reference
    )
    batch_orders(case.schedule_object(), uppers - lowers, reference)
    faults = case.faults()
    if faults is not None:
        eligible = np.ones((case.samples, config.n), dtype=bool)
        eligible[:, list(config.resolved_attacked)] = False
        faults.apply(lowers, uppers, eligible, reference)
    np.testing.assert_array_equal(engine_rng.random(8), reference.random(8))
