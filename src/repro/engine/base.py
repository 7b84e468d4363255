"""The pluggable simulation-engine layer: protocol, result type, registry.

Before this layer existed the repository exposed two parallel APIs for the
same experiments — the scalar reference loop (:mod:`repro.scheduling.round`,
:mod:`repro.vehicle.platoon`) and the vectorized batch path
(:mod:`repro.batch`) — and every call site hard-coded which one it used.
``repro.engine`` turns the choice into data:

* :class:`Engine` is the backend protocol.  An engine simulates batches
  of fusion rounds for one schedule (:meth:`Engine.run_many`, with
  :meth:`Engine.run_rounds` as its one-item form) and sweeps a whole
  schedule comparison (:meth:`Engine.compare`).  The Table II platoon case
  study is not an engine concern: the ``table2-*`` catalogue scenarios call
  the per-schedule simulators directly (see :mod:`repro.runner`).
* :class:`RoundsResult` is the backend-agnostic result of ``run_rounds``:
  plain per-round arrays, so two engines can be compared bit-for-bit (the
  parity test-suite does exactly that for the deterministic stretch
  attacker).
* :func:`register_engine` / :func:`get_engine` form the registry every call
  site goes through.  ``get_engine(None)`` resolves the fixed default
  backend, :data:`DEFAULT_ENGINE` (``"scalar"``).  The two built-in
  backends are registered when this module loads, each by a factory that
  imports its class on the first :func:`get_engine` call, so a command
  that runs one engine never loads the other.

Attack models are requested by *specification* (:class:`StretchAttack`,
:class:`ExpectationAttack`, :class:`TruthfulAttack`, or their string
spellings) rather than by policy object, because each backend owns its
implementation of the same decision rule (e.g.
:class:`repro.attack.stretch.ActiveStretchPolicy` versus
:class:`repro.batch.rounds.ActiveStretchBatchAttacker`, or
:class:`repro.attack.expectation.ExpectationPolicy` versus
:class:`repro.batch.expectation.ExactExpectationBatchAttacker`).

The layer map and the registry contract for third-party backends are
documented in ``docs/ARCHITECTURE.md``; the attacker catalogue in
``docs/ATTACKERS.md``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar, Protocol, Sequence, Union

import numpy as np

from repro import obs
from repro._lazy import lazy_factory
from repro.core.exceptions import ExperimentError
from repro.scheduling.comparison import (
    ScheduleComparison,
    ScheduleComparisonConfig,
    ScheduleRow,
)
from repro.scheduling.schedule import Schedule
from repro.utils.seeding import ensure_rng

if TYPE_CHECKING:
    from repro.batch.rounds import BatchRoundResult

__all__ = [
    "DEFAULT_ENGINE",
    "TruthfulAttack",
    "StretchAttack",
    "ExpectationAttack",
    "AttackSpec",
    "resolve_attack",
    "check_channel_support",
    "RoundsResult",
    "rounds_results",
    "Engine",
    "register_engine",
    "available_engines",
    "get_engine",
]

#: Backend used when the caller picks none.
DEFAULT_ENGINE = "scalar"


@dataclass(frozen=True)
class TruthfulAttack:
    """Compromised sensors forward their correct readings (baseline)."""


@dataclass(frozen=True)
class StretchAttack:
    """The deterministic greedy stretch attacker.

    Attributes
    ----------
    side:
        ``+1`` stretches the fusion interval to the right, ``-1`` to the
        left.  Both backends implement the identical decision rule, which is
        what makes engine results bit-comparable under this spec.
    """

    side: int = 1

    def __post_init__(self) -> None:
        if self.side not in (1, -1):
            raise ExperimentError(f"stretch side must be +1 or -1, got {self.side}")


@dataclass(frozen=True)
class ExpectationAttack:
    """The exact expectation-maximising attacker of problem (2).

    Both backends implement the identical decision rule — the scalar engine
    through :class:`repro.attack.expectation.ExpectationPolicy`, the batch
    engine through the vectorized
    :class:`repro.batch.expectation.ExactExpectationBatchAttacker` — with
    deterministic (first-candidate) tie-breaking, so engine results are
    bit-comparable under this spec like they are under :class:`StretchAttack`.

    Attributes mirror the grid resolution of the scalar policy; the defaults
    are the Table I settings.  ``conservative`` selects the weaker
    active-mode rule (support from already-transmitted intervals only).
    """

    true_value_positions: int = 3
    placement_positions: int = 3
    grid_positions: int = 9
    conservative: bool = False

    def __post_init__(self) -> None:
        for name in ("true_value_positions", "placement_positions", "grid_positions"):
            if getattr(self, name) < 1:
                raise ExperimentError(f"{name} must be positive, got {getattr(self, name)}")


AttackSpec = Union[str, TruthfulAttack, StretchAttack, ExpectationAttack]

_ATTACK_NAMES = {
    "truthful": TruthfulAttack(),
    "stretch": StretchAttack(side=1),
    "stretch-left": StretchAttack(side=-1),
    "expectation": ExpectationAttack(),
    "expectation-conservative": ExpectationAttack(conservative=True),
}


def resolve_attack(attack: AttackSpec) -> TruthfulAttack | StretchAttack | ExpectationAttack:
    """Normalise an attack specification (string spellings included)."""
    if isinstance(attack, (TruthfulAttack, StretchAttack, ExpectationAttack)):
        return attack
    resolved = _ATTACK_NAMES.get(attack)
    if resolved is None:
        raise ExperimentError(
            f"unknown attack specification {attack!r}; expected one of "
            f"{sorted(_ATTACK_NAMES)} or a TruthfulAttack/StretchAttack/"
            "ExpectationAttack instance"
        )
    return resolved


def check_channel_support(attack, channel) -> None:
    """Reject attack specs that are not channel-aware.

    The expectation-maximising attacker enumerates measurement grids under
    the perfect-bus assumption; pairing it with a lossy channel would
    silently optimise the wrong objective, so every engine rejects the
    combination up front through this shared check.
    """
    if channel is not None and isinstance(attack, ExpectationAttack):
        raise ExperimentError(
            "the expectation attacker does not support a lossy channel; "
            "use the truthful or stretch attack specs with ChannelSpec"
        )


@dataclass(frozen=True)
class RoundsResult:
    """Backend-agnostic outcome of a batch of simulated fusion rounds.

    All arrays have length ``B`` (one entry per round).  Rounds whose fusion
    is empty — possible only with fault injection — carry ``valid=False``
    and ``NaN`` bounds; they count towards ``samples`` but not towards
    :attr:`mean_width`.

    The per-sensor arrays (``(B, n)``, sensor-indexed like the scalar
    :attr:`repro.scheduling.round.RoundResult.broadcast`) expose what every
    sensor actually broadcast and which sensors the controller's detection
    procedure flagged — the inputs detection ablations need, on either
    backend.  Their entries are meaningful where :attr:`valid` is ``True`` —
    the scalar engine aborts an empty-fusion round before detection, so
    invalid rows carry ``NaN`` broadcasts and all-``False`` flags on every
    backend (:func:`rounds_results` enforces it).  Every engine builds them
    sensor-major: they are ``(B, n)`` ``.T`` views of ``(n, B)`` buffers
    (of a column block of one, for each budget of a packed
    :meth:`Engine.run_many` pass).

    ``channel_dropped`` / ``channel_retransmits`` are filled only when a
    :class:`repro.channel.ChannelSpec` was configured: per-round counts of
    transmissions that never reached fusion and of retransmission tail slots
    consumed.  They are *physical* counters — valid and invalid rounds
    alike — and part of the cross-engine bit-identity contract.
    """

    schedule_name: str
    fusion_lo: np.ndarray
    fusion_hi: np.ndarray
    valid: np.ndarray
    attacker_detected: np.ndarray
    broadcast_lo: np.ndarray
    broadcast_hi: np.ndarray
    flagged: np.ndarray
    channel_dropped: np.ndarray | None = None
    channel_retransmits: np.ndarray | None = None

    @property
    def samples(self) -> int:
        """Number of simulated rounds."""
        return int(self.fusion_lo.shape[0])

    @property
    def widths(self) -> np.ndarray:
        """Per-round fusion widths (``NaN`` for empty-fusion rounds)."""
        return self.fusion_hi - self.fusion_lo

    @property
    def mean_width(self) -> float:
        """Mean fusion width over the valid rounds (``NaN`` if none are)."""
        widths = self.widths[self.valid]
        return float(widths.mean()) if widths.size else float("nan")

    @property
    def detected_fraction(self) -> float:
        """Fraction of all rounds in which the attacker was flagged."""
        return float(np.asarray(self.attacker_detected, dtype=np.float64).mean())

    @property
    def flagged_fraction_per_sensor(self) -> np.ndarray:
        """Per-sensor flag rates over the valid rounds (``(n,)`` floats)."""
        valid = np.asarray(self.valid, dtype=bool)
        if not bool(valid.any()):
            return np.full(self.flagged.shape[1], np.nan)
        return np.asarray(self.flagged, dtype=np.float64)[valid].mean(axis=0)

    def to_row(self) -> ScheduleRow:
        """Render as a Table I style :class:`~repro.scheduling.comparison.ScheduleRow`."""
        if not bool(self.valid.any()):
            raise ExperimentError("every sampled round produced an empty fusion")
        return ScheduleRow(
            schedule_name=self.schedule_name,
            expected_width=self.mean_width,
            combinations=self.samples,
            detected_fraction=self.detected_fraction,
        )


class _MemoStats(Protocol):
    """A memo that reports ``{"hits", "misses", "entries"}`` counts (the
    scalar ``ExpectationPolicy`` and the batch ``VectorizedExpectationPolicy``)."""

    def stats(self) -> dict: ...


def count_memo_lookups(memo: _MemoStats) -> None:
    """Fold an expectation memo's hit/miss tallies into the live telemetry
    scope as ``repro_expectation_memo_total`` (zero tallies skipped; the memo
    is not read while telemetry is off)."""
    if not obs.enabled():
        return
    stats = memo.stats()
    if stats["hits"]:
        obs.add("repro_expectation_memo_total", stats["hits"], outcome="hit")
    if stats["misses"]:
        obs.add("repro_expectation_memo_total", stats["misses"], outcome="miss")


def rounds_results(
    engine: str,
    schedule_name: str,
    result: BatchRoundResult,
    budgets: Sequence[int],
    memo: _MemoStats | None = None,
) -> list[RoundsResult]:
    """Split one simulated batch into a :class:`RoundsResult` per budget.

    The result path of every engine: ``budgets[i]`` consecutive rows of
    ``result`` become the ``i``-th result.  Empty-fusion rows get ``NaN``
    broadcasts (the batch programs keep what was transmitted before fusion
    failed; the scalar loop never records it), so both engines agree on
    them.  The run's counters — rounds simulated, the hit/miss tallies of
    the expectation ``memo`` and the channel's losses — are folded into the
    live telemetry scope (no-op when tracing is off; the memo itself keeps
    plain ints so the per-decision hot path stays lock-free).
    """
    obs.add("repro_engine_samples_total", sum(budgets), engine=engine)
    if memo is not None:
        count_memo_lookups(memo)
    channel = result.prepared.channel
    if channel is not None:
        obs.add("repro_channel_dropped_total", int(channel.dropped.sum()), engine=engine)
        obs.add("repro_channel_retransmits_total", int(channel.retransmits.sum()), engine=engine)

    fusion = result.fusion
    broadcast_lo = result.broadcast_lo
    broadcast_hi = result.broadcast_hi
    invalid = ~fusion.valid
    if bool(invalid.any()):
        # order="K" keeps a sensor-major layout instead of transposing it.
        broadcast_lo = broadcast_lo.copy(order="K")
        broadcast_hi = broadcast_hi.copy(order="K")
        broadcast_lo[invalid] = np.nan
        broadcast_hi[invalid] = np.nan
    detected = result.attacker_detected
    results = []
    start = 0
    for samples in budgets:
        rows = slice(start, start + samples)
        results.append(
            RoundsResult(
                schedule_name=schedule_name,
                fusion_lo=fusion.lo[rows],
                fusion_hi=fusion.hi[rows],
                valid=fusion.valid[rows],
                attacker_detected=detected[rows],
                broadcast_lo=broadcast_lo[rows],
                broadcast_hi=broadcast_hi[rows],
                flagged=result.flagged[rows],
                channel_dropped=None if channel is None else channel.dropped[rows],
                channel_retransmits=None if channel is None else channel.retransmits[rows],
            )
        )
        start += samples
    return results


def check_run_many_args(
    budgets: Sequence[int], rngs: Sequence[np.random.Generator] | None
) -> tuple[list[int], list[np.random.Generator]]:
    """Shared validation for the :meth:`Engine.run_many` arguments."""
    budgets = list(budgets)
    streams = list(rngs) if rngs is not None else None
    if streams is None or len(streams) != len(budgets):
        raise ExperimentError(
            "run_many needs one RNG stream per budget (got "
            f"{len(budgets)} budgets and "
            f"{'no' if streams is None else len(streams)} rngs)"
        )
    if not budgets:
        raise ExperimentError("run_many needs at least one budget")
    for samples in budgets:
        if samples <= 0:
            raise ExperimentError(f"need a positive number of samples, got {samples}")
    return budgets, streams


class Engine(abc.ABC):
    """One simulation backend (scalar reference loop, vectorized batch, ...)."""

    #: Registry name of the backend (also its ``engine="..."`` spelling).
    name: ClassVar[str] = ""

    def run_rounds(
        self,
        config: ScheduleComparisonConfig,
        schedule: Schedule,
        attack: AttackSpec = "stretch",
        faults=None,
        samples: int = 10_000,
        rng: np.random.Generator | None = None,
        channel=None,
    ) -> RoundsResult:
        """Simulate ``samples`` Monte-Carlo fusion rounds for one schedule.

        Every engine draws the correct intervals with
        :func:`repro.batch.rounds.sample_correct_bounds` and the
        transmission orders and faults with
        :func:`repro.batch.rounds.prepare_rounds` before simulating, so
        under the deterministic attack specs two engines given equal
        ``rng`` states return identical :class:`RoundsResult` arrays (the
        parity tests rely on this).
        ``faults`` takes a :class:`repro.batch.rounds.BatchTransientFaults`;
        ``channel`` an optional :class:`repro.channel.ChannelSpec`, realized
        from a generator spawned off ``rng`` so the main stream — and every
        channel-free payload — is untouched.  This is a one-item
        :meth:`run_many` call.
        """
        return self.run_many(
            config, schedule, attack, faults, [samples], [ensure_rng(rng)], channel
        )[0]

    @abc.abstractmethod
    def run_many(
        self,
        config: ScheduleComparisonConfig,
        schedule: Schedule,
        attack: AttackSpec = "stretch",
        faults=None,
        budgets: Sequence[int] = (),
        rngs: Sequence[np.random.Generator] | None = None,
        channel=None,
    ) -> list[RoundsResult]:
        """Run several independent sample budgets of one plan in one call.

        The micro-batching seam behind the serving layer
        (:mod:`repro.serve`): ``budgets[i]`` rounds are simulated with the
        stream ``rngs[i]``, and the contract is that the returned results
        are **bit-identical** to calling :meth:`run_rounds` once per
        ``(budget, rng)`` pair — a request coalesced into a shared engine
        pass must receive exactly the payload it would have computed alone.
        Vectorized backends pack every budget into a single simulation pass
        (see :meth:`repro.engine.batch.BatchEngine.run_many`) so the
        per-invocation overhead is paid once for the whole batch.
        """

    def compare(
        self,
        config: ScheduleComparisonConfig,
        schedules: Sequence[Schedule],
        samples: int = 10_000,
        rng: np.random.Generator | None = None,
        attack: AttackSpec = "stretch",
        faults=None,
        channel=None,
    ) -> ScheduleComparison:
        """Run every schedule on one configuration (Table I style).

        The schedules share one RNG stream, consumed in order.
        """
        rng = ensure_rng(rng)
        rows = tuple(
            self.run_rounds(config, schedule, attack, faults, samples, rng, channel).to_row()
            for schedule in schedules
        )
        return ScheduleComparison(config=config, rows=rows)


_REGISTRY: dict[str, Callable[[], Engine]] = {}


def _unknown_engine_error(name: str) -> ExperimentError:
    """One consistent error for an engine name the registry cannot resolve.

    Raised by :func:`get_engine` (and thereby the CLI, ``repro.api`` and the
    scenario runner), so every entry point reports a missing backend the
    same way: an *unknown engine* message with the registered names and a
    did-you-mean suggestion.
    """
    import difflib

    available = ", ".join(available_engines())
    matches = difflib.get_close_matches(name, available_engines(), n=3, cutoff=0.5)
    hint = f" — did you mean {', '.join(repr(match) for match in matches)}?" if matches else ""
    return ExperimentError(f"unknown engine {name!r}; available engines: {available}{hint}")


def register_engine(name: str, factory: Callable[[], Engine], replace: bool = False) -> None:
    """Register an engine factory under ``name`` (e.g. at import time).

    Third-party backends (jax, torch, ...) plug in here; after registration
    every ``engine="name"`` call site can reach them.
    """
    if not name:
        raise ExperimentError("an engine needs a non-empty registry name")
    if name in _REGISTRY and not replace:
        raise ExperimentError(f"engine {name!r} is already registered (pass replace=True)")
    _REGISTRY[name] = factory


def available_engines() -> tuple[str, ...]:
    """Names of all registered backends, sorted."""
    return tuple(sorted(_REGISTRY))


def get_engine(engine: str | Engine | None = None) -> Engine:
    """Resolve an engine selection to a backend instance.

    ``None`` resolves :data:`DEFAULT_ENGINE`, a string looks up the
    registry, and an :class:`Engine` instance passes through — so call sites
    accept all three forms with one line.
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    if isinstance(engine, Engine):
        return engine
    factory = _REGISTRY.get(engine)
    if factory is None:
        raise _unknown_engine_error(engine)
    return factory()


register_engine("scalar", lazy_factory("repro.engine.scalar", "ScalarEngine"))
register_engine("batch", lazy_factory("repro.engine.batch", "BatchEngine"))
