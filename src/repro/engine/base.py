"""The pluggable simulation-engine layer: protocol, result type, registry.

Before this layer existed the repository exposed two parallel APIs for the
same experiments — the scalar reference loop (:mod:`repro.scheduling.round`,
:mod:`repro.vehicle.platoon`) and the vectorized batch path
(:mod:`repro.batch`) — and every call site hard-coded which one it used.
``repro.engine`` turns the choice into data:

* :class:`Engine` is the backend protocol.  An engine can simulate a batch
  of fusion rounds for one schedule (:meth:`Engine.run_rounds`), sweep a
  whole schedule comparison (:meth:`Engine.compare`), and run the Table II
  platoon case study (:meth:`Engine.run_case_study`).
* :class:`RoundsResult` is the backend-agnostic result of ``run_rounds``:
  plain per-round arrays, so two engines can be compared bit-for-bit (the
  parity test-suite does exactly that for the deterministic stretch
  attacker).
* :func:`register_engine` / :func:`get_engine` form the registry every call
  site goes through.  ``get_engine(None)`` resolves the default backend,
  which is ``"scalar"`` unless overridden by the ``REPRO_ENGINE``
  environment variable — the deployment-side knob for flipping experiments
  onto the batch engine (or a future numba/jax backend) without touching
  code.

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
import os
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence, Union

import numpy as np

from repro.core.exceptions import EngineUnavailableError, ExperimentError
from repro.scheduling.comparison import (
    ScheduleComparison,
    ScheduleComparisonConfig,
    ScheduleRow,
)
from repro.scheduling.schedule import Schedule
from repro.utils.seeding import ensure_rng
from repro.vehicle.case_study import CaseStudyConfig, CaseStudyResult

__all__ = [
    "ENGINE_ENV_VAR",
    "DEFAULT_ENGINE",
    "TruthfulAttack",
    "StretchAttack",
    "ExpectationAttack",
    "AttackSpec",
    "resolve_attack",
    "check_channel_support",
    "RoundsResult",
    "Engine",
    "OPTIONAL_ENGINE_REQUIREMENTS",
    "register_engine",
    "available_engines",
    "list_engines",
    "default_engine_name",
    "get_engine",
]

#: Environment variable overriding the default backend name.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Backend used when neither the caller nor the environment picks one.
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

    The optional per-sensor arrays (``(B, n)``, sensor-indexed like the
    scalar :attr:`repro.scheduling.round.RoundResult.broadcast`) expose what
    every sensor actually broadcast and which sensors the controller's
    detection procedure flagged — the inputs detection ablations need, on
    either backend.  Both engines fill them; they are ``None`` only for
    results built by older third-party backends.  Their entries are
    meaningful where :attr:`valid` is ``True`` — the scalar engine aborts an
    empty-fusion round before detection, so invalid rows carry ``NaN``
    broadcasts and all-``False`` flags on every backend.

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
    broadcast_lo: np.ndarray | None = None
    broadcast_hi: np.ndarray | None = None
    flagged: np.ndarray | None = None
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
        """Per-sensor flag rates over the valid rounds (``(n,)`` floats).

        Requires the per-sensor arrays; raises for results from backends that
        do not fill them.
        """
        if self.flagged is None:
            raise ExperimentError(
                "this RoundsResult carries no per-sensor flag array; the producing "
                "engine predates the per-sensor extension"
            )
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


def check_samples(samples: int) -> None:
    """Shared validation for the per-engine ``samples`` argument."""
    if samples <= 0:
        raise ExperimentError(f"need a positive number of samples, got {samples}")


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
        check_samples(samples)
    return budgets, streams


class Engine(abc.ABC):
    """One simulation backend (scalar reference loop, vectorized batch, ...)."""

    #: Registry name of the backend (also its ``engine="..."`` spelling).
    name: ClassVar[str] = ""

    @abc.abstractmethod
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
        transmission orders with :func:`repro.batch.rounds.batch_orders`
        before simulating, so under the deterministic attack specs two
        engines given equal ``rng`` states return identical
        :class:`RoundsResult` arrays (the parity tests rely on this).
        ``faults`` takes a :class:`repro.batch.rounds.BatchTransientFaults`;
        ``channel`` an optional :class:`repro.channel.ChannelSpec`, realized
        from a generator spawned off ``rng`` so the main stream — and every
        channel-free payload — is untouched.
        """

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

        This default implementation *is* that reference loop; vectorized
        backends override it to pack every budget into a single simulation
        pass (see :meth:`repro.engine.batch.BatchEngine.run_many`) so the
        per-invocation overhead is paid once for the whole batch.
        """
        budgets, streams = check_run_many_args(budgets, rngs)
        return [
            self.run_rounds(config, schedule, attack, faults, samples, rng, channel)
            for samples, rng in zip(budgets, streams)
        ]

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

    @abc.abstractmethod
    def run_case_study(
        self,
        config: CaseStudyConfig | None = None,
        schedules: Sequence[Schedule] | None = None,
        **options,
    ) -> CaseStudyResult:
        """Run the Table II platoon case study on this backend.

        Backend-specific options (``policy_factory`` for the scalar engine,
        ``attacker_factory`` / ``n_replicas`` for the batch engine) are
        keyword-only; engines must reject options they cannot honour instead
        of silently ignoring them.
        """


_REGISTRY: dict[str, Callable[[], Engine]] = {}

#: Engines the codebase knows about but whose registration is conditional on
#: an optional dependency.  Requesting one that is not registered raises
#: :class:`~repro.core.exceptions.EngineUnavailableError` with an install
#: hint instead of the generic unknown-engine error, so ``--engine numba``
#: without numba installed fails with a diagnosis, not a typo suggestion.
OPTIONAL_ENGINE_REQUIREMENTS: dict[str, str] = {"numba": "numba"}


def _unknown_engine_error(name: str, env: bool = False) -> ExperimentError:
    """One consistent error for an engine name the registry cannot resolve.

    Shared by :func:`get_engine` and :func:`default_engine_name` (and thereby
    the CLI, ``repro.api`` and the scenario runner), so every entry point
    reports a missing backend the same way: known-but-unavailable optional
    engines get an install hint, anything else an *unknown engine* message
    with the registered names and a did-you-mean suggestion.
    """
    import difflib

    available = ", ".join(available_engines())
    prefix = f"{ENGINE_ENV_VAR}={name!r} does not name a registered engine" if env else ""
    requirement = OPTIONAL_ENGINE_REQUIREMENTS.get(name)
    if requirement is not None:
        message = prefix or f"engine {name!r} is not available in this environment"
        return EngineUnavailableError(
            f"{message}: it requires the optional dependency {requirement!r} "
            f"(pip install {requirement}); available engines: {available}"
        )
    candidates = set(available_engines()) | set(OPTIONAL_ENGINE_REQUIREMENTS)
    matches = difflib.get_close_matches(name, sorted(candidates), n=3, cutoff=0.5)
    hint = f" — did you mean {', '.join(repr(match) for match in matches)}?" if matches else ""
    message = prefix or f"unknown engine {name!r}"
    return ExperimentError(f"{message}; available engines: {available}{hint}")


def register_engine(name: str, factory: Callable[[], Engine], replace: bool = False) -> None:
    """Register an engine factory under ``name`` (e.g. at import time).

    Third-party backends (numba, jax, ...) plug in here; after registration
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


#: Alias used by the registry-driven engine conformance suite
#: (``tests/engine/conformance.py``): parametrising over ``list_engines()``
#: covers every backend the moment it registers.
list_engines = available_engines


def default_engine_name() -> str:
    """The backend used when no explicit choice is made.

    Resolution order: the ``REPRO_ENGINE`` environment variable if set (and
    validated against the registry), else ``"scalar"``.
    """
    name = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
    if not name:
        return DEFAULT_ENGINE
    if name not in _REGISTRY:
        raise _unknown_engine_error(name, env=True)
    return name


def get_engine(engine: str | Engine | None = None) -> Engine:
    """Resolve an engine selection to a backend instance.

    ``None`` resolves the default (env-overridable) backend, a string looks
    up the registry, and an :class:`Engine` instance passes through — so
    call sites accept all three forms with one line.
    """
    if engine is None:
        engine = default_engine_name()
    if isinstance(engine, Engine):
        return engine
    factory = _REGISTRY.get(engine)
    if factory is None:
        raise _unknown_engine_error(engine)
    return factory()
