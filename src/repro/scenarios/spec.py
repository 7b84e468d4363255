"""Declarative experiment specifications: experiments as frozen data.

A *scenario* is everything needed to reproduce one experiment of the paper's
evaluation (or one of the repository's extension workloads) as a frozen
dataclass: which engine backend runs it, which attack spec drives it, the
configuration grid, the sample budget, and — crucially — the base seed and
the shard layout.  Because the shard layout and the per-shard seed derivation
(:mod:`repro.utils.seeding` spawn keys) are part of the *spec*, not of the
executor, a scenario's output is a pure function of its spec: the runner
(:mod:`repro.runner`) produces bit-identical results for ``workers=1`` and
``workers=8``, and the artifact store can address results by the spec's
content hash (:func:`spec_key`).

Three scenario kinds cover the paper and the extension workloads:

* :class:`ComparisonScenario` — Table I style schedule sweeps; one or more
  :class:`ComparisonCase` grid points, each a ``(lengths, fa, schedules,
  attack, faults)`` configuration run through
  :meth:`repro.engine.base.Engine.run_rounds`;
* :class:`CaseStudyScenario` — the Table II platoon case study, with the
  attacker selected by name (``"proxy"``, ``"exact"``, or the scalar
  ``"expectation-grid"`` oracle);
* :class:`FigureScenario` — deterministic paper artifacts (Figures 1–5 and
  the baseline-fusion ablation) computed by a registered figure function
  (:mod:`repro.scenarios.figures`);
* :class:`OptimizationScenario` — a schedule *search* over one
  configuration case: a strategy from the :mod:`repro.optimize` registry
  (``exhaustive`` / ``anneal`` / ``bandit``) proposes candidate
  transmission orders and evaluates them through the engine seam, and the
  payload reports the best-found schedule against the paper's fixed
  orderings (``docs/OPTIMIZATION.md``).

The registry of named scenarios lives in :mod:`repro.scenarios.registry`,
the pre-populated catalogue in :mod:`repro.scenarios.catalog`, and the whole
subsystem is documented in ``docs/SCENARIOS.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import ClassVar

from repro.batch.faults import BatchTransientFaults
from repro.channel import ChannelSpec, channel_spec_from_dict
from repro.core.exceptions import ExperimentError, ReproError
from repro.engine.base import check_channel_support, resolve_attack
from repro.scheduling.comparison import ScheduleComparisonConfig
from repro.scheduling.enumeration import count_distinct_schedules
from repro.sensors.library import landshark_specs
from repro.scheduling.schedule import (
    FixedSchedule,
    Schedule,
    TrustAwareSchedule,
    schedule_by_name,
)

__all__ = [
    "SCHEMA_VERSION",
    "SPEC_VERSION",
    "CHANNEL_SPEC_VERSION",
    "SUPPORTED_SPEC_VERSIONS",
    "ComparisonCase",
    "ScenarioSpec",
    "ComparisonScenario",
    "CaseStudyScenario",
    "FigureScenario",
    "OptimizationScenario",
    "MAX_PLAN_SHARDS",
    "MAX_SHARD_SAMPLES",
    "schedule_from_spec",
    "shard_count",
    "shard_sizes",
    "spec_dict",
    "spec_from_dict",
    "spec_key",
]

#: Most shards one spec may plan: a bound on the task list the runner (or,
#: per candidate, the optimizer's evaluator) builds, far above any useful
#: plan (the largest registered one has 40 shards).
MAX_PLAN_SHARDS = 10_000

#: Most rounds one shard may simulate: a bound on the arrays a single task
#: allocates, far above any useful shard (the largest registered comparison
#: shard has 25,000 samples, the largest case-study shard 4,800 rounds per
#: schedule).
MAX_SHARD_SAMPLES = 1_000_000


def shard_count(total: int, shard_size: int) -> int:
    """How many chunks of at most ``shard_size`` split ``total``."""
    return -(-total // shard_size)


def shard_sizes(total: int, shard_size: int) -> list[int]:
    """Split ``total`` into deterministic front-loaded chunks of at most ``shard_size``."""
    return [min(shard_size, total - start) for start in range(0, total, shard_size)]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_counts(spec, *field_names: str) -> None:
    """Reject count fields that are not positive ``int`` s (``bool`` included)."""
    for field_name in field_names:
        value = getattr(spec, field_name)
        if not _is_int(value) or value <= 0:
            raise ExperimentError(f"{field_name} must be a positive integer, got {value!r}")


def _check_plan(name: str, shards: int, what: str) -> None:
    if shards > MAX_PLAN_SHARDS:
        raise ExperimentError(
            f"scenario {name!r} plans {shards} shards ({what}); "
            f"at most {MAX_PLAN_SHARDS} are allowed"
        )


def _check_shard_samples(name: str, shard_samples: int, unit: str = "samples") -> None:
    if shard_samples > MAX_SHARD_SAMPLES:
        raise ExperimentError(
            f"scenario {name!r} asks for shards of {shard_samples} {unit}; "
            f"at most {MAX_SHARD_SAMPLES} are allowed per shard"
        )


def _check_width_sums(name: str, cases, samples: int) -> None:
    """Reject lengths whose summed fusion widths would not be finite.

    A round that fuses all ``n`` intervals has a fusion interval no wider
    than the widest of them: with ``f < n / 2`` some interval holds both of
    its ends.  Forged and faulted intervals keep their sensor's width, so
    ``samples`` such rounds sum to at most ``samples × max(lengths)``, the
    bound checked here.  (A lossy-channel round that fuses ``2f`` or fewer
    received intervals is not covered by this argument.)
    """
    for case in cases:
        if not math.isfinite(samples * max(float(length) for length in case.lengths)):
            raise ExperimentError(
                f"scenario {name!r}, case {case.label!r}: {samples} samples of lengths up to "
                f"{max(case.lengths)!r} overflow the summed fusion widths"
            )


#: Bumped whenever the serialised spec layout changes incompatibly; part of
#: the content hash, so old artifact-store entries invalidate themselves.
SCHEMA_VERSION = 1

#: Version of the *wire format* :func:`spec_dict` speaks — the JSON shape
#: the serving layer (:mod:`repro.serve`) accepts on ``POST /v1/run``.
#: Unlike :data:`SCHEMA_VERSION` it is **not** part of the content hash:
#: version 1 payloads omit the ``spec_version`` field entirely (absent
#: implies 1, and every pre-existing ``results/store/`` hash stays valid),
#: and :func:`spec_from_dict` tolerates an explicit ``spec_version: 1``.
#: A future incompatible wire layout bumps this constant, starts emitting
#: the field, and teaches the reader the new shape.
SPEC_VERSION = 1

#: Wire version a payload needs before it may carry a lossy-channel spec.
#: Channel-free payloads keep speaking (and hashing as) version 1 — the
#: field only appears on specs that would be misread by a pre-channel
#: build, which is exactly the versioning contract above.
CHANNEL_SPEC_VERSION = 2

#: Wire-format versions :func:`spec_from_dict` can read.
SUPPORTED_SPEC_VERSIONS = (1, CHANNEL_SPEC_VERSION)

#: Attackers a :class:`CaseStudyScenario` can name, per engine family.
CASE_STUDY_ATTACKERS = ("proxy", "exact", "expectation-grid")

# Validating a spec must not import what only running it needs: the
# catalogue builds every spec at first use of the registry.  The three
# tables below name what the vehicle, figure and search layers accept, and
# tests pin each to its layer.

#: Named attacked-sensor strategies of the case study
#: (:func:`repro.vehicle.selection.selector_from_spec`); an integer names
#: one fixed sensor.
ATTACKED_SENSOR_NAMES = ("random", "most_precise", "none")

#: Keys of :data:`repro.scenarios.figures.FIGURES`.
FIGURE_NAMES = (
    "ablation-baseline-fusion",
    "fig1-marzullo",
    "fig2-no-optimal-policy",
    "fig3-theorem1",
    "fig4-worst-case",
    "fig5-schedule-examples",
)

#: The strategies :mod:`repro.optimize` registers.  A spec naming another
#: strategy is validated through the optimizer registry.
BUILTIN_STRATEGIES = ("anneal", "bandit", "exhaustive")


def schedule_from_spec(text: str, sensors: int | None = None) -> Schedule:
    """Build a :class:`~repro.scheduling.schedule.Schedule` from its spec string.

    Scenario specs carry schedules as strings so they stay hashable and
    JSON-serialisable: ``"ascending"`` / ``"descending"`` / ``"random"``,
    ``"fixed:2,0,1"`` (an explicit permutation), or
    ``"trust-aware:0.5,1.0,2.0"`` (per-sensor spoofability scores).  Given
    ``sensors``, a ``fixed`` permutation must be one of ``range(sensors)``
    and ``trust-aware`` must give ``sensors`` scores.
    """
    if not isinstance(text, str):
        raise ExperimentError(f"a schedule spec must be a string, got {text!r}")
    kind, _, argument = text.partition(":")
    kind = kind.strip().lower()
    if kind == "fixed":
        if not argument:
            raise ExperimentError("a fixed schedule spec needs a permutation, e.g. 'fixed:2,0,1'")
        schedule = FixedSchedule(tuple(int(part) for part in argument.split(",")))
        covered = len(schedule.permutation)
    elif kind == "trust-aware":
        if not argument:
            raise ExperimentError(
                "a trust-aware schedule spec needs spoofability scores, e.g. 'trust-aware:0.5,1,2'"
            )
        schedule = TrustAwareSchedule(tuple(float(part) for part in argument.split(",")))
        covered = len(schedule.spoofability)
    else:
        return schedule_by_name(kind)
    if sensors is not None and covered != sensors:
        raise ExperimentError(f"schedule {text!r} covers {covered} sensors, but there are {sensors}")
    return schedule


@dataclass(frozen=True)
class ComparisonCase:
    """One grid point of a Table I style scenario.

    ``label`` names the point in reports; the remaining fields mirror
    :class:`~repro.scheduling.comparison.ScheduleComparisonConfig` plus the
    engine-route attack spec and an optional transient-fault model.  All
    fields are primitives, so a case is hashable, picklable across worker
    processes, and JSON-serialisable for the artifact store.
    """

    label: str
    lengths: tuple[float, ...]
    fa: int
    f: int | None = None
    attacked_indices: tuple[int, ...] | None = None
    attack: str = "stretch"
    schedules: tuple[str, ...] = ("ascending", "descending")
    fault_probability: float = 0.0
    fault_min_offset_widths: float = 1.0
    fault_max_offset_widths: float = 3.0
    #: Optional lossy-channel model (:class:`repro.channel.ChannelSpec`);
    #: ``None`` is the perfect bus and serialises to nothing, so channel-free
    #: specs keep their pre-channel content hashes.
    channel: ChannelSpec | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.label, str):
            raise ExperimentError(f"a case label must be a string, got {self.label!r}")
        if not self.schedules:
            raise ExperimentError(f"case {self.label!r} needs at least one schedule")
        if not _is_int(self.fa) or not (self.f is None or _is_int(self.f)):
            raise ExperimentError(
                f"case {self.label!r}: fa and f must be integers, got fa={self.fa!r}, f={self.f!r}"
            )
        lengths = [float(length) for length in self.lengths]
        if not all(math.isfinite(length) and length > 0 for length in lengths):
            raise ExperimentError(
                f"case {self.label!r}: lengths must be finite and positive, got {self.lengths!r}"
            )
        for index in self.attacked_indices or ():
            if not _is_int(index) or not 0 <= index < len(lengths):
                raise ExperimentError(
                    f"case {self.label!r}: attacked index {index!r} is out of range "
                    f"for {len(lengths)} sensors"
                )
        if self.channel is not None and not isinstance(self.channel, ChannelSpec):
            raise ExperimentError(
                f"case {self.label!r}: channel must be a ChannelSpec or None, "
                f"got {type(self.channel).__name__}"
            )
        # Fail at registration time, not mid-run on a worker: the engine
        # config, attack spec, schedule strings, fault model and channel
        # pairing all validate their own fields.
        self.comparison_config()
        check_channel_support(resolve_attack(self.attack), self.channel)
        self.schedule_objects()
        self.faults()

    def comparison_config(self) -> ScheduleComparisonConfig:
        """The engine-layer configuration for this grid point."""
        return ScheduleComparisonConfig(
            lengths=tuple(float(length) for length in self.lengths),
            fa=self.fa,
            f=self.f,
            attacked_indices=self.attacked_indices,
        )

    def schedule_objects(self) -> tuple[Schedule, ...]:
        """The schedule instances named by :attr:`schedules`."""
        return tuple(schedule_from_spec(text, len(self.lengths)) for text in self.schedules)

    def faults(self) -> BatchTransientFaults | None:
        """The transient-fault model, or ``None`` when faults are disabled."""
        if self.fault_probability == 0.0:
            return None
        return BatchTransientFaults(
            probability=self.fault_probability,
            min_offset_widths=self.fault_min_offset_widths,
            max_offset_widths=self.fault_max_offset_widths,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """Fields shared by every scenario kind.

    Attributes
    ----------
    name:
        Registry name (also the CLI spelling: ``python -m repro run NAME``).
    engine:
        Simulation backend, resolved through the :mod:`repro.engine`
        registry; ``None`` uses the default backend (``"scalar"``), which
        the runner pins into the spec — and therefore into the content hash
        — before executing, so ``None`` and ``"scalar"`` share one store
        entry.
    seed:
        Base seed.  Every shard derives its stream with
        :func:`repro.utils.seeding.derive_rng` spawn keys, so the full
        result is a pure function of the spec.
    tags:
        Free-form labels for CLI filtering (``python -m repro list --tag``).
    """

    name: str
    description: str = ""
    engine: str | None = None
    seed: int = 2014
    tags: tuple[str, ...] = ()

    #: Discriminator used in serialised specs and the runner dispatch.
    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        if not (isinstance(self.name, str) and self.name):
            raise ExperimentError(f"a scenario needs a non-empty name, got {self.name!r}")
        if not isinstance(self.description, str):
            raise ExperimentError(f"description must be a string, got {self.description!r}")
        if not (isinstance(self.tags, tuple) and all(isinstance(tag, str) for tag in self.tags)):
            raise ExperimentError(f"tags must be strings, got {self.tags!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ExperimentError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.engine is not None and not (isinstance(self.engine, str) and self.engine):
            raise ExperimentError(
                f"engine must be a registered engine name or null, got {self.engine!r}"
            )


@dataclass(frozen=True)
class ComparisonScenario(ScenarioSpec):
    """A Table I style schedule sweep over one or more configuration cases.

    ``samples`` is the Monte-Carlo budget *per case*; the runner splits it
    into shards of at most ``shard_samples`` rounds.  The shard layout is a
    pure function of ``(samples, shard_samples)``, which is what makes runs
    worker-count invariant.  A case's summed fusion widths are at most
    ``samples × max(lengths)`` (see :func:`_check_width_sums`), and that
    bound must be finite.
    """

    cases: tuple[ComparisonCase, ...] = ()
    samples: int = 100_000
    shard_samples: int = 25_000

    kind: ClassVar[str] = "comparison"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.cases:
            raise ExperimentError(f"comparison scenario {self.name!r} needs at least one case")
        _check_counts(self, "samples", "shard_samples")
        _check_shard_samples(self.name, self.shard_samples)
        _check_plan(
            self.name,
            len(self.cases) * shard_count(self.samples, self.shard_samples),
            "cases × samples / shard_samples",
        )
        _check_width_sums(self.name, self.cases, self.samples)
        labels = [case.label for case in self.cases]
        if len(set(labels)) != len(labels):
            raise ExperimentError(f"comparison scenario {self.name!r} has duplicate case labels")


@dataclass(frozen=True)
class CaseStudyScenario(ScenarioSpec):
    """The Table II platoon case study as a scenario.

    ``attacker`` selects the attack implementation by name:

    * ``"proxy"`` — the vectorized
      :class:`~repro.batch.rounds.ExpectationProxyBatchAttacker` (batch
      engine; the fast default, validated at the statistics level);
    * ``"exact"`` — the exact problem (2) attacker
      (:class:`repro.batch.expectation.ExactExpectationBatchAttacker`) on
      the ``expectation_grid`` resolution (batch engine);
    * ``"expectation-grid"`` — the scalar coarse-grid
      :class:`~repro.attack.expectation.ExpectationPolicy` oracle (scalar
      engine; slow, the reference).

    Batch case studies shard over platoon replicas (chunks of
    ``shard_replicas``); the scalar oracle shards one task per schedule.
    """

    engine: str | None = "batch"
    attacker: str = "proxy"
    n_steps: int = 200
    n_vehicles: int = 3
    n_replicas: int = 32
    shard_replicas: int = 8
    attacked_sensor: str | int = "random"
    schedules: tuple[str, ...] = ("ascending", "descending", "random")
    expectation_grid: tuple[int, int, int] = (2, 2, 7)

    kind: ClassVar[str] = "case-study"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.attacker not in CASE_STUDY_ATTACKERS:
            raise ExperimentError(
                f"unknown case-study attacker {self.attacker!r}; "
                f"expected one of {CASE_STUDY_ATTACKERS}"
            )
        # The case-study runner has exactly one implementation per attacker,
        # each welded to its engine — reject every other pairing so an
        # `--engine` override can never store an artifact whose embedded spec
        # names a backend that did not actually execute.
        required_engine = "scalar" if self.attacker == "expectation-grid" else "batch"
        if self.engine != required_engine:
            raise ExperimentError(
                f"attacker={self.attacker!r} runs on engine={required_engine!r} only, "
                f"got engine={self.engine!r} (the scalar oracle is attacker="
                "'expectation-grid'; 'proxy'/'exact' are batch attackers)"
            )
        _check_counts(self, "n_steps", "n_vehicles", "n_replicas", "shard_replicas")
        grid = self.expectation_grid
        if not (
            isinstance(grid, tuple) and len(grid) == 3 and all(_is_int(v) and v > 0 for v in grid)
        ):
            raise ExperimentError(f"expectation_grid must be 3 positive integers, got {grid!r}")
        _check_plan(
            self.name,
            shard_count(self.n_replicas, self.shard_replicas),
            "n_replicas / shard_replicas",
        )
        # Per schedule, a batch shard steps up to shard_replicas platoons;
        # a scalar-oracle shard steps one.
        replicas = 1 if self.attacker == "expectation-grid" else min(self.n_replicas, self.shard_replicas)
        _check_shard_samples(self.name, replicas * self.n_vehicles * self.n_steps, "rounds")
        if not self.schedules:
            raise ExperimentError(f"case-study scenario {self.name!r} needs at least one schedule")
        if len(set(self.schedules)) != len(self.schedules):
            raise ExperimentError(
                f"case-study scenario {self.name!r} has duplicate schedule specs"
            )
        sensors = len(landshark_specs())
        for text in self.schedules:
            schedule_from_spec(text, sensors)
        sensor = self.attacked_sensor
        if _is_int(sensor):
            if not 0 <= sensor < sensors:
                raise ExperimentError(f"attacked sensor index {sensor} out of range for {sensors} sensors")
        elif sensor not in ATTACKED_SENSOR_NAMES:
            raise ExperimentError(f"unknown attacked-sensor specification {sensor!r}")

    def case_study_config(self):
        """The :class:`~repro.vehicle.case_study.CaseStudyConfig` this spec implies."""
        from repro.vehicle.case_study import CaseStudyConfig

        return CaseStudyConfig(
            n_steps=self.n_steps,
            n_vehicles=self.n_vehicles,
            attacked_sensor=self.attacked_sensor,
            seed=self.seed,
        )


@dataclass(frozen=True)
class FigureScenario(ScenarioSpec):
    """A deterministic paper artifact computed by a registered figure function.

    ``figure`` names an entry of :data:`repro.scenarios.figures.FIGURES`;
    the function receives a generator derived from :attr:`seed` and returns a
    JSON-serialisable payload.
    """

    figure: str = ""

    kind: ClassVar[str] = "figure"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.figure not in FIGURE_NAMES:
            raise ExperimentError(
                f"unknown figure function {self.figure!r}; available: {', '.join(FIGURE_NAMES)}"
            )


@dataclass(frozen=True)
class OptimizationScenario(ScenarioSpec):
    """A schedule search over one configuration case (:mod:`repro.optimize`).

    ``case`` fixes the physics — lengths, attacked set, attack spec, fault
    model — and its ``schedules`` field names the *baseline* orderings the
    best-found schedule is reported against (the paper's fixed orderings;
    they must be deterministic, so ``"random"`` is rejected).  ``strategy``
    selects the optimizer from the :mod:`repro.optimize` registry and the
    ``anneal_*`` / ``bandit_*`` fields parameterise it; irrelevant fields
    are inert but stay part of the content hash like every other field.

    Budget semantics: every candidate measurement is ``samples``
    Monte-Carlo rounds (bandit rungs use halved budgets until the final
    rung), sharded into ``shard_samples`` chunks whose RNG streams derive
    statelessly from ``(seed, canonical permutation, shard)`` — so a
    candidate's measured width is a pure function of the spec and the
    candidate, identical across strategies, engines, worker counts and
    shard packing (`Engine.run_many` bit-identity).
    """

    engine: str | None = "batch"
    strategy: str = "exhaustive"
    case: ComparisonCase | None = None
    samples: int = 20_000
    shard_samples: int = 5_000
    shard_candidates: int = 64
    max_candidates: int = 40_320
    anneal_steps: int = 150
    anneal_initial_temperature: float = 0.5
    anneal_cooling: float = 0.97
    bandit_population: int = 16
    bandit_rounds: int = 4

    kind: ClassVar[str] = "optimization"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.case is None:
            raise ExperimentError(f"optimization scenario {self.name!r} needs a case")
        _check_counts(
            self,
            "samples",
            "shard_samples",
            "shard_candidates",
            "max_candidates",
            "anneal_steps",
            "bandit_population",
            "bandit_rounds",
        )
        _check_width_sums(self.name, (self.case,), self.samples)
        _check_shard_samples(self.name, self.shard_samples)
        _check_plan(
            self.name,
            shard_count(self.samples, self.shard_samples),
            "samples / shard_samples per candidate",
        )
        if self.anneal_initial_temperature <= 0:
            raise ExperimentError(
                f"anneal_initial_temperature must be positive, got {self.anneal_initial_temperature}"
            )
        if not 0 < self.anneal_cooling <= 1:
            raise ExperimentError(
                f"anneal_cooling must be in (0, 1], got {self.anneal_cooling}"
            )
        # Baselines must name deterministic orderings: each is reduced to a
        # fixed permutation and evaluated exactly like a search candidate.
        for text in self.case.schedules:
            kind, _, _ = text.partition(":")
            if kind.strip().lower() == "random":
                raise ExperimentError(
                    f"optimization scenario {self.name!r}: baseline schedules must be "
                    "deterministic orderings (ascending/descending/fixed/trust-aware); "
                    "'random' is not a fixed permutation to optimize against"
                )
        # The exhaustive strategy's candidate cap is checked here; any
        # strategy but the built-ins resolves through the optimizer registry
        # (did-you-mean hints on typos) and validates the spec itself.
        if self.strategy == "exhaustive":
            count = self.candidate_count()
            if count > self.max_candidates:
                raise ExperimentError(
                    f"optimization scenario {self.name!r}: the schedule space has {count} "
                    f"distinct candidates, above max_candidates={self.max_candidates}; "
                    "raise the cap or switch to strategy='anneal'/'bandit'"
                )
        elif self.strategy not in BUILTIN_STRATEGIES:
            from repro.optimize import get_optimizer

            get_optimizer(self.strategy).validate(self)

    def candidate_count(self) -> int:
        """Distinct schedules of :attr:`case` (its schedule equivalence classes)."""
        config = self.case.comparison_config()
        return count_distinct_schedules(config.lengths, config.resolved_attacked)


def spec_dict(spec: ScenarioSpec) -> dict:
    """Serialise a spec to plain JSON types (the store's canonical form).

    This is also the wire format the serving layer speaks; see
    :data:`SPEC_VERSION` for how the format is versioned without
    invalidating stored content hashes, and :func:`spec_from_dict` for the
    tolerant reader.
    """
    payload = dataclasses.asdict(spec)
    payload["kind"] = spec.kind
    payload["schema"] = SCHEMA_VERSION
    version = max(SPEC_VERSION, _strip_default_channels(payload))
    if version != 1:
        # v1 is implied by absence so v1 hashes never change; only payloads
        # a pre-channel build would misread mark themselves explicitly.
        payload["spec_version"] = version
    return payload


def _strip_default_channels(payload: dict) -> int:
    """Drop ``channel: None`` from serialised cases; report the wire version.

    ``dataclasses.asdict`` emits the :attr:`ComparisonCase.channel` default
    into every case dict.  Stripping the ``None`` entries keeps channel-free
    payloads byte-identical to their pre-channel serialisation (and hence
    keeps every stored :func:`spec_key` valid); a case that *does* carry a
    channel promotes the payload to :data:`CHANNEL_SPEC_VERSION`.
    """
    version = 1
    cases = list(payload.get("cases") or ())
    if payload.get("case") is not None:
        cases.append(payload["case"])
    for case in cases:
        if not isinstance(case, dict):
            continue
        if case.get("channel") is None:
            case.pop("channel", None)
        else:
            version = CHANNEL_SPEC_VERSION
    return version


#: Scenario kinds the tolerant reader can reconstruct.
_SPEC_KINDS: dict[str, type[ScenarioSpec]] = {
    ComparisonScenario.kind: ComparisonScenario,
    CaseStudyScenario.kind: CaseStudyScenario,
    FigureScenario.kind: FigureScenario,
    OptimizationScenario.kind: OptimizationScenario,
}

#: Tuple-valued fields that JSON round-trips as lists.
_TUPLE_FIELDS = {
    "tags",
    "schedules",
    "lengths",
    "attacked_indices",
    "expectation_grid",
    "cases",
}


def _tuplify(name: str, value):
    if value is None or name not in _TUPLE_FIELDS:
        return value
    return tuple(value)


def _case_from_dict(payload: dict, version: int = CHANNEL_SPEC_VERSION) -> ComparisonCase:
    if not isinstance(payload, dict):
        raise ExperimentError(f"a comparison case must be an object, got {type(payload).__name__}")
    fields = {field.name for field in dataclasses.fields(ComparisonCase)}
    unknown = sorted(set(payload) - fields)
    if unknown:
        raise ExperimentError(f"comparison case carries unknown fields: {', '.join(unknown)}")
    values = {name: _tuplify(name, value) for name, value in payload.items()}
    if values.get("channel") is not None:
        if version < CHANNEL_SPEC_VERSION:
            raise ExperimentError(
                "a comparison case with a channel requires "
                f"spec_version {CHANNEL_SPEC_VERSION}; version-{version} payloads "
                "predate the lossy-channel wire format"
            )
        values["channel"] = channel_spec_from_dict(values["channel"])
    return ComparisonCase(**values)


def spec_from_dict(payload: dict) -> ScenarioSpec:
    """Rebuild a :class:`ScenarioSpec` from its :func:`spec_dict` form.

    The tolerant reader behind the serving layer's wire format:

    * ``spec_version`` may be absent (implies version 1) or any member of
      :data:`SUPPORTED_SPEC_VERSIONS`; anything else is rejected with the
      supported list, so an old server fails loudly on a future client.
    * ``schema`` and ``kind`` bookkeeping keys are honoured, list-valued
      fields come back as the tuples the frozen dataclasses expect, and the
      dataclass validation (``__post_init__``) runs eagerly — a malformed
      spec never reaches an engine.
    * Unknown fields are rejected by name (a typo diagnosis, not a silent
      drop).

    Round-trip guarantee: ``spec_from_dict(spec_dict(spec)) == spec`` (and
    therefore shares its :func:`spec_key`) for every registered scenario.
    """
    if not isinstance(payload, dict):
        raise ExperimentError(f"a scenario spec must be a JSON object, got {type(payload).__name__}")
    payload = dict(payload)
    version = payload.pop("spec_version", 1)
    if version not in SUPPORTED_SPEC_VERSIONS:
        raise ExperimentError(
            f"unsupported spec_version {version!r}; this build reads versions "
            f"{', '.join(str(v) for v in SUPPORTED_SPEC_VERSIONS)} "
            "(absent means 1)"
        )
    schema = payload.pop("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ExperimentError(
            f"unsupported spec schema {schema!r}; this build speaks schema {SCHEMA_VERSION}"
        )
    kind = payload.pop("kind", None)
    cls = _SPEC_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ExperimentError(
            f"unknown scenario kind {kind!r}; expected one of {sorted(_SPEC_KINDS)}"
        )
    fields = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - fields)
    if unknown:
        raise ExperimentError(
            f"{kind} spec carries unknown fields: {', '.join(unknown)}"
        )
    try:
        values = {name: _tuplify(name, value) for name, value in payload.items()}
        if cls is ComparisonScenario and "cases" in values:
            values["cases"] = tuple(_case_from_dict(case, version) for case in values["cases"])
        if cls is OptimizationScenario and values.get("case") is not None:
            values["case"] = _case_from_dict(values["case"], version)
        if cls is CaseStudyScenario and isinstance(values.get("attacked_sensor"), float):
            # JSON has one number type; an integral sensor index survives the trip.
            if values["attacked_sensor"].is_integer():
                values["attacked_sensor"] = int(values["attacked_sensor"])
        return cls(**values)
    except ExperimentError:
        raise
    except (ReproError, TypeError, ValueError) as error:
        # Whatever a field's own validation raises, a malformed wire spec is
        # a request error, never an internal one.
        raise ExperimentError(f"invalid {kind} spec: {error}") from error


def spec_key(spec: ScenarioSpec) -> str:
    """Content-address of a spec: sha256 over its canonical JSON serialisation.

    Any field change — sample budget, seed, shard layout, engine, schema
    version — changes the key, which is how the artifact store invalidates
    stale results without bookkeeping.
    """
    canonical = json.dumps(spec_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
