"""The built-in scenario catalogue: every paper artifact plus new workloads.

Registered on the first use of the scenario registry
(:mod:`repro.scenarios.registry`):

* ``table1-row1`` … ``table1-row8`` — the eight Table I configurations at
  Monte-Carlo scale under the greedy stretch attacker (batch engine), plus
  ``table1-expectation`` (all rows under the exact problem (2) attacker) and
  ``table1-smoke`` (a small-budget row for CI and quick runs);
* ``table2-proxy`` / ``table2-exact`` / ``table2-scalar`` — the platoon case
  study under the vectorized proxy attacker, the exact expectation attacker
  (the ROADMAP PR-3 follow-up; see the ``table2-exact-vs-proxy`` report), and
  the scalar coarse-grid oracle;
* ``fig1-marzullo`` … ``fig5-schedule-examples`` — the deterministic figure
  artifacts (:mod:`repro.scenarios.figures`);
* ``ablation-*`` — the five ablation sweeps (fault bound, attacked sensor,
  attacker strength, trust-aware schedule, baseline fusion);
* ``optimize-*`` — schedule-search workloads over the :mod:`repro.optimize`
  strategies: exhaustive sweeps of every Table I row plus annealing/bandit
  demos on a larger seven-sensor space (``docs/OPTIMIZATION.md``);
* ``sweep-*`` — new workloads beyond the paper: multi-fault ``fa`` grids,
  transient sensor dropout, and heterogeneous-noise length grids;
* ``sweep-lossy-*`` — fusion over a lossy broadcast channel
  (:mod:`repro.channel`): i.i.d. and Gilbert–Elliott loss, delivery delay
  and retransmission budgets (``docs/CHANNELS.md``).

Each paper artifact has exactly this one regenerator; the claims its
description makes are pinned by the tests under ``tests/`` (see the
README's "How the paper maps to modules" table).

Paper numbers quoted in descriptions come from
:mod:`repro.analysis.experiments` (`TABLE1_CONFIGURATIONS` /
`TABLE2_PAPER_RESULTS`), the single source of truth for them.
"""

from __future__ import annotations

from repro.analysis.experiments import TABLE1_CONFIGURATIONS, table1_row_name
from repro.channel import ChannelSpec
from repro.scenarios.registry import register_scenario
from repro.scenarios.spec import (
    CaseStudyScenario,
    ComparisonCase,
    ComparisonScenario,
    FigureScenario,
    OptimizationScenario,
)

__all__ = ["register_builtin_scenarios"]

#: LandShark sensor widths (encoder, encoder, GPS, camera) used by the
#: trust-schedule and attacked-sensor ablations.
LANDSHARK_WIDTHS = (0.2, 0.2, 1.0, 2.0)


def _table1_scenarios() -> list[ComparisonScenario]:
    scenarios = []
    for index, entry in enumerate(TABLE1_CONFIGURATIONS):
        scenarios.append(
            ComparisonScenario(
                name=table1_row_name(index),
                description=(
                    f"Table I row {index + 1}: n={entry.n}, fa={entry.fa}, L={entry.lengths} "
                    f"(paper: ascending {entry.paper_ascending}, descending "
                    f"{entry.paper_descending}) under the greedy stretch attacker"
                ),
                engine="batch",
                tags=("paper", "table1"),
                cases=(
                    ComparisonCase(
                        label=f"n{entry.n}-fa{entry.fa}",
                        lengths=entry.lengths,
                        fa=entry.fa,
                    ),
                ),
            )
        )
    scenarios.append(
        ComparisonScenario(
            name="table1-expectation",
            description=(
                "All eight Table I rows under the exact problem (2) expectation "
                "attacker (vectorized on the batch engine); smaller budget — exact "
                "decisions cost more per round"
            ),
            engine="batch",
            tags=("paper", "table1", "expectation"),
            samples=2_000,
            shard_samples=500,
            cases=tuple(
                ComparisonCase(
                    label=f"row{index + 1}-n{entry.n}-fa{entry.fa}",
                    lengths=entry.lengths,
                    fa=entry.fa,
                    attack="expectation",
                )
                for index, entry in enumerate(TABLE1_CONFIGURATIONS)
            ),
        )
    )
    first = TABLE1_CONFIGURATIONS[0]
    scenarios.append(
        ComparisonScenario(
            name="table1-smoke",
            description=(
                "Small-budget Table I row 1 — the CI smoke scenario (4 shards, "
                "seconds on one core)"
            ),
            engine="batch",
            tags=("smoke", "table1"),
            samples=20_000,
            shard_samples=5_000,
            cases=(
                ComparisonCase(label=f"n{first.n}-fa{first.fa}", lengths=first.lengths, fa=first.fa),
            ),
        )
    )
    return scenarios


def _table2_scenarios() -> list[CaseStudyScenario]:
    return [
        CaseStudyScenario(
            name="table2-proxy",
            description=(
                "Table II platoon case study, vectorized expectation-proxy attacker "
                "(paper: ascending 0/0, descending 17.42/17.65, random 5.72/5.97 %)"
            ),
            attacker="proxy",
            tags=("paper", "table2"),
        ),
        CaseStudyScenario(
            name="table2-exact",
            description=(
                "Table II under the exact problem (2) attacker "
                "(ExactExpectationBatchAttacker on the scalar oracle's coarse grid); "
                "compare with the proxy via `python -m repro report table2-exact-vs-proxy`"
            ),
            attacker="exact",
            n_steps=100,
            n_replicas=8,
            shard_replicas=2,
            tags=("paper", "table2", "expectation"),
        ),
        CaseStudyScenario(
            name="table2-scalar",
            description=(
                "Table II on the scalar reference stack (coarse-grid expectation "
                "policy) at the pinned regression scale"
            ),
            engine="scalar",
            attacker="expectation-grid",
            n_steps=60,
            n_vehicles=2,
            tags=("paper", "table2", "oracle"),
        ),
    ]


def _figure_scenarios() -> list[FigureScenario]:
    description = {
        "fig1-marzullo": "Figure 1 — Marzullo's fusion interval for f = 0, 1, 2",
        "fig2-no-optimal-policy": (
            "Figure 2 — with partial knowledge no attack placement is optimal for "
            "every realisation of the unseen interval"
        ),
        "fig3-theorem1": "Figure 3 — the two optimal-attack cases of Theorem 1",
        "fig4-worst-case": "Figure 4 / Theorems 3 & 4 — worst case per attacked set",
        "fig5-schedule-examples": (
            "Figure 5 — hand-built examples where each schedule beats the other"
        ),
    }
    return [
        FigureScenario(name=key, description=text, figure=key, tags=("paper", "figure"))
        for key, text in description.items()
    ]


def _ablation_scenarios() -> list:
    return [
        ComparisonScenario(
            name="ablation-fault-bound",
            description=(
                "Sensitivity to the fault bound f: larger f inflates the fusion "
                "interval (the price of resilience)"
            ),
            engine="batch",
            tags=("ablation",),
            samples=50_000,
            shard_samples=12_500,
            cases=tuple(
                ComparisonCase(
                    label=f"f={f}",
                    lengths=(0.5, 1.0, 2.0, 4.0, 8.0),
                    fa=1,
                    f=f,
                    schedules=("descending",),
                )
                for f in (1, 2)
            ),
        ),
        ComparisonScenario(
            name="ablation-attacked-sensor",
            description=(
                "Theorem 4 at Monte-Carlo scale: attacking a more precise LandShark "
                "sensor yields a wider expected fusion interval"
            ),
            engine="batch",
            tags=("ablation",),
            samples=50_000,
            shard_samples=12_500,
            cases=tuple(
                ComparisonCase(
                    label=label,
                    lengths=LANDSHARK_WIDTHS,
                    fa=1,
                    attacked_indices=(sensor,),
                    schedules=("descending",),
                )
                for label, sensor in (
                    ("encoder (most precise)", 0),
                    ("gps", 2),
                    ("camera (least precise)", 3),
                )
            ),
        ),
        ComparisonScenario(
            name="ablation-attacker-strength",
            description=(
                "Attacker sophistication sweep on Table I row 1 under Descending: "
                "truthful < stretch < exact expectation"
            ),
            engine="batch",
            tags=("ablation", "expectation"),
            samples=4_000,
            shard_samples=1_000,
            cases=tuple(
                ComparisonCase(
                    label=attack,
                    lengths=(5.0, 11.0, 17.0),
                    fa=1,
                    attack=attack,
                    schedules=("descending",),
                )
                for attack in ("truthful", "stretch", "expectation")
            ),
        ),
        ComparisonScenario(
            name="ablation-trust-schedule",
            description=(
                "Discussion-section scheduling: GPS attacked — trust-aware (most "
                "spoofable first) vs the precision-only orders, exact expectation attacker"
            ),
            engine="batch",
            tags=("ablation", "expectation"),
            samples=2_000,
            shard_samples=500,
            cases=(
                ComparisonCase(
                    label="gps-attacked",
                    lengths=LANDSHARK_WIDTHS,
                    fa=1,
                    attacked_indices=(2,),
                    attack="expectation",
                    schedules=(
                        "descending",
                        "ascending",
                        "trust-aware:0.1,0.1,1.0,0.8",
                    ),
                ),
            ),
        ),
        FigureScenario(
            name="ablation-baseline-fusion",
            description=(
                "Marzullo / Brooks–Iyengar vs naive mean/median under a spoofed "
                "encoder: interval fusion bounds the estimate error, the mean "
                "degrades linearly with the bias"
            ),
            figure="ablation-baseline-fusion",
            tags=("ablation",),
        ),
    ]


def _optimize_scenarios() -> list[OptimizationScenario]:
    """Schedule-search workloads (:mod:`repro.optimize`, ``docs/OPTIMIZATION.md``).

    ``optimize-table1-rowN`` sweeps row N's schedule space exhaustively and
    reports the optimum against the paper's ascending/descending orderings;
    the ``optimize-anneal-7`` / ``optimize-bandit-7`` pair demonstrates the
    budgeted strategies on a larger seven-sensor space where exhaustive
    enumeration is still available as ground truth.
    """
    scenarios = []
    for index, entry in enumerate(TABLE1_CONFIGURATIONS):
        scenarios.append(
            OptimizationScenario(
                name=f"optimize-{table1_row_name(index)}",
                description=(
                    f"Exhaustive schedule search over Table I row {index + 1} "
                    f"(n={entry.n}, fa={entry.fa}, L={entry.lengths}) vs the paper's "
                    f"ascending/descending orderings"
                ),
                tags=("optimize", "table1"),
                strategy="exhaustive",
                case=ComparisonCase(
                    label=f"n{entry.n}-fa{entry.fa}",
                    lengths=entry.lengths,
                    fa=entry.fa,
                ),
            )
        )
    seven = ComparisonCase(
        label="n7-fa1",
        lengths=(5.0, 5.0, 5.0, 8.0, 11.0, 14.0, 17.0),
        fa=1,
    )
    scenarios.append(
        OptimizationScenario(
            name="optimize-anneal-7",
            description=(
                "Simulated annealing on a seven-sensor space (840 distinct "
                "schedules) — the budgeted strategy demo; exhaustive ground "
                "truth stays feasible for cross-checks"
            ),
            tags=("optimize", "demo"),
            strategy="anneal",
            case=seven,
        )
    )
    scenarios.append(
        OptimizationScenario(
            name="optimize-bandit-7",
            description=(
                "Successive-halving bandit on the same seven-sensor space: "
                "16 seeded arms, 4 rungs of doubling budgets"
            ),
            tags=("optimize", "demo"),
            strategy="bandit",
            case=seven,
        )
    )
    return scenarios


def _sweep_scenarios() -> list[ComparisonScenario]:
    return [
        ComparisonScenario(
            name="sweep-multi-fault",
            description=(
                "Beyond the paper: a seven-sensor grid swept over fa = 1..3 "
                "simultaneously attacked sensors (f = 3)"
            ),
            engine="batch",
            tags=("sweep",),
            samples=50_000,
            shard_samples=12_500,
            cases=tuple(
                ComparisonCase(
                    label=f"fa={fa}",
                    lengths=(5.0, 5.0, 5.0, 8.0, 11.0, 14.0, 17.0),
                    fa=fa,
                )
                for fa in (1, 2, 3)
            ),
        ),
        ComparisonScenario(
            name="sweep-sensor-dropout",
            description=(
                "Beyond the paper: transient sensor dropout — honest intervals "
                "displaced off the truth with increasing probability, on top of one "
                "attacked sensor (empty fusions tracked via the valid fraction)"
            ),
            engine="batch",
            tags=("sweep", "faults"),
            samples=50_000,
            shard_samples=12_500,
            cases=tuple(
                ComparisonCase(
                    label=f"p={probability:g}",
                    lengths=(5.0, 5.0, 5.0, 5.0, 20.0),
                    fa=1,
                    fault_probability=probability,
                )
                for probability in (0.0, 0.05, 0.15)
            ),
        ),
        ComparisonScenario(
            name="sweep-hetero-noise",
            description=(
                "Beyond the paper: homogeneous vs increasingly heterogeneous "
                "interval-length grids at equal total width"
            ),
            engine="batch",
            tags=("sweep",),
            samples=50_000,
            shard_samples=12_500,
            cases=(
                ComparisonCase(label="homogeneous", lengths=(8.0, 8.0, 8.0, 8.0, 8.0), fa=1),
                ComparisonCase(label="mild", lengths=(4.0, 6.0, 8.0, 10.0, 12.0), fa=1),
                ComparisonCase(label="extreme", lengths=(1.0, 2.0, 4.0, 16.0, 17.0), fa=1),
            ),
        ),
    ]


def _lossy_scenarios() -> list[ComparisonScenario]:
    """The ``sweep-lossy-*`` family: fusion under a lossy broadcast channel.

    Each case pairs a schedule grid with a :class:`repro.channel.ChannelSpec`
    — i.i.d. loss, Gilbert–Elliott bursts, or delivery delay — crossed with
    a retransmission budget.  They run on the batch engine (the lossy
    multi-slot leg is the ``benchmarks/bench_lossy.py`` workload), and their
    payload rows carry the ``channel_dropped`` / ``channel_retransmits``
    counters; findings are written up in ``docs/CHANNELS.md``.
    """
    lengths = (5.0, 5.0, 5.0, 8.0, 11.0, 14.0, 17.0)
    return [
        ComparisonScenario(
            name="sweep-lossy-iid",
            description=(
                "Beyond the paper: Table I style sweep under i.i.d. message loss "
                "crossed with a retransmission budget — how much of the "
                "descending advantage survives an unreliable bus"
            ),
            engine="batch",
            tags=("sweep", "channel"),
            samples=50_000,
            shard_samples=12_500,
            cases=tuple(
                ComparisonCase(
                    label=f"loss={loss:g}-retx={budget}",
                    lengths=lengths,
                    fa=1,
                    channel=ChannelSpec(model="iid", loss=loss, retransmit_budget=budget),
                )
                for loss in (0.05, 0.15, 0.3)
                for budget in (0, 2)
            ),
        ),
        ComparisonScenario(
            name="sweep-lossy-burst",
            description=(
                "Gilbert–Elliott burst loss at ~15% average rate vs the matched "
                "i.i.d. channel: bursts wipe out adjacent slots, so schedules "
                "that cluster precise sensors suffer disproportionately"
            ),
            engine="batch",
            tags=("sweep", "channel"),
            samples=50_000,
            shard_samples=12_500,
            cases=(
                ComparisonCase(
                    label="iid-matched",
                    lengths=lengths,
                    fa=1,
                    channel=ChannelSpec(model="iid", loss=0.15, retransmit_budget=1),
                ),
                ComparisonCase(
                    label="burst",
                    lengths=lengths,
                    fa=1,
                    channel=ChannelSpec(
                        model="gilbert-elliott",
                        good_to_bad=0.1,
                        bad_to_good=0.5,
                        loss_good=0.02,
                        loss_bad=0.7,
                        retransmit_budget=1,
                    ),
                ),
            ),
        ),
        ComparisonScenario(
            name="sweep-lossy-delay",
            description=(
                "Delivery delay without loss: late intervals hide earlier "
                "transmissions from the attacker (shrinking its support region) "
                "but also miss fusion when they slip past the round end"
            ),
            engine="batch",
            tags=("sweep", "channel"),
            samples=50_000,
            shard_samples=12_500,
            cases=tuple(
                ComparisonCase(
                    label=f"delay={delay:g}",
                    lengths=lengths,
                    fa=1,
                    channel=ChannelSpec(model="iid", delay=delay, max_delay=2),
                )
                for delay in (0.1, 0.3, 0.6)
            ),
        ),
        ComparisonScenario(
            name="sweep-lossy-smoke",
            description=(
                "Small-budget lossy-channel scenario — the CI smoke run for the "
                "channel path (loss, delay and retransmission all exercised)"
            ),
            engine="batch",
            tags=("smoke", "channel"),
            samples=8_000,
            shard_samples=2_000,
            cases=(
                ComparisonCase(
                    label="lossy-smoke",
                    lengths=(5.0, 11.0, 17.0, 8.0, 14.0),
                    fa=1,
                    channel=ChannelSpec(
                        model="iid", loss=0.2, delay=0.1, max_delay=2, retransmit_budget=1
                    ),
                ),
            ),
        ),
    ]


def register_builtin_scenarios() -> None:
    """Register the full catalogue (idempotent via ``replace=True``)."""
    for spec in (
        *_table1_scenarios(),
        *_table2_scenarios(),
        *_figure_scenarios(),
        *_ablation_scenarios(),
        *_optimize_scenarios(),
        *_sweep_scenarios(),
        *_lossy_scenarios(),
    ):
        register_scenario(spec, replace=True)


register_builtin_scenarios()
