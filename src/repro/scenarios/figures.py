"""Deterministic paper artifacts as registered figure functions.

Each entry of :data:`FIGURES` regenerates one illustrative artifact of the
paper — Figures 1–5 and the baseline-fusion ablation — as a JSON-serialisable
payload: structured values plus ready-to-print tables (``tables`` is a list
of ``{title, headers, rows}`` dicts the CLI renders with
:func:`repro.analysis.report.format_table`).  Each function is the one
regenerator of its artifact: the scenario layer makes it addressable
(``python -m repro run fig1-marzullo``) and cacheable in the artifact store
like every Monte-Carlo scenario, and
``tests/runner/test_runner.py::TestFigureScenarios`` checks the paper's
claims on the payloads.

Figure functions take the scenario's derived generator; most artifacts are
fully deterministic and ignore it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.analysis.experiments import (
    figure1_intervals,
    figure2_configuration,
    figure5a_configuration,
    figure5b_configuration,
)
from repro.attack import ExpectationPolicy, optimal_fusion_width
from repro.attack.theorem1 import (
    Theorem1Inputs,
    case1_applies,
    case1_placements,
    case2_applies,
    case2_placements,
)
from repro.core import Interval, brooks_iyengar, fuse, mean_fusion, median_fusion
from repro.core.worst_case import worst_case_no_attack, worst_case_over_attacked_sets
from repro.scheduling import (
    AscendingSchedule,
    DescendingSchedule,
    RoundConfig,
    correct_placement_grid,
    run_round,
)
from repro.sensors import SensorSuite, UniformNoise, sensors_from_widths
from repro.viz import LabeledInterval, render_fusion_figure

__all__ = ["FIGURES"]


def _interval_dict(interval: Interval) -> dict:
    return {"lo": float(interval.lo), "hi": float(interval.hi), "width": float(interval.width)}


def fig1_marzullo(rng: np.random.Generator) -> dict:
    """Figure 1 — the fusion interval grows with ``f`` on one configuration."""
    intervals = figure1_intervals()
    fusions = {f: fuse(intervals, f) for f in (0, 1, 2)}
    sensors = [LabeledInterval(f"s{i + 1}", s) for i, s in enumerate(intervals)]
    labelled = [LabeledInterval(f"S(f={f})", fusion) for f, fusion in fusions.items()]
    return {
        "sensors": [_interval_dict(s) for s in intervals],
        "fusions": {str(f): _interval_dict(fusion) for f, fusion in fusions.items()},
        "ascii": render_fusion_figure(sensors, labelled),
        "tables": [
            {
                "title": "Figure 1 — fusion interval for f = 0, 1, 2",
                "headers": ["f", "fusion lo", "fusion hi", "width"],
                "rows": [
                    [str(f), f"{fusion.lo:.2f}", f"{fusion.hi:.2f}", f"{fusion.width:.2f}"]
                    for f, fusion in fusions.items()
                ],
            }
        ],
    }


def fig2_no_optimal_policy(rng: np.random.Generator) -> dict:
    """Figure 2 — no placement of ``a1`` is optimal for every unseen ``s2``."""
    config = figure2_configuration()
    s1 = config["s1"]
    width = config["attacked_width"]
    f = config["f"]
    commitments = {
        "attack right": Interval(s1.hi, s1.hi + width),
        "attack left": Interval(s1.lo - width, s1.lo),
        "attack both sides": Interval.from_center(s1.center, width),
    }
    realisations = {"s2 left": config["s2_left"], "s2 right": config["s2_right"]}
    regrets: dict[str, dict[str, float]] = {}
    rows = []
    for label, forged in commitments.items():
        regrets[label] = {}
        cells = [label]
        for name, s2 in realisations.items():
            achieved = fuse([s1, s2, forged], f).width
            optimum = optimal_fusion_width([s1, s2], [width], f)
            regrets[label][name] = float(optimum - achieved)
            cells.append(f"{achieved:.2f} (opt {optimum:.2f})")
        rows.append(cells)
    return {
        "regrets": regrets,
        "no_commitment_is_universally_optimal": all(
            max(per.values()) > 1e-9 for per in regrets.values()
        ),
        "tables": [
            {
                "title": "Figure 2 — regret of committing before seeing s2",
                "headers": ["commitment of a1", *realisations],
                "rows": rows,
            }
        ],
    }


def _theorem1_case(inputs: Theorem1Inputs, placements, true_value: float) -> dict:
    rows = []
    all_optimal = True
    unseen_width = inputs.unseen_correct_widths[0]
    for unseen in correct_placement_grid(unseen_width, true_value, positions=9):
        correct = list(inputs.seen_correct) + [unseen]
        achieved = fuse(correct + list(placements), inputs.f).width
        optimum = optimal_fusion_width(correct, list(inputs.attacked_widths), inputs.f)
        all_optimal &= abs(achieved - optimum) < 1e-9
        rows.append([f"[{unseen.lo:.2f}, {unseen.hi:.2f}]", f"{achieved:.3f}", f"{optimum:.3f}"])
    return {"rows": rows, "all_optimal": bool(all_optimal)}


def fig3_theorem1(rng: np.random.Generator) -> dict:
    """Figure 3 — both Theorem 1 cases achieve the full-knowledge optimum."""
    case1 = Theorem1Inputs(
        n=4,
        f=1,
        seen_correct=(Interval(4.0, 6.0), Interval(4.0, 6.0)),
        delta=Interval(4.5, 5.5),
        attacked_widths=(8.0,),
        unseen_correct_widths=(1.0,),
    )
    case2 = Theorem1Inputs(
        n=4,
        f=1,
        seen_correct=(Interval(2.0, 6.0), Interval(5.0, 9.0)),
        delta=Interval(5.2, 5.8),
        attacked_widths=(8.0,),
        unseen_correct_widths=(0.1,),
    )
    assert case1_applies(case1) and case2_applies(case2)
    verdict1 = _theorem1_case(case1, case1_placements(case1), true_value=5.0)
    verdict2 = _theorem1_case(case2, case2_placements(case2), true_value=5.5)
    headers = ["realisation of unseen s3", "achieved width", "optimal width"]
    return {
        "case1_optimal": verdict1["all_optimal"],
        "case2_optimal": verdict2["all_optimal"],
        "tables": [
            {"title": "Figure 3(a) / Theorem 1 case 1", "headers": headers, "rows": verdict1["rows"]},
            {"title": "Figure 3(b) / Theorem 1 case 2", "headers": headers, "rows": verdict2["rows"]},
        ],
    }


def fig4_worst_case(rng: np.random.Generator) -> dict:
    """Figure 4 / Theorems 3 & 4 — worst case per attacked set."""
    widths = [2.0, 4.0, 8.0]
    f = 1
    resolution = 0.5
    baseline = worst_case_no_attack(widths, f, resolution=resolution)
    per_set = worst_case_over_attacked_sets(widths, fa=1, f=f, resolution=resolution)
    rows = [["no attack", f"{baseline.width:.2f}"]]
    by_attacked = {}
    for attacked, result in sorted(per_set.items()):
        label = ", ".join(f"width {widths[i]:g}" for i in attacked)
        by_attacked[",".join(str(i) for i in attacked)] = float(result.width)
        rows.append([f"attack {label}", f"{result.width:.2f}"])
    return {
        "widths": widths,
        "f": f,
        "no_attack_width": float(baseline.width),
        "worst_case_by_attacked_set": by_attacked,
        "tables": [
            {
                "title": f"Figure 4 / Theorems 3 & 4 — widths {widths}, f = {f}",
                "headers": ["configuration", "worst-case fusion width"],
                "rows": rows,
            }
        ],
    }


def _fig5_example(correct, f: int) -> dict[str, float]:
    widths = {}
    for schedule in (AscendingSchedule(), DescendingSchedule()):
        result = run_round(
            list(correct),
            RoundConfig(
                schedule=schedule, attacked_indices=(0,), policy=ExpectationPolicy(), f=f
            ),
            np.random.default_rng(0),
        )
        widths[schedule.name] = float(result.fusion_width)
    return widths


def fig5_schedule_examples(rng: np.random.Generator) -> dict:
    """Figure 5 — hand-built examples where each schedule beats the other."""
    config_a = figure5a_configuration()
    widths_a = _fig5_example(
        [config_a["attacked_reading"], *config_a["correct"]], config_a["f"]
    )
    config_b = figure5b_configuration()
    widths_b = _fig5_example(
        [config_b["attacked_reading"], *config_b["correct_small"], config_b["correct_large"]],
        config_b["f"],
    )
    rows = [
        ["5(a)", f"{widths_a['ascending']:.2f}", f"{widths_a['descending']:.2f}"],
        ["5(b)", f"{widths_b['ascending']:.2f}", f"{widths_b['descending']:.2f}"],
    ]
    return {
        "fig5a": widths_a,
        "fig5b": widths_b,
        "ascending_better_in_5a": widths_a["ascending"] < widths_a["descending"],
        "descending_no_worse_in_5b": widths_b["descending"] <= widths_b["ascending"],
        "tables": [
            {
                "title": "Figure 5 — neither schedule dominates every configuration",
                "headers": ["example", "ascending width", "descending width"],
                "rows": rows,
            }
        ],
    }


def ablation_baseline_fusion(rng: np.random.Generator) -> dict:
    """Marzullo / Brooks–Iyengar vs naive baselines under a spoofed encoder."""
    widths = [0.2, 0.2, 1.0, 2.0]  # encoder, encoder, GPS, camera
    spoofed = 0
    true_value = 10.0
    rounds = 300
    suite = SensorSuite(sensors_from_widths(widths, noise=UniformNoise()))
    estimators = ("marzullo midpoint", "brooks-iyengar", "median", "mean")
    stats: dict[str, dict[str, float]] = {}
    for bias in (0.5, 2.0, 10.0):
        errors: dict[str, list[float]] = {name: [] for name in estimators}
        for _ in range(rounds):
            readings = suite.measure_all(true_value, rng)
            intervals = [reading.interval for reading in readings]
            intervals[spoofed] = intervals[spoofed].shift(bias)
            result = brooks_iyengar(intervals, 1)
            errors["marzullo midpoint"].append(abs(result.interval.center - true_value))
            errors["brooks-iyengar"].append(abs(result.estimate - true_value))
            errors["median"].append(abs(median_fusion(intervals).center - true_value))
            errors["mean"].append(abs(mean_fusion(intervals).center - true_value))
        stats[f"{bias:g}"] = {name: float(np.mean(values)) for name, values in errors.items()}
    return {
        "mean_abs_error_by_bias": stats,
        "tables": [
            {
                "title": (
                    f"Mean |estimate - truth| (mph) over {rounds} rounds — LandShark widths, "
                    "one encoder spoofed, f = 1"
                ),
                "headers": ["spoofed encoder bias", *estimators],
                "rows": [
                    [f"bias = {bias} mph", *(f"{per[name]:.3f}" for name in estimators)]
                    for bias, per in stats.items()
                ],
            }
        ],
    }


#: Registered figure functions, keyed by the :class:`FigureScenario.figure` field.
FIGURES: dict[str, Callable[[np.random.Generator], dict]] = {
    "fig1-marzullo": fig1_marzullo,
    "fig2-no-optimal-policy": fig2_no_optimal_policy,
    "fig3-theorem1": fig3_theorem1,
    "fig4-worst-case": fig4_worst_case,
    "fig5-schedule-examples": fig5_schedule_examples,
    "ablation-baseline-fusion": ablation_baseline_fusion,
}
