"""Shared fixtures for the benchmark harness.

The benchmarks are throughput and overhead gates: each times one engine
path against its reference and asserts a floor, with the knobs below
trading runtime for statistical weight.  Each writes its measurements to
``benchmarks/results/<name>.txt`` (and ``.json`` where CI archives them)
and echoes them to stdout.  The paper's tables and figures themselves are
regenerated by the scenario catalogue (``python -m repro run NAME``), and
the claims they make are pinned by the tests under ``tests/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def batch_samples() -> int:
    """Monte-Carlo trials per schedule for the batched sweeps (default 100 000)."""
    value = os.environ.get("REPRO_BENCH_BATCH_SAMPLES", "")
    try:
        return max(1_000, int(value)) if value else 100_000
    except ValueError:
        return 100_000


@pytest.fixture(scope="session")
def expectation_samples() -> int:
    """Monte-Carlo trials per schedule for the batched *exact* expectation
    attacker (default 1 000, floor 1 000 — the acceptance scale for the
    vectorized problem (2) sweeps).  ``REPRO_BENCH_EXPECTATION_SAMPLES``
    raises it for publication-grade statistics; the exact attacker costs far
    more per round than the greedy stretch attacker, so the default is three
    orders of magnitude below ``REPRO_BENCH_BATCH_SAMPLES``.
    """
    value = os.environ.get("REPRO_BENCH_EXPECTATION_SAMPLES", "")
    try:
        return max(1_000, int(value)) if value else 1_000
    except ValueError:
        return 1_000


@pytest.fixture(scope="session")
def case_study_steps() -> int:
    """Control periods per schedule for the Table II benchmark (default 300)."""
    value = os.environ.get("REPRO_BENCH_STEPS", "")
    try:
        return max(10, int(value)) if value else 300
    except ValueError:
        return 300


@pytest.fixture(scope="session")
def case_study_replicas() -> int:
    """Parallel platoon replicas for the batched Table II benchmark (default 32).

    ``REPRO_BENCH_REPLICAS`` scales the batched case study's round count
    (``replicas × vehicles × steps``); the CI smoke job uses a tiny value.
    """
    value = os.environ.get("REPRO_BENCH_REPLICAS", "")
    try:
        return max(1, int(value)) if value else 32
    except ValueError:
        return 32


@pytest.fixture(scope="session")
def speedup_floor() -> float:
    """Required batch-vs-scalar throughput ratio for regression gates (default 10x).

    ``REPRO_BENCH_SPEEDUP_FLOOR`` loosens the gates on noisy shared runners
    (CI smoke uses 5) without giving up the regression guard entirely.
    Shared by the fusion-kernel and case-study speedup benchmarks.
    """
    value = os.environ.get("REPRO_BENCH_SPEEDUP_FLOOR", "")
    try:
        return float(value) if value else 10.0
    except ValueError:
        return 10.0


@pytest.fixture(scope="session")
def fused_speedup_floor() -> float:
    """Required per-transmission-vs-slot-loop throughput ratio on the multi-slot row (default 3x).

    ``REPRO_BENCH_FUSED_FLOOR`` loosens the gate on noisy shared runners.
    """
    value = os.environ.get("REPRO_BENCH_FUSED_FLOOR", "")
    try:
        return float(value) if value else 3.0
    except ValueError:
        return 3.0


@pytest.fixture(scope="session")
def lossy_speedup_floor() -> float:
    """Required per-transmission-vs-slot-loop ratio on the lossy multi-slot row (default 2x).

    ``REPRO_BENCH_LOSSY_FLOOR`` loosens the gate on noisy shared runners.
    The floor is below the channel-free gate (3x): the masked sweeps and
    the per-slot visibility bookkeeping give some of the edge back.
    """
    value = os.environ.get("REPRO_BENCH_LOSSY_FLOOR", "")
    try:
        return float(value) if value else 2.0
    except ValueError:
        return 2.0


@pytest.fixture(scope="session")
def serve_coalescing_floor() -> float:
    """Required coalescing-vs-baseline serving throughput ratio (default 3x).

    ``REPRO_BENCH_SERVE_FLOOR`` loosens the gate on noisy shared runners;
    the reference machine shows well above 3x at 64 identical-plan clients.
    """
    value = os.environ.get("REPRO_BENCH_SERVE_FLOOR", "")
    try:
        return float(value) if value else 3.0
    except ValueError:
        return 3.0


@pytest.fixture(scope="session")
def serve_clients() -> int:
    """Concurrent identical-plan clients for the serving benchmark (default 64)."""
    value = os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "")
    try:
        return max(8, int(value)) if value else 64
    except ValueError:
        return 64


@pytest.fixture(scope="session")
def serve_samples() -> int:
    """Monte-Carlo rounds per served request (default 400, floor 100).

    Split into 16 small shards per request — the many-small-passes regime
    dynamic batching exists for.  Raising this towards ~10⁴ shifts requests
    into per-round-dominated territory where coalescing (by design) matters
    less.
    """
    value = os.environ.get("REPRO_BENCH_SERVE_SAMPLES", "")
    try:
        return max(100, int(value)) if value else 400
    except ValueError:
        return 400


@pytest.fixture(scope="session")
def optimize_packing_floor() -> float:
    """Required packed-vs-loop candidate-evaluation throughput ratio (default 5x).

    ``REPRO_BENCH_OPTIMIZE_FLOOR`` loosens the gate on noisy shared runners
    (the CI optimize job does); the reference machine clears 5x on the
    n=16 tied-width configuration at 80 small shards per candidate.
    """
    value = os.environ.get("REPRO_BENCH_OPTIMIZE_FLOOR", "")
    try:
        return float(value) if value else 5.0
    except ValueError:
        return 5.0


@pytest.fixture(scope="session")
def optimize_candidates() -> int:
    """Distinct candidate schedules per benchmark leg (default 12, floor 4).

    ``REPRO_BENCH_OPTIMIZE_CANDIDATES`` scales the workload; more candidates
    stabilise the throughput estimate at the cost of runtime.
    """
    value = os.environ.get("REPRO_BENCH_OPTIMIZE_CANDIDATES", "")
    try:
        return max(4, int(value)) if value else 12
    except ValueError:
        return 12


@pytest.fixture(scope="session")
def obs_overhead_floor() -> float:
    """Maximum tolerated traced-vs-untraced slowdown fraction (default 0.05).

    ``REPRO_BENCH_OBS_OVERHEAD`` loosens the telemetry overhead gate on
    noisy shared runners (CI uses a looser value); 0.05 means a traced run
    may cost at most 5% more wall-clock than an untraced one.
    """
    value = os.environ.get("REPRO_BENCH_OBS_OVERHEAD", "")
    try:
        return float(value) if value else 0.05
    except ValueError:
        return 0.05


@pytest.fixture(scope="session")
def report_writer():
    """Write a named report to ``benchmarks/results`` and echo it to stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _write(name: str, text: str) -> Path:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")
        print(f"\n{text}\n[written to {path}]")
        return path

    return _write


@pytest.fixture(scope="session")
def json_report_writer():
    """Write a named machine-readable report to ``benchmarks/results/<name>.json``.

    CI uploads these as workflow artifacts, so benchmark numbers are
    archived per run next to the human-readable tables.
    """
    import json

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _write(name: str, payload: dict) -> Path:
        path = RESULTS_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"\n[benchmark JSON written to {path}]")
        return path

    return _write
