"""Pluggable simulation engines: one protocol, two backends.

``repro.engine`` is the single seam through which every experiment selects
its simulation backend:

>>> from repro.engine import get_engine
>>> engine = get_engine("batch")          # or "scalar", None for default
>>> result = engine.run_rounds(config, schedule, samples=100_000)

The default backend is ``"scalar"`` (the reference Python loop) unless the
``REPRO_ENGINE`` environment variable names another registered engine;
``"batch"`` is the vectorized NumPy engine, also registered as ``"fused"``
so scenarios and store keys that name the former fused engine still
resolve.  The high-level call sites —
:func:`repro.scheduling.comparison.compare_schedules` (``engine=...``),
:func:`repro.vehicle.case_study.run_case_study` (``engine=...``), the
scenario specs' ``engine`` field and the Table I/II benchmarks — all
resolve their backend here, so a future jax engine only needs one
:func:`register_engine` call to become reachable everywhere; the
conformance suite in ``tests/engine/`` covers it the moment it registers
(parametrised over :func:`list_engines`).
"""

from repro.engine.base import (
    DEFAULT_ENGINE,
    ENGINE_ENV_VAR,
    AttackSpec,
    Engine,
    ExpectationAttack,
    RoundsResult,
    StretchAttack,
    TruthfulAttack,
    available_engines,
    default_engine_name,
    get_engine,
    register_engine,
    resolve_attack,
)
from repro.engine.base import list_engines
from repro.engine.batch import BatchEngine
from repro.engine.scalar import ScalarEngine

register_engine(ScalarEngine.name, ScalarEngine, replace=True)
register_engine(BatchEngine.name, BatchEngine, replace=True)


def _fused_engine_factory() -> BatchEngine:
    # "fused" is another name for the batch engine, kept so the scenarios and
    # store keys that use it still resolve; the instance carries the name it
    # was requested by, so telemetry labels match the caller's spelling.
    engine = BatchEngine()
    engine.name = "fused"
    return engine


register_engine("fused", _fused_engine_factory, replace=True)

__all__ = [
    "ENGINE_ENV_VAR",
    "DEFAULT_ENGINE",
    "AttackSpec",
    "TruthfulAttack",
    "StretchAttack",
    "ExpectationAttack",
    "resolve_attack",
    "RoundsResult",
    "Engine",
    "ScalarEngine",
    "BatchEngine",
    "register_engine",
    "available_engines",
    "list_engines",
    "default_engine_name",
    "get_engine",
]
