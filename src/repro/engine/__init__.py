"""Pluggable simulation engines: one protocol, two backends.

``repro.engine`` is the single seam through which every experiment selects
its simulation backend:

>>> from repro.engine import get_engine
>>> engine = get_engine("batch")          # or "scalar", None for default
>>> result = engine.run_rounds(config, schedule, samples=100_000)

The default backend is :data:`DEFAULT_ENGINE` (``"scalar"``, the reference
Python loop); ``"batch"`` is the vectorized NumPy engine.  The high-level
call sites — :mod:`repro.api`, the scenario specs' ``engine`` field and the
benchmarks — all resolve their backend here, so a future jax engine only
needs one :func:`register_engine` call to become reachable everywhere; the
conformance suite in ``tests/engine/`` covers it the moment it registers
(parametrised over :func:`available_engines`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": (
            "DEFAULT_ENGINE",
            "AttackSpec",
            "Engine",
            "ExpectationAttack",
            "RoundsResult",
            "StretchAttack",
            "TruthfulAttack",
            "available_engines",
            "get_engine",
            "register_engine",
            "resolve_attack",
        ),
        "batch": ("BatchEngine",),
        "scalar": ("ScalarEngine",),
    },
)
