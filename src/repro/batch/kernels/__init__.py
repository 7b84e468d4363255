"""JIT-compiled (numba) kernels for the hot loops of the per-transmission program.

This package holds ``@numba.njit``-compiled counterparts of the NumPy array
programs in :mod:`repro.batch.fuse` and :mod:`repro.batch.rounds` — the
interval-endpoint fusion sweep, the attacker's one-sided support search,
the greedy stretch forging step, and the Monte-Carlo round body — driven by
:class:`repro.engine.numba_engine.NumbaEngine`.

Two properties keep the core dependency set at stdlib + NumPy:

* **Importing this package never imports numba.**  Availability is probed
  with :func:`importlib.util.find_spec`; the kernel submodules (which *do*
  import numba when it is present) load lazily through a module
  ``__getattr__``, and the engine registry only lists ``"numba"`` when
  :func:`kernels_available` is true.
* **The kernels are plain Python underneath.**  When numba is absent — or
  when ``REPRO_NUMBA_PUREPY=1`` forces it — the ``njit`` decorator in
  :mod:`repro.batch.kernels._compat` is an identity shim and the same code
  runs as ordinary Python.  Slow, but bit-identical, which is what lets the
  conformance and hypothesis suites pin the kernels against their NumPy
  counterparts on machines without numba.

The kernels are *RNG-free by construction*: every draw happens in the shared
:func:`repro.batch.rounds.prepare_rounds` prologue, so the numba engine's
random stream — and therefore its payloads — match the batch engine
bit-for-bit.
"""

from __future__ import annotations

import importlib
import importlib.util
import os

__all__ = [
    "PUREPY_ENV_VAR",
    "numba_importable",
    "purepy_forced",
    "kernels_available",
    "numba_rounds_prepared",
    "sweep_fusion",
    "sweep_support",
    "stretch_attack_step",
]

#: Environment variable forcing the pure-Python kernel fallback (and kernel
#: availability) even when numba is importable — the no-JIT test mode.
PUREPY_ENV_VAR = "REPRO_NUMBA_PUREPY"


def numba_importable() -> bool:
    """Whether the optional ``numba`` dependency can be imported (not: is)."""
    return importlib.util.find_spec("numba") is not None


def purepy_forced() -> bool:
    """Whether ``REPRO_NUMBA_PUREPY`` forces the pure-Python kernel fallback."""
    return os.environ.get(PUREPY_ENV_VAR, "").strip().lower() in {"1", "true", "yes", "on"}


def kernels_available() -> bool:
    """Whether the ``"numba"`` engine should register.

    True when numba is importable (the JIT path) or when the pure-Python
    fallback is forced (the no-JIT test mode); false otherwise, so the
    registry's engine list stays honest on stdlib+numpy installs.
    """
    return numba_importable() or purepy_forced()


_LAZY_EXPORTS = {
    "numba_rounds_prepared": "repro.batch.kernels.rounds",
    "sweep_fusion": "repro.batch.kernels.sweep",
    "sweep_support": "repro.batch.kernels.sweep",
    "stretch_attack_step": "repro.batch.kernels.attacker",
}


def __getattr__(name: str):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
