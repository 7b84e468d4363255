"""Centralised deterministic seed derivation, built on ``SeedSequence.spawn``.

Every stochastic component of the library takes an explicit
:class:`numpy.random.Generator`; this module is the single place those
generators are *derived* from integer seeds.  Two rules:

1. **Never derive child streams by integer arithmetic.**  The historical
   ``default_rng(config.seed + index)`` pattern is collision-prone — the
   stream of schedule ``index + 1`` under seed ``s`` *is* the stream of
   schedule ``index`` under seed ``s + 1``, so sweeps over nearby seeds
   silently share randomness.  :func:`derive_rng` keys children with
   ``SeedSequence`` spawn keys instead, which are hashed into the entropy
   pool and collision-resistant by construction.
2. **Shard keys are part of the experiment definition, not the executor.**
   :func:`shard_seed_sequences` gives shard ``i`` of an experiment the
   stream ``SeedSequence(entropy=seed, spawn_key=(i,))`` — a pure function
   of ``(seed, i)`` — so a sharded run is bit-reproducible no matter how
   many workers execute the shards or in which order they finish.  The
   scenario runner (:mod:`repro.runner`) relies on exactly this property.

``SeedSequence(entropy=seed, spawn_key=(i,))`` is the same sequence as
``SeedSequence(seed).spawn(n)[i]`` — the stateless spelling used here makes
the derivation order-free, so workers can rebuild their own streams without
coordinating.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "child_seed_sequence",
    "derive_rng",
    "ensure_rng",
    "jumped_rngs",
    "shard_seed_sequences",
    "spawn_rng",
]


def child_seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` for child ``key`` of ``seed``.

    ``key`` may be any tuple of non-negative integers — e.g. ``(case, shard)``
    for a sharded grid.  An empty key returns the root sequence, whose
    generator is identical to ``np.random.default_rng(seed)``.
    """
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """A :class:`~numpy.random.Generator` on the child stream ``key`` of ``seed``.

    The collision-free replacement for ``default_rng(seed + index)``:
    ``derive_rng(seed, index)`` streams are independent across *both* indices
    and nearby base seeds.
    """
    return np.random.default_rng(child_seed_sequence(seed, *key))


def ensure_rng(rng: np.random.Generator | None, seed: int = 0) -> np.random.Generator:
    """Pass ``rng`` through, or build the default generator for ``seed``.

    The shared spelling of the ``rng if rng is not None else default_rng(0)``
    fallback; keeping it in one place makes the default stream greppable and
    bit-identical across call sites.
    """
    return rng if rng is not None else np.random.default_rng(seed)


def jumped_rngs(seed: int, count: int, *key: int) -> list[np.random.Generator]:
    """``count`` independent generators on child ``key``, via ``PCG64.jumped``.

    Stream ``i`` is ``Generator(PCG64(child_seed_sequence(seed, *key)).jumped(i))``
    — a pure function of ``(seed, key, i)``, independent of ``count``, so a
    prefix of the streams is always the same streams (callers can shard a
    budget from the front and re-use earlier draws at smaller budgets).
    Each jump advances PCG64 by :math:`2^{127}` states, so the streams
    cannot overlap in practice.

    Compared to one :func:`derive_rng` per stream this hashes the entropy
    pool *once* per key instead of once per stream — the spelling for hot
    loops that need many short-lived shard streams per key (the schedule
    evaluator in :mod:`repro.optimize` derives one family per candidate).
    """
    bit_generator = np.random.PCG64(child_seed_sequence(seed, *key))
    return [np.random.Generator(bit_generator.jumped(index)) for index in range(count)]


def shard_seed_sequences(seed: int, count: int) -> list[np.random.SeedSequence]:
    """Independent per-shard seed sequences — a pure function of ``(seed, i)``."""
    return [child_seed_sequence(seed, index) for index in range(count)]


def spawn_rng(rng: np.random.Generator) -> np.random.Generator:
    """One child generator spawned off ``rng``'s seed sequence.

    ``Generator.spawn`` derives the child through ``SeedSequence`` spawn
    keys **without consuming the parent's bitstream**: the parent produces
    exactly the same draws after the spawn as it would have without it.
    This is the hook for *optional* randomness — the lossy-channel model
    (:mod:`repro.channel`) draws from a spawned child at a fixed point of
    the engine prologue, so channel-free payloads stay bit-identical while
    every engine backend sees the same channel stream.
    """
    return rng.spawn(1)[0]
