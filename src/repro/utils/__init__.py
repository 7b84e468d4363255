"""Small shared utilities (deterministic RNG construction and derivation)."""

from repro.utils.seeding import (
    child_seed_sequence,
    derive_rng,
    ensure_rng,
    shard_rngs,
    shard_seed_sequences,
)

__all__ = [
    "child_seed_sequence",
    "derive_rng",
    "ensure_rng",
    "shard_rngs",
    "shard_seed_sequences",
]
