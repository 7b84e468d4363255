"""Small shared utilities (deterministic RNG construction and derivation)."""

from repro._lazy import lazy_exports

__all__ = [
    "child_seed_sequence",
    "derive_rng",
    "ensure_rng",
    "shard_rngs",
    "shard_seed_sequences",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "seeding": (
            "child_seed_sequence",
            "derive_rng",
            "ensure_rng",
            "shard_rngs",
            "shard_seed_sequences",
        ),
    },
)
