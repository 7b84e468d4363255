"""Small shared utilities (deterministic RNG construction and derivation)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "seeding": (
            "child_seed_sequence",
            "derive_rng",
            "ensure_rng",
            "shard_seed_sequences",
        ),
    },
)
