"""The centralized seed-derivation helpers (hypothesis-tested).

The property suite pins the two contracts the sharded runner builds on:
spawn-key streams over ``(case, shard)`` grids are pairwise distinct and
independent of derivation order, and :func:`ensure_rng` never hands two
call sites one shared (aliased) generator when it builds the fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.seeding import (
    child_seed_sequence,
    derive_rng,
    ensure_rng,
    shard_seed_sequences,
)


def test_child_sequence_matches_spawn():
    # The stateless spawn-key construction equals SeedSequence.spawn — the
    # property that lets workers rebuild their streams without coordination.
    root = np.random.SeedSequence(2014)
    children = root.spawn(5)
    for index, child in enumerate(children):
        stateless = child_seed_sequence(2014, index)
        assert stateless.entropy == child.entropy
        assert stateless.spawn_key == child.spawn_key
        a = np.random.default_rng(stateless).random(8)
        b = np.random.default_rng(child).random(8)
        np.testing.assert_array_equal(a, b)


def test_derive_rng_is_deterministic_and_keyed():
    a = derive_rng(7, 1, 2).random(16)
    b = derive_rng(7, 1, 2).random(16)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, derive_rng(7, 1, 3).random(16))
    assert not np.array_equal(a, derive_rng(8, 1, 2).random(16))


def test_derive_rng_root_matches_default_rng():
    np.testing.assert_array_equal(
        derive_rng(123).random(8), np.random.default_rng(123).random(8)
    )


def test_no_cross_seed_collision():
    # The failure mode of the old `seed + index` arithmetic: stream (seed, 1)
    # must NOT equal stream (seed + 1, 0).
    np.random.default_rng(2014 + 1)
    collided = np.array_equal(derive_rng(2014, 1).random(16), derive_rng(2015, 0).random(16))
    assert not collided


def test_ensure_rng_passthrough_and_default():
    rng = np.random.default_rng(5)
    assert ensure_rng(rng) is rng
    np.testing.assert_array_equal(
        ensure_rng(None).random(4), np.random.default_rng(0).random(4)
    )
    np.testing.assert_array_equal(
        ensure_rng(None, 42).random(4), np.random.default_rng(42).random(4)
    )


def test_shard_helpers_spawn_keyed_streams():
    sequences = shard_seed_sequences(9, 3)
    assert [s.spawn_key for s in sequences] == [(0,), (1,), (2,)]
    draws = {tuple(np.random.default_rng(s).random(4)) for s in sequences}
    assert len(draws) == 3  # independent streams


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cases=st.integers(min_value=1, max_value=4),
    shards=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=30, deadline=None)
def test_case_shard_streams_pairwise_distinct(seed, cases, shards):
    """Every (case, shard) spawn key gets its own stream — no collisions.

    This is the property the ``seed + index`` arithmetic lacked: on a full
    grid all derived streams must differ from each other, from their base
    seed's root stream, and from the neighbouring seed's grid.
    """
    draws = {}
    for case in range(cases):
        for shard in range(shards):
            draws[(case, shard)] = tuple(derive_rng(seed, case, shard).random(8))
    assert len(set(draws.values())) == cases * shards
    root = tuple(np.random.default_rng(seed).random(8))
    assert root not in set(draws.values())
    neighbour = tuple(derive_rng(seed + 1, 0, 0).random(8))
    assert neighbour not in set(draws.values())


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    keys=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=2, max_size=8, unique=True
    ),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=30, deadline=None)
def test_case_shard_streams_order_independent(seed, keys, order):
    """Derivation order never matters: streams are pure functions of the key.

    Workers rebuild their own streams without coordinating, so deriving
    the grid in any shuffled order must give byte-identical streams.
    """
    in_order = {key: derive_rng(seed, *key).random(4) for key in keys}
    shuffled = list(keys)
    order.shuffle(shuffled)
    for key in shuffled:
        np.testing.assert_array_equal(derive_rng(seed, *key).random(4), in_order[key])


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_ensure_rng_never_aliases_the_fallback(seed):
    """Two fallback calls must not share one generator object or state.

    If ``ensure_rng`` cached its default generator, one call site's draws
    would silently advance another's stream; each call must build a fresh,
    stateless-derived generator.
    """
    a = ensure_rng(None, seed)
    b = ensure_rng(None, seed)
    assert a is not b
    first = a.random(16)
    # Drawing from `a` must leave `b` at the stream's origin.
    np.testing.assert_array_equal(b.random(16), first)


def test_ensure_rng_passes_the_callers_generator_through_unwrapped():
    # Pass-through (not aliasing a *different* object) is the documented
    # contract: the caller keeps full ownership of its stream.
    rng = np.random.default_rng(123)
    assert ensure_rng(rng) is rng
    assert ensure_rng(rng, seed=999) is rng


@pytest.mark.parametrize("count", [1, 4])
def test_shard_seed_sequences_count(count):
    assert len(shard_seed_sequences(0, count)) == count
