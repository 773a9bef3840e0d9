"""``spawn_rngs`` derives exactly the generators ``spawn_rng`` does.

So do the generators ``np.random.default_rng`` builds from ``spawn_seeds``.
The batch replays numpy's ``SeedSequence`` hash in vectorized ``uint32``
arithmetic; these properties pin it to numpy's own path on the bit
generator state and on the draws, for arbitrary base seeds and label
rows, for batch sizes from empty to a few hundred, and for derived seeds
at the word boundaries of the hash's entropy (one word below ``2**32``,
two at and above it, up to the largest 63-bit seed).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.utils.rng as rng_module
from repro.utils.rng import derive_seed, spawn_rng, spawn_rngs, spawn_seeds

PROPERTY_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

base_seeds = st.one_of(
    st.integers(-(2**63), 2**63),
    st.integers(-(2**31), 2**31).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
)
labels = st.one_of(
    st.integers(-(2**40), 2**40),
    st.text(max_size=8),
    st.floats(allow_nan=True, allow_infinity=True),
)
free_rows = st.lists(st.tuples(labels, labels) | st.tuples(labels), max_size=12)
# Long batches: one drawn prefix, then a running index, as the callers key
# their streams.
indexed_rows = st.tuples(st.tuples(labels), st.integers(0, 300)).map(
    lambda spec: [spec[0] + (index,) for index in range(spec[1])]
)
label_rows = st.tuples(free_rows, indexed_rows).map(lambda parts: parts[0] + parts[1])

_ANCHORS = (0, 2**32 - 1, 2**32, 2**63 - 1)
derived_seeds = st.sampled_from(_ANCHORS).flatmap(
    lambda anchor: st.integers(max(0, anchor - 4), min(2**63 - 1, anchor + 4))
)


def _assert_same_generators(batch, reference):
    batch = list(batch)
    assert len(batch) == len(reference)
    for ours, theirs in zip(batch, reference):
        assert ours.bit_generator.state == theirs.bit_generator.state
        assert ours.random() == theirs.random()
        assert ours.integers(1 << 62) == theirs.integers(1 << 62)
        assert np.array_equal(ours.normal(size=5), theirs.normal(size=5))


@PROPERTY_SETTINGS
@given(base_seed=base_seeds, rows=label_rows)
def test_batch_equals_one_spawn_rng_per_row(base_seed, rows):
    reference = [spawn_rng(base_seed, *row) for row in rows]
    _assert_same_generators(spawn_rngs(base_seed, rows), reference)
    # Fresh references: the comparison above drew from the first ones.
    reference = [spawn_rng(base_seed, *row) for row in rows]
    seeded = [np.random.default_rng(seed) for seed in spawn_seeds(base_seed, rows)]
    _assert_same_generators(seeded, reference)


@PROPERTY_SETTINGS
@given(seeds=st.lists(derived_seeds, min_size=1, max_size=40))
@example(seeds=[seed for anchor in _ANCHORS for seed in (anchor, max(0, anchor - 1))])
def test_derived_seeds_at_the_word_boundaries(seeds):
    # Route each row's single label straight through as its derived seed.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng_module, "derive_seed", lambda base_seed, seed: seed)
        batch = spawn_rngs(0, [(seed,) for seed in seeds])
    _assert_same_generators(batch, [np.random.default_rng(seed) for seed in seeds])


def test_empty_batch():
    assert list(spawn_rngs(7, [])) == []
    assert spawn_seeds(7, iter(())) == []


def test_generators_are_built_as_the_batch_is_read(monkeypatch):
    expected = spawn_rng(7, "walk", 0).bit_generator.state
    built = []
    real_default_rng = np.random.default_rng

    def counting_default_rng(seed):
        built.append(seed)
        return real_default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    streams = spawn_rngs(7, [("walk", user) for user in range(3)])
    assert built == []
    first = next(streams)
    assert len(built) == 1
    assert first.bit_generator.state == expected
    assert len(list(streams)) == 2 and len(built) == 3


# Text that needs escaping in a repr or is not ASCII, numpy and wide
# integers, and floats.
seed_labels = st.one_of(
    st.text(alphabet=st.sampled_from(["'", '"', "\\", "\n", "é", "漢", "🙂", "a"]), max_size=6),
    st.text(max_size=6),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**32 - 1).map(np.uint32),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
)
wide_base_seeds = st.one_of(
    base_seeds, st.integers(-(2**80), -1), st.integers(2**63, 2**80)
)


@PROPERTY_SETTINGS
@given(base_seed=wide_base_seeds, labels=st.lists(seed_labels, max_size=6))
@example(base_seed=-1, labels=["it's", 'say "hi"', "a\\b", "é漢", np.int64(7)])
@example(base_seed=2**64 + 1, labels=[np.uint32(2**32 - 1), ""])
def test_derive_seed_hashes_the_repr_of_its_label_strings(base_seed, labels):
    payload = repr((int(base_seed), *(str(label) for label in labels))).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    expected = int.from_bytes(digest, "little") & ((1 << 63) - 1)
    assert derive_seed(base_seed, *labels) == expected


def test_derive_seed_anchors():
    # Streams every stored result was drawn from: the spelling may change,
    # these values may not.
    assert derive_seed(20111114, "net-code", 3) == 3189694170051748384
    assert derive_seed(-5, "it's", "a\\b", "é漢") == 5988341202955404040
    assert derive_seed(2**64 + 1, np.int64(7), "x") == 7337132169846743290
