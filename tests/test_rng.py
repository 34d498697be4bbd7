"""Deterministic 64-bit generator: frozen streams, the batch draws against
the scalar stream in ``oracle``, and distribution sanity."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracle
from hiertune import Rng64, derive_seed
from hiertune.rng import GOLDEN, MASK64, mix64

# Published reference outputs of the generator for seed 0 (widely used
# cross-implementation test vector for this finalizer).
SEED0_REFERENCE = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# Frozen from this implementation; guards stream stability across releases.
SEED42_FROZEN = (13679457532755275413, 2949826092126892291, 5139283748462763858)
SEED0_UNITS_FROZEN = (
    0.8833108082136426,
    0.43152799704850997,
    0.026433771592597743,
    0.9708819781538285,
)

# Seeds whose first states wrap past 2**64.
WRAPPING_SEEDS = (MASK64, MASK64 - GOLDEN + 1, 2**63)


def units(words: np.ndarray) -> np.ndarray:
    """The uniform draws in [0, 1) the treecut sampler takes from words."""
    return (words >> 11) * 2.0**-53


def test_seed0_matches_published_vectors():
    assert tuple(Rng64(0).words(3).tolist()) == SEED0_REFERENCE


def test_seed42_stream_frozen():
    assert tuple(Rng64(42).words(3).tolist()) == SEED42_FROZEN


def test_outputs_stay_in_64_bits():
    words = Rng64(MASK64).words(200)
    assert words.dtype == np.uint64 and words.shape == (200,)
    assert all(0 <= w <= MASK64 for w in words.tolist())


def test_next_unit_frozen_and_in_range():
    assert tuple(units(Rng64(0).words(4)).tolist()) == SEED0_UNITS_FROZEN
    values = units(Rng64(7).words(2000))
    assert ((0.0 <= values) & (values < 1.0)).all()
    assert abs(float(np.mean(values)) - 0.5) < 0.02


def test_seed_outside_64_bits_is_refused():
    for bad in (-1, -5, 2**64, 2**70):
        with pytest.raises(ValueError, match="seed must be in"):
            Rng64(bad)
    assert Rng64(MASK64).state == MASK64
    assert derive_seed(-1, 1) == MASK64 - 1  # derived seeds stay masked


def test_mix64_fixed_point_and_mask():
    assert mix64(0) == 0
    assert mix64(1) != mix64(2)
    assert 0 <= mix64(GOLDEN) <= MASK64
    assert mix64(5) == mix64(5)
    # One finalizer serves words and arrays of words alike.
    ints = [0, 1, 5, GOLDEN, 2**63, MASK64]
    mixed = mix64(np.array(ints, dtype=np.uint64))
    assert mixed.dtype == np.uint64 and mixed.tolist() == [mix64(z) for z in ints]


def test_derive_seed_is_stream_xor():
    assert derive_seed(0, 1) == 1
    assert derive_seed(7, 3) == 4
    for base in (0, 1, 9999, 2**63):
        for stream in (0, 1, 2, 77):
            assert derive_seed(base, stream) == (base ^ stream) & MASK64


def test_derive_seed_separates_streams():
    a = Rng64(derive_seed(123, 1))
    b = Rng64(derive_seed(123, 2))
    assert a.words(4).tolist() != b.words(4).tolist()


@given(seed=st.integers(0, MASK64), k=st.integers(0, 300))
@example(seed=0, k=0)
@example(seed=42, k=1)
@example(seed=MASK64, k=1000)
def test_words_equal_the_scalar_stream(seed, k):
    # Values and the state left behind match k scalar steps, past the wrap
    # at 2**64 too, with no overflow warning (which the suite makes an error).
    batch, scalar = Rng64(seed), Rng64(seed)
    assert batch.words(k).tolist() == [oracle.next_u64(scalar) for _ in range(k)]
    assert batch.state == scalar.state


@pytest.mark.parametrize("seed", (0, 42) + WRAPPING_SEEDS)
def test_batches_continue_one_stream(seed):
    # Batches of any size, and scalar steps between them, read one stream.
    rng, scalar = Rng64(seed), Rng64(seed)
    drawn = []
    for k in (0, 1, 3, 0, 64):
        drawn += rng.words(k).tolist()
        drawn.append(oracle.next_u64(rng))
    expected = [oracle.next_u64(scalar) for _ in range(len(drawn))]
    assert drawn == expected and rng.state == scalar.state


def test_shuffle_frozen_permutation():
    items = list(range(8))
    Rng64(5).shuffle(items)
    assert items == [0, 7, 3, 1, 4, 6, 5, 2]
    assert sorted(items) == list(range(8))


@given(seed=st.integers(0, MASK64), n=st.integers(0, 200))
@example(seed=0, n=0)
@example(seed=42, n=1)
@example(seed=MASK64, n=2)
@example(seed=7, n=5000)
def test_shuffle_equals_the_scalar_shuffle(seed, n):
    batch, scalar = Rng64(seed), Rng64(seed)
    got, expected = list(range(n)), list(range(n))
    batch.shuffle(got)
    oracle.shuffle(scalar, expected)
    assert got == expected and batch.state == scalar.state


def test_shuffle_deterministic_and_seed_sensitive():
    first, second = list(range(30)), list(range(30))
    Rng64(11).shuffle(first)
    Rng64(11).shuffle(second)
    assert first == second
    third = list(range(30))
    Rng64(12).shuffle(third)
    assert third != first
    assert sorted(third) == list(range(30))


def test_next_below_frozen_and_bounded():
    # The shuffle reduces each word modulo its range.
    assert (Rng64(3).words(6) % 7).tolist() == [2, 3, 6, 0, 3, 1]
    for n in (1, 2, 5, 64, 1000):
        draws = Rng64(n).words(300) % n
        assert ((0 <= draws) & (draws < n)).all()
    assert not (Rng64(9).words(50) % 1).any()


def test_words_refuses_a_negative_count():
    rng = Rng64(0)
    with pytest.raises(ValueError, match="count must be non-negative"):
        rng.words(-1)
    assert rng.state == 0


def test_next_below_covers_small_ranges():
    assert set((Rng64(17).words(200) % 4).tolist()) == {0, 1, 2, 3}
