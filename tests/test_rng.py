"""Deterministic 64-bit generator: frozen streams and distribution sanity."""
from __future__ import annotations

import numpy as np
import pytest

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


def test_seed0_matches_published_vectors():
    rng = Rng64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_REFERENCE


def test_seed42_stream_frozen():
    rng = Rng64(42)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED42_FROZEN


def test_outputs_stay_in_64_bits():
    rng = Rng64(0xFFFFFFFFFFFFFFFF)
    for _ in range(200):
        assert 0 <= rng.next_u64() <= MASK64


def test_next_unit_frozen_and_in_range():
    rng = Rng64(0)
    drawn = tuple(rng.next_unit() for _ in range(4))
    assert drawn == SEED0_UNITS_FROZEN
    big = Rng64(7)
    values = [big.next_unit() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
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


def test_derive_seed_is_stream_xor():
    assert derive_seed(0, 1) == 1
    assert derive_seed(7, 3) == 4
    for base in (0, 1, 9999, 2**63):
        for stream in (0, 1, 2, 77):
            assert derive_seed(base, stream) == (base ^ stream) & MASK64


def test_derive_seed_separates_streams():
    a = Rng64(derive_seed(123, 1))
    b = Rng64(derive_seed(123, 2))
    assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]


def test_shuffle_frozen_permutation():
    items = list(range(8))
    Rng64(5).shuffle(items)
    assert items == [0, 7, 3, 1, 4, 6, 5, 2]
    assert sorted(items) == list(range(8))


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
    rng = Rng64(3)
    assert [rng.next_below(7) for _ in range(6)] == [2, 3, 6, 0, 3, 1]
    for n in (1, 2, 5, 64, 1000):
        sampler = Rng64(n)
        draws = [sampler.next_below(n) for _ in range(300)]
        assert all(0 <= d < n for d in draws)
    ones = Rng64(9)
    assert all(ones.next_below(1) == 0 for _ in range(50))


def test_next_below_refuses_an_empty_range():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            Rng64(0).next_below(n)


def test_next_below_covers_small_ranges():
    rng = Rng64(17)
    seen = {rng.next_below(4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}
