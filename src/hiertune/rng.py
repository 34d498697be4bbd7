"""Deterministic 64-bit random number generation (SplitMix64).

All stochastic choices in this package (keep-flag draws, batch shuffles,
cut deduplication) go through Rng64 so that a seed fully determines every
output file, byte for byte, independent of platform. Words are drawn in
batches, one array pass for what k single steps would give.
"""
from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z):
    """SplitMix64 finalizer of a 64-bit word, or of each word of a uint64 array."""
    z = z & MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & MASK64
    return z ^ (z >> 31)


class Rng64:
    """A SplitMix64 stream.

    Single-owner: never share one instance across concurrent consumers.
    For independent streams derive a child seed with :func:`derive_seed`.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = check_seed(seed)

    def words(self, k: int) -> np.ndarray:
        """The next ``k`` words as a uint64 array; the state moves as by ``k`` steps."""
        if k < 0:
            raise ValueError(f"count must be non-negative, got {k}")
        states = np.arange(1, k + 1, dtype=np.uint64) * GOLDEN + self.state
        self.state = (self.state + k * GOLDEN) & MASK64
        return mix64(states)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle; position i swaps with a word mod i + 1."""
        bounds = np.arange(len(items), 1, -1, dtype=np.uint64)
        picks = (self.words(len(bounds)) % bounds).tolist()
        for i, j in zip(range(len(items) - 1, 0, -1), picks):
            items[i], items[j] = items[j], items[i]


def check_seed(seed: int) -> int:
    """``seed`` itself if it lies in [0, 2**64), the range of every seed; else ValueError."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def derive_seed(base: int, stream: int) -> int:
    """Seed for an independent stream: base XOR stream index."""
    return (base ^ stream) & MASK64
