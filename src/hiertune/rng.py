"""Deterministic 64-bit random number generation (SplitMix64).

All stochastic choices in this package (keep-flag draws, batch shuffles,
cut deduplication) go through Rng64 so that a seed fully determines every
output file, byte for byte, independent of platform.
"""
from __future__ import annotations

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: xor-shift-multiply scramble of a 64-bit word."""
    z &= MASK64
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

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def next_unit(self) -> float:
        """Uniform float in [0, 1).

        Uses the top 53 bits of the raw word; scaling the full 64 bits by
        2**-64 can round up to exactly 1.0, which would break thresholding
        at rate 1.
        """
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def next_below(self, n: int) -> int:
        """Integer in [0, n) by modulo reduction (bias negligible for small n)."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def check_seed(seed: int) -> int:
    """``seed`` itself if it lies in [0, 2**64), the range of every seed; else ValueError."""
    if not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def derive_seed(base: int, stream: int) -> int:
    """Seed for an independent stream: base XOR stream index."""
    return (base ^ stream) & MASK64
