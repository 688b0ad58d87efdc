"""Deterministic 64-bit generator used for every seeded construction.

SplitMix64 with the standard constants, specified bit-exactly so golden
files are reproducible by any implementation:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output: z xor (z >> 31)

Bounded draws use rejection sampling on the top multiple of the range, so
they are exactly uniform and consume a deterministic stream.  A range
wider than 2^64 has no multiple below 2^64 and is refused.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform draw from [0, n), for 0 < n <= 2^64."""
        if n <= 0:
            raise ValueError("need positive bound")
        if n > 1 << 64:  # no multiple of n below 2^64: every draw would be rejected
            raise ValueError(f"bound {n} exceeds 2^64")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform draw from the inclusive range [lo, hi]."""
        if lo > hi:
            raise ValueError("empty range")
        return lo + self.next_below(hi - lo + 1)
