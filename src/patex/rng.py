"""Deterministic 64-bit generator (splitmix finalizer over a Weyl sequence).

The stream is fully specified by the algorithm, so identical seeds reproduce
identical draws on every platform: the state advances by the odd constant
0x9E3779B97F4A7C15 and each output is the xor-shift-multiply finalizer with
shifts 30/27/31 and multipliers 0xBF58476D1CE4B9FB, 0x94D049BB133111EB.
"""

import math

MASK64 = (1 << 64) - 1

# Default seed for reproducible CLI runs.
DEFAULT_SEED = 0x5EED


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int = DEFAULT_SEED):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B9FB) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n); rejection sampling avoids modulo bias."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def random(self) -> float:
        """Uniform float in [0, 1) built from 53 random bits."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def bernoulli(self, p: float) -> bool:
        return self.random() < p

    def bernoulli_mask(self, count: int, p: float) -> int:
        """Bit j set when the j-th of `count` bernoulli(p) draws succeeds:
        the same draws, in the same order and leaving the same state, as
        `count` calls of `bernoulli`, in one loop with the step inlined.

        bernoulli tests (x >> 11) / 2**53 < p, which for an integer x is
        x < ceil(p * 2**53) << 11 (scaling by 2**53 is exact); NaN and
        negative p never succeed, p >= 1 always does."""
        scaled = p * 9007199254740992.0
        if scaled >= 9007199254740992.0:
            limit = 1 << 64
        elif scaled > 0:
            limit = math.ceil(scaled) << 11
        else:
            limit = 0
        state = self.state
        mask = 0
        bit = 1
        for _ in range(count):
            state = (state + 0x9E3779B97F4A7C15) & MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4B9FB) & MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
            if z ^ (z >> 31) < limit:
                mask |= bit
            bit <<= 1
        self.state = state
        return mask
