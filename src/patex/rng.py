"""Deterministic 64-bit generator (splitmix finalizer over a Weyl sequence).

The stream is fully specified by the algorithm, so identical seeds reproduce
identical draws on every platform: the state advances by the odd constant
0x9E3779B97F4A7C15 and each output is the xor-shift-multiply finalizer with
shifts 30/27/31 and multipliers 0xBF58476D1CE4B9FB, 0x94D049BB133111EB.

Each output is a function of the seed and its position in the stream
alone, so `bernoulli_mask` computes a whole row of draws at once. Draw k
lives in bits [128k, 128k + 64) of one Python int, its lane; the lane's
upper 64 bits stay zero between steps. Every step masks back to the low halves
before it multiplies, so each lane's product is below 2^128 and no carry
reaches the next lane. The stream, the order of the draws and the final
state are those of one `bernoulli` call per draw.
"""

import functools
import math

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

# Default seed for reproducible CLI runs.
DEFAULT_SEED = 0x5EED

# "0"/"1" for the bytes 0 and 1, so a row of lane bits reads as a binary string.
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


@functools.lru_cache(maxsize=16)
def _lanes(count: int) -> tuple[int, int, int]:
    """For `count` lanes: a 1 at the bottom of each lane, the low 64 bits
    of each lane set, and gamma * (k + 1) in lane k, which stays below
    2^128 with any state added. Memoized: a `queries` pass takes 26% longer
    without."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
    # lane k of ones * ones holds k + 1 for k < count
    ramp = (ones * ones) & ((1 << 128 * count) - 1)
    return ones, ones * MASK64, GAMMA * ramp


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int = DEFAULT_SEED):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GAMMA) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B9FB) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) for 0 < n <= 2^64; rejection sampling
        avoids modulo bias. Past 2^64 no draw could be accepted."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        if n > 1 << 64:
            raise ValueError("below() needs a bound of at most 2^64")
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
        `count` calls of `bernoulli`. A count <= 0 draws nothing.

        bernoulli tests (x >> 11) / 2**53 < p, which for an integer x is
        x < ceil(p * 2**53) << 11 (scaling by 2**53 is exact); NaN and
        negative p never succeed, p >= 1 always does.

        The draws are computed in lanes (see the module docstring): the
        Weyl states are state + gamma * (k + 1) reduced mod 2^64 in lane k,
        and the finalizer's xor-shifts and multiplies act on all lanes at
        once. With limit <= 2^64 and each output z_k < 2^64,
        2^64 + limit - 1 - z_k lies in [0, 2^65), so the subtraction borrows
        from no other lane, and its bit 64 is set exactly when z_k < limit."""
        if count <= 0:
            return 0
        scaled = p * 9007199254740992.0
        if scaled >= 9007199254740992.0:
            limit = 1 << 64
        elif scaled > 0:
            limit = math.ceil(scaled) << 11
        else:
            limit = 0
        ones, low, steps = _lanes(count)
        state = self.state
        self.state = (state + count * GAMMA) & MASK64
        z = (state * ones + steps) & low
        z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4B9FB & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        z = (z ^ (z >> 31)) & low
        hits = (((1 << 64) + limit - 1) * ones - z) >> 64 & ones
        # one byte per lane, 0 or 1, lowest draw first; read as binary
        # with the highest draw first
        bits = hits.to_bytes(16 * count, "little")[::16]
        return int(bits.translate(_BIT_CHARS)[::-1], 2)
