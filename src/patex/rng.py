"""Deterministic 64-bit generator (splitmix finalizer over a Weyl sequence).

The stream is fully specified by the algorithm, so identical seeds reproduce
identical draws on every platform: the state advances by the odd constant
0x9E3779B97F4A7C15 and each output is the xor-shift-multiply finalizer with
shifts 30/27/31 and multipliers 0xBF58476D1CE4B9FB, 0x94D049BB133111EB.
"""

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
