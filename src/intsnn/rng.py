"""Deterministic pseudorandom streams for network construction.

Seed derivation uses SplitMix64; draws come from xoshiro256**. Both
follow the published reference algorithms bit for bit, so every stream
is reproducible across machines and independent of any library RNG.
raw_block and uniform_ints serve the program; next_u64, uniform_int,
getstate and setstate are the references the tests hold them to.
"""

from __future__ import annotations

import struct

MASK64 = (1 << 64) - 1
TWO64 = 1 << 64

# Stream purpose tags folded into derived seeds, recorded in run manifests.
STREAM_TOPOLOGY = 1
STREAM_THRESHOLDS = 2
STREAM_INITIAL = 3

_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state once; return (next_state, output)."""
    state = (state + _GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def derive_seed(master: int, *path: int) -> int:
    """Fold integer path components into a child seed.

    Each component is XORed into the running value, which is then fed
    through one SplitMix64 output step. Distinct paths give unrelated
    child seeds; an empty path returns the master itself.
    """
    value = master & MASK64
    for part in path:
        _, value = splitmix64(value ^ (part & MASK64))
    return value


def float_key(x: float) -> int:
    """64-bit path component for a float: its IEEE 754 bit pattern."""
    return struct.unpack("<Q", struct.pack("<d", float(x)))[0]


def bernoulli_threshold(p: float) -> int:
    """Acceptance threshold t such that (u < t) for a raw 64-bit draw u
    is an event of probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    return int(p * 2.0**64)


class Xoshiro256StarStar:
    """xoshiro256** 1.0 with its state filled from the seed via SplitMix64."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        state = seed & MASK64
        state, self._s0 = splitmix64(state)
        state, self._s1 = splitmix64(state)
        state, self._s2 = splitmix64(state)
        state, self._s3 = splitmix64(state)

    def getstate(self) -> tuple[int, int, int, int]:
        return (self._s0, self._s1, self._s2, self._s3)

    def setstate(self, state: tuple[int, int, int, int]) -> None:
        self._s0, self._s1, self._s2, self._s3 = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        r = (s1 * 5) & MASK64
        result = ((((r << 7) | (r >> 57)) & MASK64) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def raw_block(self, count: int) -> list[int]:
        """`count` raw 64-bit draws; equivalent to repeated next_u64 calls.

        The generator step is inlined because topology generation draws
        one value per candidate edge and dominates sweep setup time.
        """
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        out = []
        append = out.append
        for _ in range(count):
            r = (s1 * 5) & MASK64
            append(((((r << 7) | (r >> 57)) & MASK64) * 9) & MASK64)
            t = (s1 << 17) & MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return out

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform integer on [lo, hi] inclusive, rejection sampled so
        every value is exactly equally likely."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span > TWO64:
            raise ValueError("range wider than 64 bits")
        limit = TWO64 - (TWO64 % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def uniform_ints(self, lo: int, hi: int, count: int) -> list[int]:
        """Values and end state of `count` sequential uniform_int draws.

        Each refill draws a raw block of the values still missing and
        keeps lo + u % span for each u below limit, in order: the raw
        outputs sequential draws accept, and none past the last one."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if count < 0:
            raise ValueError(f"negative count {count}")
        span = hi - lo + 1
        if span > TWO64:
            raise ValueError("range wider than 64 bits")
        limit = TWO64 - (TWO64 % span)
        out: list[int] = []
        while len(out) < count:
            raw = self.raw_block(count - len(out))
            out.extend([lo + u % span for u in raw if u < limit])
        return out
