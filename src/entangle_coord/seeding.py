"""Deterministic seed derivation for independent Monte Carlo streams.

Every batch driver in this package derives one child seed per trial from a
single master seed, so trials are reproducible individually and reorderable
without sharing generator state.  The mixing function is the SplitMix64
output stage applied to ``master + (index + 1) * GAMMA`` (all arithmetic
mod 2**64):

    z = (master + (index + 1) * 0x9E3779B97F4A7C15) mod 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    child = z ^ (z >> 31)

The constants are the standard SplitMix64 ones; an independent
implementation following the four lines above reproduces the streams
exactly.  Reference vectors live in ``tests/data/seed_vectors.json``.

Master seeds and stream seeds are 64-bit: anything outside [0, 2**64) is
rejected rather than reduced, so no two distinct seeds alias one stream.

Draw j of a stream is addressed by (seed, j) alone, so the numpy kernels
here (raw draws, uniforms, rejection-sampled integers and the Fisher-Yates
shuffle) compute whole blocks or lanes of draws at once and equal what
:class:`SplitMix64` reads one at a time.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_UNIT = 1.1102230246251565e-16  # 2**-53: a draw's top 53 bits times this is uniform in [0, 1)
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def derive_seed(master: int, index: int) -> int:
    """Return the 64-bit child seed for trial `index` under `master`."""
    if master < 0 or index < 0:
        raise ValueError("master seed and trial index must be non-negative")
    if master > _MASK64:
        raise ValueError("master seed must be below 2**64")
    z = (master + (index + 1) * GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def stream_draws(seeds, counters) -> np.ndarray:
    """Output number `counters` (from 0) of SplitMix64(`seeds`), elementwise.

    Output j of the stream seeded with s is mix(s + (j + 1) * GAMMA), so any
    draw is addressed by two integers and whole arrays of streams advance at
    once; numpy's uint64 arithmetic wraps mod 2**64 like the masks above.
    With a master seed and trial indices this is :func:`derive_seed`.  Pass
    arrays (or one array and a scalar): seeds must already lie in [0, 2**64).
    """
    z = np.asarray(seeds, np.uint64) + (np.asarray(counters, np.uint64) + 1) * GAMMA
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def uniforms(seeds, counters) -> np.ndarray:
    """:meth:`SplitMix64.random` of draw `counters` of stream `seeds`, elementwise."""
    return (stream_draws(seeds, counters) >> 11).astype(np.float64) * _UNIT


def randrange(seeds: np.ndarray, counters: np.ndarray, n: int) -> np.ndarray:
    """:meth:`SplitMix64.randrange` of `n` on every lane, from its counter on.

    Lane i reads stream `seeds[i]` from position `counters[i]`; `counters` is
    advanced in place past the draws each lane used, rejected ones included.
    """
    shift = 64 - (n - 1).bit_length()
    values = np.empty(len(seeds), np.intp)
    pending = np.arange(len(seeds))
    while pending.size:
        drawn = stream_draws(seeds[pending], counters[pending]) >> shift
        counters[pending] += 1
        ok = drawn < n
        values[pending[ok]] = drawn[ok]
        pending = pending[~ok]
    return values


def shuffle(seed: int, n: int) -> tuple[list[int], int]:
    """The Fisher-Yates permutation of range(n) drawn by SplitMix64(`seed`).

    Returns the permutation and the number of draws it used.  Step i (from
    n - 1 down to 1) swaps position i with j = randrange(i + 1): the top
    i.bit_length() bits of the next draw, rejected until j <= i.  The draws
    are computed in blocks from their stream positions; only the rejection
    scan runs one draw at a time.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must lie in [0, 2**64)")
    perm = list(range(n))
    if n < 2:
        return perm, 0
    i = n - 1
    shift = 64 - i.bit_length()
    low = 1 << (i.bit_length() - 1)  # the smallest i of this width
    used = 0
    while i:
        # the i steps left use about 1.39 i draws, so a block rarely runs out
        block = np.arange(used, used + 2 * i, dtype=np.uint64)
        for draw in stream_draws(seed, block).tolist():
            used += 1
            j = draw >> shift
            if j <= i:
                perm[i], perm[j] = perm[j], perm[i]
                i -= 1
                if i < low:
                    if not i:
                        break
                    low >>= 1
                    shift += 1
    return perm, used


class SplitMix64:
    """Sequential SplitMix64 stream: state advances by GAMMA, output is mixed.

    This is the generator behind each protocol run.  It is fully specified by
    the same four lines as :func:`derive_seed` (with the state playing the
    role of the pre-mix sum), so runs can be reproduced outside this package
    from the seed alone.  Uniform doubles use the top 53 bits of each output.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        if seed > _MASK64:
            raise ValueError("seed must be below 2**64")
        self._state = seed

    def next_uint64(self) -> int:
        self._state = s = (self._state + GAMMA) & _MASK64
        z = ((s ^ (s >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_uint64() >> 11) * _UNIT

    def getrandbits(self, k: int) -> int:
        """Uniform integer in [0, 2**k) for 1 <= k <= 64."""
        if not 1 <= k <= 64:
            raise ValueError("k must lie in 1..64")
        return self.next_uint64() >> (64 - k)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top bits."""
        if n <= 0:
            raise ValueError("n must be positive")
        k = (n - 1).bit_length()
        if k == 0:
            return 0
        while True:
            v = self.next_uint64() >> (64 - k)
            if v < n:
                return v

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: :func:`shuffle` from the current state."""
        perm, used = shuffle(self._state, len(items))
        items[:] = [items[j] for j in perm]
        self._state = (self._state + used * GAMMA) & _MASK64
