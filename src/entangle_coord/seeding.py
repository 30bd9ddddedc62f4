"""Deterministic seed derivation for independent Monte Carlo streams.

Every batch driver in this package derives one child seed per trial from a
single master seed, in `protocol.trial_chunks` (with :func:`stream_draws`),
so trials are reproducible individually and reorderable without sharing
generator state.  The mixing function is the SplitMix64 output stage applied
to ``master + (index + 1) * GAMMA`` (all arithmetic mod 2**64):

    z = (master + (index + 1) * 0x9E3779B97F4A7C15) mod 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    child = z ^ (z >> 31)

The constants are the standard SplitMix64 ones; an independent
implementation following the four lines above reproduces the streams
exactly.  Reference vectors live in ``tests/data/seed_vectors.json``.

Master seeds, stream seeds and trial indices are integers in [0, 2**64):
:func:`check_seed` is the one check every entry point runs, so anything
outside that range is rejected rather than reduced, and a float is a
TypeError rather than truncated; no two distinct inputs alias one stream.

Draw j of a stream is addressed by (seed, j) alone, so the numpy kernels
here (raw draws, uniforms, the draw counts of rejection-sampled integers
and the Fisher-Yates shuffle) compute whole blocks or lanes of draws at
once and equal what :class:`SplitMix64` reads one at a time.  The shuffle
computes at most _SHUFFLE_WINDOW (2048) positions at a time, so its draws
take a fixed amount of memory however long the permutation is.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_UNIT = 1.1102230246251565e-16  # 2**-53: a draw's top 53 bits times this is uniform in [0, 1)
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SHUFFLE_WINDOW = 2048  # stream positions shuffle computes at once


def check_seed(value, name: str) -> int:
    """`value` as a Python int, if it is an integer in [0, 2**64); else raise.

    operator.index refuses a float (TypeError) where int() or numpy would
    truncate it; `name` starts the ValueError message of an out-of-range value.
    """
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative")
    if value > _MASK64:
        raise ValueError(f"{name} must be below 2**64, got {value}")
    return value


def derive_seed(master: int, index: int) -> int:
    """Return the 64-bit child seed for trial `index` under `master`."""
    master = check_seed(master, "master seed")
    index = check_seed(index, "trial index")
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
    It computes in place on its result plus one scratch array, and never
    writes into an argument.
    """
    seeds = np.asarray(seeds, np.uint64)
    counters = np.asarray(counters)
    z = np.empty(np.broadcast_shapes(seeds.shape, counters.shape), np.uint64)
    np.add(counters, 1, out=z, casting="unsafe")  # an int64 counter wraps as asarray would
    z *= GAMMA
    z += seeds
    scratch = np.empty_like(z)
    np.right_shift(z, 30, out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, 27, out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, 31, out=scratch)
    z ^= scratch
    return z


def uniforms(seeds, counters) -> np.ndarray:
    """:meth:`SplitMix64.random` of draw `counters` of stream `seeds`, elementwise.

    It holds at most two arrays of the result's size at once.
    """
    z = stream_draws(seeds, counters)
    z >>= 11  # below 2**53, so the conversion to float64 is exact
    draws = z.astype(np.float64)  # a ufunc would cast through one more buffer
    draws *= _UNIT
    return draws


def skip_randrange(seeds: np.ndarray, counters: np.ndarray, n: int) -> None:
    """Advance `counters` past the draws :meth:`SplitMix64.randrange` of `n` >= 2 reads.

    Lane i reads stream `seeds[i]` from position `counters[i]`, rejected
    draws included; only how many draws each lane used is kept.
    """
    shift = 64 - (n - 1).bit_length()
    pending = np.arange(len(seeds))
    while pending.size:
        drawn = stream_draws(seeds[pending], counters[pending])
        drawn >>= shift
        counters[pending] += 1
        pending = pending[drawn >= n]


def shuffle(seed: int, n: int) -> list[int]:
    """The Fisher-Yates permutation of range(n) drawn by SplitMix64(`seed`).

    Step i (from n - 1 down to 1) swaps position i with j = randrange(i + 1):
    the top i.bit_length() bits of the next draw, rejected until j <= i.  The
    draws are computed from their stream positions in blocks of at most
    _SHUFFLE_WINDOW, read in stream order, so besides the permutation it
    holds one block of draws at a time whatever n is; only the rejection
    scan runs one draw at a time.
    """
    seed = check_seed(seed, "seed")
    perm = list(range(n))
    if n < 2:
        return perm
    i = n - 1
    shift = 64 - i.bit_length()
    low = 1 << (i.bit_length() - 1)  # the smallest i of this width
    used = 0
    while i:
        # the i steps left use about 1.39 i draws, so 2 i rarely run out; the
        # window bounds the draws held at once
        block = np.arange(used, used + min(2 * i, _SHUFFLE_WINDOW), dtype=np.uint64)
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
    return perm


class SplitMix64:
    """Sequential SplitMix64 stream: state advances by GAMMA, output is mixed.

    Each protocol run reads the stream of its trial seed: the engines compute
    those draws from their stream positions (:func:`stream_draws`), and this
    class reads the same stream one draw at a time.  It is fully specified by
    the same four lines as :func:`derive_seed` (with the state playing the
    role of the pre-mix sum), so runs can be reproduced outside this package
    from the seed alone.  Uniform doubles use the top 53 bits of each output.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = check_seed(seed, "seed")

    def next_uint64(self) -> int:
        self._state = s = (self._state + GAMMA) & _MASK64
        z = ((s ^ (s >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53-bit resolution."""
        return (self.next_uint64() >> 11) * _UNIT

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
