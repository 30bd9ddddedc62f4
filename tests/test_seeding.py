import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_coord.seeding import (
    GAMMA,
    SplitMix64,
    _SHUFFLE_WINDOW,
    derive_seed,
    shuffle,
    skip_randrange,
    stream_draws,
    uniforms,
)

VECTORS = json.loads((Path(__file__).parent / "data" / "seed_vectors.json").read_text())


@pytest.mark.parametrize("master,index,child", VECTORS["vectors"])
def test_reference_vectors(master, index, child):
    assert derive_seed(master, index) == child


def test_output_is_64_bit():
    for master in (0, 1, 2**64 - 1):
        for index in (0, 5, 10**9):
            child = derive_seed(master, index)
            assert 0 <= child < 2**64


def test_distinct_trials_get_distinct_seeds():
    seen = {derive_seed(900, i) for i in range(10_000)}
    assert len(seen) == 10_000


def test_rejects_negative_inputs():
    with pytest.raises(ValueError):
        derive_seed(-1, 0)
    with pytest.raises(ValueError):
        derive_seed(0, -1)


def test_rejects_seeds_beyond_64_bits():
    with pytest.raises(ValueError):
        derive_seed(2**64, 0)
    with pytest.raises(ValueError):
        derive_seed(5, 2**64)  # not reduced to trial index 0
    with pytest.raises(ValueError):
        SplitMix64(2**64)
    with pytest.raises(TypeError):
        SplitMix64(2.5)
    SplitMix64(2**64 - 1).next_uint64()  # the largest seed is still a seed


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_stream_draws_address_the_sequential_stream(seed):
    rng = SplitMix64(seed)
    sequential = [rng.next_uint64() for _ in range(40)]
    assert stream_draws(seed, np.arange(40)).tolist() == sequential
    # a master stream's outputs are the derived trial seeds
    trials = np.arange(1000, dtype=np.uint64)
    assert stream_draws(seed, trials).tolist() == [derive_seed(seed, t) for t in range(1000)]


def _at(seed, position):
    # SplitMix64(seed) about to read draw `position`: its state is
    # seed + position * GAMMA, so the next calls read that draw
    return SplitMix64((seed + position * GAMMA) % 2**64)


@st.composite
def _kernel_arguments(draw):
    # (seeds, counters) in every form a caller passes: Python ints, int64
    # and uint64 arrays, and a (lanes, 1) column against a (lanes, n) block
    lanes = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=lanes, max_size=lanes))
    positions = draw(st.lists(st.integers(0, 2**63 - 1) | st.integers(0, 40),
                              min_size=lanes * n, max_size=lanes * n))
    block = np.array(positions, np.int64).reshape(lanes, n)
    column = np.array(seeds, np.uint64)[:, None]
    return draw(st.sampled_from([
        (seeds[0], positions[0]),
        (seeds[0], block[0]),
        (seeds[0], block[0].astype(np.uint64) + np.uint64(2**63)),  # the top half too
        (np.array(seeds, np.uint64), block[:, 0].astype(np.uint64)),
        (column, block),
        (column, block.astype(np.uint64)),
    ]))


@settings(max_examples=150, deadline=None)
@given(args=_kernel_arguments())
def test_stream_kernels_read_the_sequential_stream_draw_by_draw(args):
    seeds, counters = args
    before = [np.array(arg, copy=True) for arg in args]
    pairs = np.broadcast_arrays(np.asarray(seeds, object), np.asarray(counters, object))
    pairs = list(zip(pairs[0].ravel().tolist(), pairs[1].ravel().tolist()))
    draws = stream_draws(seeds, counters)
    assert draws.dtype == np.uint64
    assert draws.ravel().tolist() == [_at(s, j).next_uint64() for s, j in pairs]
    floats = uniforms(seeds, counters)
    assert floats.shape == draws.shape and floats.dtype == np.float64
    assert floats.ravel().tolist() == [_at(s, j).random() for s, j in pairs]
    # no argument is written into
    for arg, copy in zip(args, before):
        assert np.array_equal(np.asarray(arg), copy) and np.asarray(arg).dtype == copy.dtype


class _CountingStream(SplitMix64):
    """SplitMix64 that counts the draws it reads."""

    __slots__ = ("draws",)

    def next_uint64(self):
        self.draws += 1
        return super().next_uint64()


# n = 2**j accepts every draw; n = 2**j + 1 rejects nearly half of them
_RANGE_SIZES = [2**j for j in range(1, 21)] + [2**j + 1 for j in range(1, 20)]


@settings(max_examples=150, deadline=None)
@given(
    lanes=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 40) | st.integers(0, 2**63)),
                   min_size=1, max_size=6),
    n=st.sampled_from(_RANGE_SIZES) | st.integers(2, 2**20),
)
def test_skip_randrange_advances_each_lane_past_its_draws(lanes, n):
    seeds = np.array([seed for seed, _ in lanes], np.uint64)
    counters = np.array([start for _, start in lanes], np.uint64)
    skip_randrange(seeds, counters, n)
    used = []
    for seed, start in lanes:
        rng = _CountingStream((seed + start * GAMMA) % 2**64)
        rng.draws = 0
        rng.randrange(n)
        used.append(rng.draws)
    assert counters.tolist() == [start + draws for (_, start), draws in zip(lanes, used)]
    assert seeds.tolist() == [seed for seed, _ in lanes]


def sequential_shuffle(seed, n):
    """Fisher-Yates over SplitMix64, one draw at a time: (perm, draws)."""
    rng = SplitMix64(seed)
    perm = list(range(n))
    draws = 0
    for i in range(n - 1, 0, -1):
        while True:
            draws += 1
            j = rng.next_uint64() >> (64 - i.bit_length())
            if j <= i:
                break
        perm[i], perm[j] = perm[j], perm[i]
    return perm, draws


# shuffle computes its draws one window of stream positions at a time
_W = _SHUFFLE_WINDOW
_SHUFFLE_SIZES = [0, 1, 2, 3, *(2**k for k in range(2, 12)), *(2**k + 1 for k in range(2, 12)),
                  4096, _W - 1, _W, _W + 1, 2 * _W + 1, 3 * _W + 5]


@pytest.mark.parametrize("seed", [0, 1, 7919, 2**63, 2**64 - 1])
def test_shuffle_equals_a_sequential_fisher_yates(seed):
    for n in _SHUFFLE_SIZES:
        assert shuffle(seed, n) == sequential_shuffle(seed, n)[0]


def test_shuffle_reads_past_its_first_block_of_draws():
    # shuffle fetches min(2 (n - 1), _SHUFFLE_WINDOW) draws at first; these
    # seeds need more than the 4 it fetches for n = 3
    seeds = [s for s in range(300) if sequential_shuffle(s, 3)[1] > 4]
    assert seeds
    for seed in seeds:
        assert shuffle(seed, 3) == sequential_shuffle(seed, 3)[0]


def test_shuffle_holds_one_window_of_draws_besides_the_permutation():
    # the permutation list and its ints take about 40 bytes per element, and
    # one window of draws fits in the 256 KiB beside them
    n = 65536
    tracemalloc.start()
    try:
        shuffle(3, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * n + 256 * 1024


def test_shuffle_rejects_seeds_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            shuffle(seed, 4)
    with pytest.raises(TypeError):
        shuffle(1.5, 8)  # not truncated to seed 1
