import json
from pathlib import Path

import numpy as np
import pytest

from entangle_coord.seeding import SplitMix64, derive_seed, shuffle, stream_draws

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
        SplitMix64(2**64)
    SplitMix64(2**64 - 1).next_uint64()  # the largest seed is still a seed


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_stream_draws_address_the_sequential_stream(seed):
    rng = SplitMix64(seed)
    sequential = [rng.next_uint64() for _ in range(40)]
    assert stream_draws(seed, np.arange(40)).tolist() == sequential
    # a master stream's outputs are the derived trial seeds
    trials = np.arange(1000, dtype=np.uint64)
    assert stream_draws(seed, trials).tolist() == [derive_seed(seed, t) for t in range(1000)]


def sequential_shuffle(seed, n):
    """Fisher-Yates over SplitMix64, one draw at a time: (perm, draws, generator)."""
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
    return perm, draws, rng


_SHUFFLE_SIZES = [0, 1, 2, 3, *(2**k for k in range(2, 12)), *(2**k + 1 for k in range(2, 12)),
                  4096]


@pytest.mark.parametrize("seed", [0, 1, 7919, 2**63, 2**64 - 1])
def test_shuffle_equals_a_sequential_fisher_yates(seed):
    for n in _SHUFFLE_SIZES:
        perm, draws, rng = sequential_shuffle(seed, n)
        assert shuffle(seed, n) == (perm, draws)
        generator = SplitMix64(seed)
        items = [f"item{i}" for i in range(n)]
        generator.shuffle(items)
        assert items == [f"item{j}" for j in perm]
        # the generator is left where the sequential loop leaves it
        assert generator.next_uint64() == rng.next_uint64()


def test_shuffle_reads_past_its_first_block_of_draws():
    # shuffle fetches 2 (n - 1) draws at first; these seeds need more for n = 3
    seeds = [s for s in range(300) if sequential_shuffle(s, 3)[1] > 4]
    assert seeds
    for seed in seeds:
        assert shuffle(seed, 3) == sequential_shuffle(seed, 3)[:2]


def test_shuffle_rejects_seeds_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            shuffle(seed, 4)
