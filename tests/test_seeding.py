import json
from pathlib import Path

import numpy as np
import pytest

from entangle_coord.seeding import SplitMix64, derive_seed, stream_draws

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
