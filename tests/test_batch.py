"""The counter-addressed batch engine equals the scalar reference bit for bit."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_coord import protocol
from entangle_coord.protocol import (
    BATCH_SLOTS,
    NoiseModel,
    RunRecord,
    action_number_counts,
    bit_strings,
    iter_runs,
    run_batch,
    run_multiagent,
    run_protocol,
)
from entangle_coord.qsim import DEGENERATE_BRANCH, QUBIT_CAP
from entangle_coord.seeding import SplitMix64, derive_seed

# The angle at which a Bell partner's small branch weighs exactly
# DEGENERATE_BRANCH; the half-turn leaves a branch of about 4e-33, far below
# the threshold but not zero.
EDGE = 2.0 * math.asin(math.sqrt(DEGENERATE_BRANCH))
SPECIAL_ANGLES = [0.0, -0.0, math.pi, -math.pi, 0.5 * EDGE, -0.5 * EDGE, 2.0 * EDGE, 1e-7]
angles = st.one_of(st.sampled_from(SPECIAL_ANGLES),
                   st.floats(-2.0 * math.pi, 2.0 * math.pi))
flip_probs = st.one_of(st.sampled_from([0.0, 0.5, 1e-9]), st.floats(0.0, 0.5))


def _tokens(base: int, bits: str) -> tuple[str, ...]:
    return tuple("%016x" % ((base + 2 * i + int(b)) & ((1 << 64) - 1))
                 for i, b in enumerate(bits))


def _scalar_tables(k: int, n_bits: int, seed: int):
    # The scalar path's action tables: same stream, same order of draws.
    rng = SplitMix64(seed)
    protocol._distribute(k, n_bits, rng)
    return protocol._precommunicate(k, n_bits, rng)


def _assert_matches_scalar(k, n_bits, noise, trials, master):
    batch = run_batch(k, n_bits, noise, trials, master)
    assert batch.bits.shape == (k, trials, n_bits)
    records = list(batch.records())
    strings = [bit_strings(agent_bits) for agent_bits in batch.bits]
    for t in range(trials):
        seed = derive_seed(master, t)
        assert int(batch.seeds[t]) == seed
        tables = _scalar_tables(k, n_bits, seed)
        bits = tuple(column[t] for column in strings)
        for agent, table in enumerate(tables):
            expected = tuple(table.entries[i][int(b)] for i, b in enumerate(bits[agent]))
            assert _tokens(int(batch.token_bases[agent, t]), bits[agent]) == expected
        if k == 2:
            ref = run_protocol(n_bits, noise, seed)
            assert (ref.alice_bits, ref.bob_bits) == bits
            assert records[t] == ref  # tokens, numbers, agree and strike included
        else:
            ref = run_multiagent(k, n_bits, noise, seed)
            assert ref.bits == bits
            assert records[t] == ref


@settings(max_examples=120, deadline=None)
@given(
    n_bits=st.integers(1, 12),
    k=st.integers(2, 8),
    eps=flip_probs,
    theta_a=angles,
    theta_b=angles,
    master=st.integers(0, (1 << 64) - 1),
    trials=st.integers(1, 3),
)
def test_batch_equals_scalar_reference(n_bits, k, eps, theta_a, theta_b, master, trials):
    noise = NoiseModel(flip_prob=eps, misalign_alice=theta_a, misalign_bob=theta_b)
    _assert_matches_scalar(k, n_bits, noise, trials, master)


@pytest.mark.parametrize("k,n_bits", [(2, 1), (3, 2)])
def test_chunk_boundaries_never_shift_a_trial(k, n_bits):
    lanes = BATCH_SLOTS // n_bits
    noise = NoiseModel(flip_prob=0.1, misalign_bob=0.4)
    for trials in (lanes + 1, 2 * lanes + 1):
        batch = run_batch(k, n_bits, noise, trials, 77)
        # the trials around each chunk edge, against the scalar reference
        for t in (0, lanes - 1, lanes, trials - 2, trials - 1):
            seed = derive_seed(77, t)
            ref = run_multiagent(k, n_bits, noise, seed)
            assert int(batch.seeds[t]) == seed
            assert tuple(bit_strings(batch.bits[:, t])) == ref.bits
        # and a shorter batch holds the same leading trials
        head = run_batch(k, n_bits, noise, lanes - 1, 77)
        assert np.array_equal(head.bits, batch.bits[:, : lanes - 1])
        assert np.array_equal(head.token_bases, batch.token_bases[:, : lanes - 1])


def test_wide_register_matches_scalar():
    noise = NoiseModel(flip_prob=0.2, misalign_alice=-0.7, misalign_bob=0.3)
    _assert_matches_scalar(12, 2, noise, 2, 5)


def test_memory_does_not_grow_with_the_register():
    # a dense 2**20-amplitude register alone would take 8 MB per slot
    noise = NoiseModel(flip_prob=0.1, misalign_alice=0.2, misalign_bob=0.3)
    run_batch(QUBIT_CAP, 1, noise, 2, 5)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        run_batch(QUBIT_CAP, 1, noise, 2, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_iter_runs_yields_run_records():
    records = list(iter_runs(3, NoiseModel(flip_prob=0.3), 4, 2**64 - 1))
    assert all(type(rec) is RunRecord for rec in records)
    assert [rec.seed for rec in records] == [derive_seed(2**64 - 1, t) for t in range(4)]


def test_action_number_counts_orders_numerically_beyond_64_bits():
    bits = np.zeros((3, 70), np.uint8)
    bits[0, 0] = 1  # 2**69
    bits[2, -1] = 1  # 1
    assert action_number_counts(bits) == [(0, 1), (1, 1), (1 << 69, 1)]


def test_run_batch_validates_arguments():
    quiet = NoiseModel()
    with pytest.raises(ValueError, match="at least 2 agents"):
        run_batch(1, 1, quiet, 1, 0)
    with pytest.raises(ValueError, match="n_bits must be at least 1"):
        run_batch(2, 0, quiet, 1, 0)
    with pytest.raises(ValueError, match="QUBIT_CAP"):
        run_batch(21, 1, quiet, 1, 0)
    with pytest.raises(ValueError):
        run_batch(2, 1, quiet, -1, 0)
    for master in (-1, 1 << 64):
        with pytest.raises(ValueError):
            run_batch(2, 1, quiet, 1, master)
    assert run_batch(2, 1, quiet, 0, 0).bits.shape == (2, 0, 1)
