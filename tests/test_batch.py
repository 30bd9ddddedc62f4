"""The counter-addressed batch engine and its one-trial views equal the
sequential reference (sequential_reference.py) bit for bit."""

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
    RunSummary,
    action_number_counts,
    bit_strings,
    iter_runs,
    trial_batches,
)
from entangle_coord.qsim import DEGENERATE_BRANCH, QUBIT_CAP
from entangle_coord.seeding import SplitMix64, derive_seed

import sequential_reference as ref

# The angle at which a Bell partner's small branch weighs exactly
# DEGENERATE_BRANCH; the half-turn leaves a branch of about 4e-33, far below
# the threshold but not zero.
EDGE = 2.0 * math.asin(math.sqrt(DEGENERATE_BRANCH))
SPECIAL_ANGLES = [0.0, -0.0, math.pi, -math.pi, 0.5 * EDGE, -0.5 * EDGE, 2.0 * EDGE, 1e-7]
angles = st.one_of(st.sampled_from(SPECIAL_ANGLES),
                   st.floats(-2.0 * math.pi, 2.0 * math.pi))
flip_probs = st.one_of(st.sampled_from([0.0, 0.5, 1e-9]), st.floats(0.0, 0.5))


def _scalar_tables(k: int, n_bits: int, seed: int):
    # The reference's action tables: same stream, same order of draws.
    rng = SplitMix64(seed)
    ref._distribute(k, n_bits, rng)
    return ref._precommunicate(k, n_bits, rng)


def _assert_matches_scalar(k, n_bits, noise, trials, master):
    batch = ref.whole_batch(k, n_bits, noise, trials, master)
    assert batch.bits.shape == (k, trials, n_bits)
    records = list(batch.records())
    strings = [bit_strings(agent_bits) for agent_bits in batch.bits]
    for t in range(trials):
        seed = derive_seed(master, t)
        assert int(batch.seeds[t]) == seed
        bits = tuple(column[t] for column in strings)
        multi = ref.run_multiagent(k, n_bits, noise, seed)
        assert multi.bits == bits
        assert protocol.run_multiagent(k, n_bits, noise, seed) == multi
        if k == 2:
            # each record token is the reference table's entry for the observed bit
            tables = _scalar_tables(k, n_bits, seed)
            actions = (records[t].alice_actions, records[t].bob_actions)
            for table, agent_bits, tokens in zip(tables, bits, actions):
                assert tokens == tuple(table.entries[i][int(b)] for i, b in enumerate(agent_bits))
            expected = ref.run_protocol(n_bits, noise, seed)
            assert (expected.alice_bits, expected.bob_bits) == bits
            # tokens, numbers, agree and strike included
            assert records[t] == protocol.run_protocol(n_bits, noise, seed) == expected
        else:
            assert records[t] == multi


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


@pytest.mark.parametrize("k,n_bits", [(2, 1), (3, 2), (4, 3)])
def test_chunk_boundaries_never_shift_a_trial(k, n_bits):
    lanes = BATCH_SLOTS // n_bits
    noise = NoiseModel(flip_prob=0.1, misalign_bob=0.4)
    for trials in (lanes + 1, 2 * lanes + 1):
        batch = ref.whole_batch(k, n_bits, noise, trials, 77)
        # the chunks tile the trials, lanes trials at a time, with their seeds
        chunks = list(protocol.trial_chunks(77, trials, n_bits))
        assert [part for part, _ in chunks] == [
            slice(start, min(trials, start + lanes)) for start in range(0, trials, lanes)]
        assert np.array_equal(np.concatenate([seeds for _, seeds in chunks]), batch.seeds)
        # one batch per chunk, with the chunk's seeds
        batches = list(trial_batches(k, n_bits, noise, trials, 77))
        assert len(batches) == len(chunks)
        for one, (_, seeds) in zip(batches, chunks):
            assert np.array_equal(one.seeds, seeds)
        records = [rec for one in batches for rec in one.records()]
        # the trials around each chunk edge, against the sequential reference
        for t in (0, lanes - 1, lanes, trials - 2, trials - 1):
            seed = derive_seed(77, t)
            assert int(batch.seeds[t]) == seed
            multi = ref.run_multiagent(k, n_bits, noise, seed)
            assert tuple(bit_strings(batch.bits[:, t])) == multi.bits
            # records built batch by batch, as iter_runs builds them
            assert records[t] == (ref.run_protocol(n_bits, noise, seed) if k == 2 else multi)
        # and a shorter batch holds the same leading trials
        head = ref.whole_batch(k, n_bits, noise, lanes - 1, 77)
        assert np.array_equal(head.bits, batch.bits[:, : lanes - 1])


@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
@pytest.mark.parametrize("k", [2, 3])
def test_views_at_the_seed_domain_edges(k, seed):
    # Relative misalignment EDGE leaves bob's small branch at DEGENERATE_BRANCH
    # to rounding, so whether it takes a Born draw depends on the last bit of
    # alice's collapse: these runs tell apart renormalising by 1 - p1 and by
    # the kept branch's own weight.
    noise = NoiseModel(flip_prob=0.1, misalign_alice=-0.5 * EDGE, misalign_bob=0.5 * EDGE)
    assert protocol.run_multiagent(k, 8, noise, seed) == ref.run_multiagent(k, 8, noise, seed)
    if k == 2:
        assert protocol.run_protocol(8, noise, seed) == ref.run_protocol(8, noise, seed)


def test_wide_register_matches_scalar():
    noise = NoiseModel(flip_prob=0.2, misalign_alice=-0.7, misalign_bob=0.3)
    _assert_matches_scalar(12, 2, noise, 2, 5)


@pytest.mark.parametrize("k,n_bits", [(2, 1), (4, 8), (8, 1)])
def test_run_chunk_working_set_is_bounded(k, n_bits):
    # the protocol docstring's bound, 9 arrays of 8 bytes per slot, on one
    # full chunk with rotations, collapses and flips; the k output bytes per
    # slot count too
    noise = NoiseModel(flip_prob=0.05, misalign_alice=0.3, misalign_bob=-0.2)
    [(part, seeds)] = protocol.trial_chunks(3, BATCH_SLOTS // n_bits, n_bits)
    assert (part.stop - part.start) * n_bits == BATCH_SLOTS
    protocol._run_chunk(seeds, k, n_bits, noise)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        protocol._run_chunk(seeds, k, n_bits, noise)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9 * 8 * BATCH_SLOTS


def test_memory_does_not_grow_with_the_register():
    # a dense 2**20-amplitude register alone would take 8 MB per slot
    noise = NoiseModel(flip_prob=0.1, misalign_alice=0.2, misalign_bob=0.3)
    ref.whole_batch(QUBIT_CAP, 1, noise, 2, 5)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        ref.whole_batch(QUBIT_CAP, 1, noise, 2, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@st.composite
def _summary_cases(draw):
    # trial counts on and across chunk boundaries; n_bits on both sides of
    # the per-action-number histogram (2**n_bits <= BATCH_SLOTS)
    n_bits = draw(st.integers(1, 20))
    lanes = max(1, BATCH_SLOTS // n_bits)
    trials = draw(st.integers(1, 10) | st.sampled_from([lanes, lanes + 1, 2 * lanes])
                  | st.integers(1, 2 * lanes + 1))
    noise = NoiseModel(draw(flip_probs), draw(angles), draw(angles))
    return draw(st.integers(2, 6)), n_bits, noise, trials, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=100, deadline=None)
@given(case=_summary_cases())
def test_run_summary_equals_the_whole_batch_aggregates(case):
    k, n_bits, noise, trials, master = case
    summary = RunSummary.of_trials(k, n_bits, noise, trials, master)
    batch = ref.whole_batch(k, n_bits, noise, trials, master)
    slot_agrees = (batch.bits == batch.bits[0]).all(axis=0)
    assert summary.trials == trials
    assert summary.agreement_rate == int(slot_agrees.all(axis=1).sum()) / trials
    assert summary.per_bit_disagreement == [
        d / trials for d in (~slot_agrees).sum(axis=0).tolist()]
    assert list(summary.action_number_histogram.items()) == [
        (str(number), count) for number, count in action_number_counts(batch.bits[0])]
    assert summary.records == (tuple(batch.records()) if trials <= 10 else None)


def test_run_summary_validates_arguments():
    with pytest.raises(ValueError, match="trials must be at least 1"):
        RunSummary.of_trials(2, 1, NoiseModel(), 0, 0)
    with pytest.raises(ValueError, match="at least 2 agents"):
        RunSummary.of_trials(1, 1, NoiseModel(), 1, 0)


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
        list(trial_batches(1, 1, quiet, 1, 0))
    with pytest.raises(ValueError, match="n_bits must be at least 1"):
        list(trial_batches(2, 0, quiet, 1, 0))
    with pytest.raises(ValueError, match="QUBIT_CAP"):
        list(trial_batches(21, 1, quiet, 1, 0))
    with pytest.raises(ValueError):
        list(trial_batches(2, 1, quiet, -1, 0))
    for master in (-1, 1 << 64):
        with pytest.raises(ValueError):
            list(trial_batches(2, 1, quiet, 1, master))
    with pytest.raises(TypeError):
        list(trial_batches(2, 1, quiet, 1, 1.5))  # not truncated to master seed 1
    assert list(trial_batches(2, 1, quiet, 0, 0)) == []
