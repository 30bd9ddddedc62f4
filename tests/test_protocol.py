"""Protocol-level behavior: records, tables and runs, and the sequential
reference's distribution, tables and measurement (sequential_reference.py)."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from entangle_coord import qsim
from entangle_coord.protocol import (
    AMBIGUOUS,
    NoiseModel,
    StateRegistry,
    StrikeSet,
    iter_runs,
    run_multiagent,
    run_protocol,
    trial_batches,
)
from entangle_coord.seeding import SplitMix64, derive_seed, stream_draws

from sequential_reference import (
    ActionTable,
    AgentMemory,
    agent_measure,
    distribute_pairs,
    precommunicate,
    whole_batch,
)

QUIET = NoiseModel()


# ------------------------------------------------------------------ types


def test_strike_set_validates_label_count():
    with pytest.raises(ValueError):
        StrikeSet(2, ("a", "b"))


def test_strike_set_validates_distinct_labels():
    with pytest.raises(ValueError):
        StrikeSet(1, ("same", "same"))


def test_strike_set_accepts_explicit_labels():
    s = StrikeSet(1, ("bridge", "tunnel"))
    assert s.label(0) == "bridge"
    assert s.label(1) == "tunnel"


def test_default_strike_set_is_lazy_for_large_n():
    s = StrikeSet(64)
    assert s.label(0) == "strike-0000000000000000"
    assert s.label((1 << 64) - 1) == "strike-ffffffffffffffff"


def test_action_table_requires_issuer_pairing():
    with pytest.raises(ValueError):
        ActionTable("alice", "dave", (("t0", "t1"),))
    with pytest.raises(ValueError):
        ActionTable("bob", "carl", (("t0", "t1"),))
    ActionTable("alice", "carl", (("t0", "t1"),))  # fine


def test_action_table_rejects_duplicate_tokens():
    with pytest.raises(ValueError):
        ActionTable("alice", "carl", (("t0", "t0"),))
    with pytest.raises(ValueError):
        ActionTable("alice", "carl", (("t0", "t1"), ("t1", "t2")))


def test_action_table_rejects_empty():
    with pytest.raises(ValueError):
        ActionTable("alice", "carl", ())


def test_strike_of_range_checks():
    with pytest.raises(ValueError, match="n_bits must be at least 1"):
        StrikeSet(0)
    s = StrikeSet(2)
    with pytest.raises(ValueError):
        s.label(4)
    with pytest.raises(ValueError):
        s.label(-1)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(flip_prob=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(flip_prob=0.6)
    with pytest.raises(ValueError):
        NoiseModel(misalign_alice=math.inf)
    NoiseModel(flip_prob=0.5, misalign_alice=-7.0, misalign_bob=3.0)  # fine


def test_run_record_serialization_field_order():
    rec = run_protocol(2, QUIET, 5)
    d = rec.to_dict()
    assert list(d) == [
        "seed",
        "alice_bits",
        "bob_bits",
        "alice_actions",
        "bob_actions",
        "alice_action_number",
        "bob_action_number",
        "agree",
        "strike",
    ]
    round_trip = json.loads(json.dumps(d))
    assert round_trip == d


def test_multi_run_record_serialization():
    rec = run_multiagent(3, 2, QUIET, 5)
    d = rec.to_dict()
    assert list(d) == [
        "seed",
        "n_bits",
        "agents",
        "bits",
        "action_numbers",
        "pairwise_agree",
        "all_agree",
        "strike",
    ]
    assert set(d["pairwise_agree"]) == {"0-1", "0-2", "1-2"}
    json.dumps(d)


# ------------------------------------ distribution layer (sequential reference)


def test_distribute_pairs_entries_are_bell():
    rng = SplitMix64(3)
    registry, alice, bob = distribute_pairs(4, rng)
    bell = qsim.prepare_bell()
    for i in range(4):
        np.testing.assert_allclose(
            registry.state(i).amplitudes, bell.amplitudes, atol=1e-12
        )
        pair_a, pos_a = alice.slots[i]
        pair_b, pos_b = bob.slots[i]
        assert pair_a == pair_b == i
        assert {pos_a, pos_b} == {0, 1}


def test_distribute_randomizes_holder():
    seen = set()
    for seed in range(64):
        _, alice, _ = distribute_pairs(1, SplitMix64(seed))
        seen.add(alice.slots[0][1])
    assert seen == {0, 1}


def test_distribute_rejects_zero_bits():
    with pytest.raises(ValueError):
        distribute_pairs(0, SplitMix64(1))


def test_joint_measurement_equal_bits():
    for n_bits in (1, 2, 4):
        for seed in range(50):
            rng = SplitMix64(seed)
            registry, a_mem, b_mem = distribute_pairs(n_bits, rng)
            a_tab, b_tab = precommunicate(StrikeSet(n_bits), rng)
            a_bits, _ = agent_measure(a_mem, a_tab, QUIET, registry, rng)
            b_bits, _ = agent_measure(b_mem, b_tab, QUIET, registry, rng)
            assert a_bits == b_bits


def test_double_measure_raises():
    registry = StateRegistry([qsim.prepare_bell()])
    rng = SplitMix64(0)
    registry.measure(0, 0, rng)
    with pytest.raises(ValueError):
        registry.measure(0, 0, rng)
    registry.measure(0, 1, rng)  # other qubit is fine


def test_registry_validates_position():
    registry = StateRegistry([qsim.prepare_bell()])
    with pytest.raises(ValueError):
        registry.measure(0, 2, SplitMix64(0))
    with pytest.raises(ValueError):
        registry.rotate(0, -1, 0.1)
    with pytest.raises(ValueError):
        registry.rotate(0, 0, math.nan)


def test_registry_math_matches_public_operators():
    # The registry must walk the public operators' trajectory when fed
    # identical uniform streams.
    registry = StateRegistry([qsim.prepare_ghz(3)])
    state = qsim.prepare_ghz(3)
    rng_a = SplitMix64(99)
    rng_b = SplitMix64(99)

    registry.rotate(0, 1, 0.7)
    state = qsim.apply_y_rotation(state, 1, 0.7)
    np.testing.assert_allclose(
        registry.state(0).amplitudes, state.amplitudes, atol=1e-12
    )

    for qubit in (0, 2, 1):
        bit = registry.measure(0, qubit, rng_a)
        outcome = qsim.measure_qubit(state, qubit, rng_b)
        state = outcome.post_state
        assert bit == outcome.bit
        np.testing.assert_allclose(
            registry.state(0).amplitudes, state.amplitudes, atol=1e-12
        )


def test_agent_measure_validates_inputs():
    rng = SplitMix64(1)
    registry, a_mem, b_mem = distribute_pairs(2, rng)
    a_tab, b_tab = precommunicate(StrikeSet(2), rng)
    with pytest.raises(ValueError):
        agent_measure(a_mem, b_tab, QUIET, registry, rng)
    short = AgentMemory("alice", (a_mem.slots[0],))
    with pytest.raises(ValueError):
        agent_measure(short, a_tab, QUIET, registry, rng)


# --------------------------------------------------------------- secrecy


def _table(seed, agent, n_bits):
    # An agent's whole action table: its base is draw n_bits + agent of the
    # trial's stream, and slot i holds base + 2i and base + 2i + 1.
    base = int(stream_draws(seed, n_bits + agent))
    return ["%016x" % ((base + j) % (1 << 64)) for j in range(2 * n_bits)]


def test_precommunicate_issuer_split():
    # carl issues alice's table and dave bob's: no token is in both
    batch = whole_batch(2, 2, QUIET, 50, 8)
    for rec in batch.records():
        alice, bob = (_table(rec.seed, agent, 2) for agent in range(2))
        assert not set(alice) & set(bob)
        assert set(rec.alice_actions) <= set(alice)
        assert set(rec.bob_actions) <= set(bob)


def test_tokens_are_opaque_and_fresh():
    batch = whole_batch(2, 2, QUIET, 2, 8)
    first, second = batch.records()
    tokens = first.alice_actions + first.bob_actions
    assert len(set(tokens)) == len(tokens)
    for tok in tokens:
        assert len(tok) == 16 and set(tok) <= set("0123456789abcdef")
        assert "strike" not in tok and first.strike not in tok
    # another seed issues other tables
    assert first.seed != second.seed
    assert not set(_table(first.seed, 0, 2)) & set(_table(second.seed, 0, 2))
    assert first.alice_actions != second.alice_actions


def test_both_tables_jointly_identify_the_strike():
    strikes = StrikeSet(3)
    batch = whole_batch(2, 3, QUIET, 1, 77)
    rec = next(batch.records(strikes))
    # each agent's base and its tokens decode its bits, hence the strike
    decoded = []
    for agent, actions in enumerate((rec.alice_actions, rec.bob_actions)):
        table = _table(rec.seed, agent, 3)
        decoded.append("".join(str(table.index(tok) - 2 * i) for i, tok in enumerate(actions)))
    assert decoded == [rec.alice_bits, rec.bob_bits]
    assert strikes.label(int(decoded[0], 2)) == rec.strike


# ----------------------------------------------------------- protocol runs


def test_perfect_channel_correctness_exact():
    for n_bits in range(1, 17):
        for rec in iter_runs(n_bits, QUIET, 1000, n_bits):
            assert rec.agree
            assert rec.alice_bits == rec.bob_bits
            assert rec.alice_action_number == rec.bob_action_number
            assert rec.strike != AMBIGUOUS


def test_action_number_uniformity():
    counts = Counter(
        rec.alice_action_number for rec in iter_runs(3, QUIET, 100_000, 2024)
    )
    assert set(counts) == set(range(8))
    for number in range(8):
        assert abs(counts[number] / 100_000 - 0.125) < 0.006


def test_noise_flip_rate_matches_epsilon():
    trials = 10_000
    n_bits = 4
    for eps in (0.01, 0.05, 0.1):
        disagreements = 0
        for rec in iter_runs(n_bits, NoiseModel(flip_prob=eps), trials, 555):
            disagreements += sum(
                a != b for a, b in zip(rec.alice_bits, rec.bob_bits)
            )
        samples = trials * n_bits
        rate = disagreements / samples
        sigma = math.sqrt(eps * (1 - eps) / samples)
        assert abs(rate - eps) < 4 * sigma


def test_misalignment_acts_as_noise():
    theta = math.pi / 3
    expected = math.sin(theta / 2) ** 2
    trials = 10_000
    disagree = sum(
        not rec.agree
        for rec in iter_runs(1, NoiseModel(misalign_bob=theta), trials, 99)
    )
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(disagree / trials - expected) < 4 * sigma


def test_misalignment_depends_on_relative_angle():
    # equal rotations on both sides cancel; offset rotations recreate the law
    trials = 10_000
    same = NoiseModel(misalign_alice=0.4, misalign_bob=0.4)
    assert all(rec.agree for rec in iter_runs(1, same, 2000, 7))

    offset = NoiseModel(misalign_alice=0.4, misalign_bob=0.4 + math.pi / 3)
    expected = math.sin(math.pi / 6) ** 2
    disagree = sum(not rec.agree for rec in iter_runs(1, offset, trials, 8))
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(disagree / trials - expected) < 4 * sigma


def test_order_independence_chi_squared():
    theta = math.pi / 3
    noise = NoiseModel(misalign_bob=theta)
    trials = 10_000

    def joint_counts(master_seed, alice_first):
        counts = Counter()
        strikes = StrikeSet(1)
        for trial in range(trials):
            rng = SplitMix64(derive_seed(master_seed, trial))
            registry, a_mem, b_mem = distribute_pairs(1, rng)
            a_tab, b_tab = precommunicate(strikes, rng)
            if alice_first:
                a_bits, _ = agent_measure(a_mem, a_tab, noise, registry, rng)
                b_bits, _ = agent_measure(b_mem, b_tab, noise, registry, rng)
            else:
                b_bits, _ = agent_measure(b_mem, b_tab, noise, registry, rng)
                a_bits, _ = agent_measure(a_mem, a_tab, noise, registry, rng)
            counts[a_bits + b_bits] += 1
        return [counts[k] for k in ("00", "01", "10", "11")]

    table = [joint_counts(1, True), joint_counts(2, False)]
    _, p_value, _, _ = chi2_contingency(table)
    assert p_value > 1e-3


def test_runs_deterministic():
    noise = NoiseModel(flip_prob=0.2, misalign_bob=0.3)
    assert run_protocol(4, noise, 999) == run_protocol(4, noise, 999)
    first = list(iter_runs(2, noise, 20, 5))
    second = list(iter_runs(2, noise, 20, 5))
    assert first == second


def test_iter_runs_uses_derived_seeds():
    records = list(iter_runs(1, QUIET, 5, 42))
    for trial, rec in enumerate(records):
        assert rec.seed == derive_seed(42, trial)
        assert rec == run_protocol(1, QUIET, rec.seed)


def test_ambiguous_on_disagreement():
    noisy = NoiseModel(flip_prob=0.5)
    rec = next(r for r in iter_runs(1, noisy, 100, 3) if not r.agree)
    assert rec.strike == AMBIGUOUS
    assert rec.alice_bits != rec.bob_bits
    assert rec.alice_action_number != rec.bob_action_number


def test_run_protocol_validates_arguments():
    with pytest.raises(ValueError):
        run_protocol(0, QUIET, 1)
    with pytest.raises(ValueError):
        run_protocol(2, QUIET, 1, strikes=StrikeSet(3))
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed"):
            run_protocol(2, QUIET, seed)
    with pytest.raises(TypeError):
        run_protocol(2, QUIET, 1.5)  # not truncated to seed 1


def test_run_protocol_custom_strikes():
    strikes = StrikeSet(1, ("alpha", "beta"))
    rec = run_protocol(1, QUIET, 11)
    named = run_protocol(1, QUIET, 11, strikes=strikes)
    assert named.strike == ("alpha", "beta")[named.alice_action_number]
    assert named.alice_bits == rec.alice_bits


# ------------------------------------------------------------- multiagent


def test_multiagent_two_reduces_exactly():
    noise = NoiseModel(flip_prob=0.15)
    for seed in range(100):
        rec = run_protocol(3, noise, seed)
        multi = run_multiagent(2, 3, noise, seed)
        assert multi.bits == (rec.alice_bits, rec.bob_bits)
        assert multi.action_numbers == (
            rec.alice_action_number,
            rec.bob_action_number,
        )
        assert multi.all_agree == rec.agree
        assert multi.strike == rec.strike


def test_multiagent_three_identical_strings():
    for seed in range(200):
        rec = run_multiagent(3, 4, QUIET, seed)
        assert rec.bits[0] == rec.bits[1] == rec.bits[2]
        assert rec.all_agree
        assert rec.agents == ("alice", "bob", "agent2")


def test_multiagent_common_bit_balance():
    # trial t of master seed 6 is the run of derive_seed(6, t); test_batch
    # holds run_multiagent to each lane
    zeros = sum(int(np.count_nonzero(batch.bits[0] == 0))
                for batch in trial_batches(4, 1, QUIET, 10_000, 6))
    assert abs(zeros / 10_000 - 0.5) < 0.02


def test_multiagent_noise_hits_non_alice_agents():
    # with a certain flip every non-alice agent inverts its measured bit
    noise = NoiseModel(flip_prob=0.5)
    rec = next(
        r for r in (run_multiagent(3, 1, noise, s) for s in range(200)) if not r.all_agree
    )
    assert rec.strike == AMBIGUOUS
    assert dict((f"{i}-{j}", a) for i, j, a in rec.pairwise_agree)


def test_multiagent_validates_k():
    with pytest.raises(ValueError):
        run_multiagent(1, 2, QUIET, 0)
    with pytest.raises(ValueError, match="QUBIT_CAP"):
        run_multiagent(qsim.QUBIT_CAP + 1, 2, QUIET, 0)


def test_readme_quick_start(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "False 8 True\n"
