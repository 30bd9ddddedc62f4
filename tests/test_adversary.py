"""Attack-scenario statistics, exact certainties, and cross-oracle checks."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_coord import cli, qsim
from entangle_coord.adversary import (
    ATTACK_CHUNK,
    AttackReport,
    BISEPARABLE_ATTACK,
    GHZ_ATTACK,
    W_ATTACK,
    WOLF_CNOT_ATTACK,
    biseparable_attack,
    _three_holder_attack,
    build_wolf_triple,
    eve_ghz_attack,
    eve_w_attack,
    wolf_cnot_attack,
)
from entangle_coord.seeding import GAMMA, SplitMix64, derive_seed


class FixedRng:
    """Forces a measurement branch: 0.0 picks bit 0, near-1.0 picks bit 1."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _forced(state, qubit, bit):
    out = qsim.measure_qubit(state, qubit, FixedRng(0.0 if bit == 0 else 0.999999))
    assert out.bit == bit
    return out.post_state


def analytic_joint(state, order):
    """Outcome distribution from chained measurement_probabilities calls."""
    result = {}

    def walk(st, prefix, prob, remaining):
        if not remaining:
            result[prefix] = prob
            return
        q = remaining[0]
        p0, p1 = qsim.measurement_probabilities(st, q)
        if p0 > 1e-12:
            walk(_forced(st, q, 0), prefix + "0", prob * p0, remaining[1:])
        if p1 > 1e-12:
            walk(_forced(st, q, 1), prefix + "1", prob * p1, remaining[1:])

    walk(state, "", 1.0, tuple(order))
    return result


# ------------------------------------------------------------------- GHZ


@pytest.mark.parametrize("eve_first", [True, False])
def test_ghz_attack_is_perfect_in_both_orders(eve_first):
    report = eve_ghz_attack(4, 300, eve_first, 17)
    assert report.kind == GHZ_ATTACK
    assert report.eavesdrop_success_rate == 1.0
    assert report.agreement_rate == 1.0
    assert report.conditional_stats["remainder_separable_rate"] == 1.0
    assert report.eve_bits == report.alice_bits == report.bob_bits


def test_ghz_attack_deterministic():
    assert eve_ghz_attack(2, 50, True, 5) == eve_ghz_attack(2, 50, True, 5)
    assert eve_ghz_attack(2, 50, True, 5) != eve_ghz_attack(2, 50, True, 6)


# --------------------------------------------------------------------- W


def test_w_attack_exact_conditionals():
    report = eve_w_attack(1, 10_000, 7)
    stats = report.conditional_stats
    assert stats["both_one_given_eve_zero"] == 1.0
    assert stats["disagree_given_eve_one"] == 1.0
    for e, a, b in zip(report.eve_bits, report.alice_bits, report.bob_bits):
        if e == "0":
            assert a == b == "1"
        else:
            assert a != b


def test_w_attack_marginals_match_born_rule():
    trials = 10_000
    report = eve_w_attack(1, trials, 7)
    third = 1.0 / 3.0
    sigma = math.sqrt(third * (1 - third) / trials)
    assert abs(report.conditional_stats["eve_zero_rate"] - third) < 4 * sigma
    assert abs(report.agreement_rate - third) < 4 * sigma
    assert abs(report.eavesdrop_success_rate - third) < 4 * sigma


def test_w_attack_cross_oracle_joint_distribution():
    trials = 10_000
    report = eve_w_attack(1, trials, 11)
    counts = {}
    for e, a, b in zip(report.eve_bits, report.alice_bits, report.bob_bits):
        key = e + a + b
        counts[key] = counts.get(key, 0) + 1
    expected = analytic_joint(qsim.prepare_w(), (0, 1, 2))
    assert set(counts) <= set(expected)
    for key, p in expected.items():
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts.get(key, 0) / trials - p) < 4 * sigma


def test_w_attack_deterministic():
    assert eve_w_attack(2, 40, 3) == eve_w_attack(2, 40, 3)


# ------------------------------------------------------------ biseparable


def test_biseparable_attack_statistics():
    trials = 10_000
    report = biseparable_attack(1, trials, 13)
    stats = report.conditional_stats
    assert report.kind == BISEPARABLE_ATTACK
    assert stats["eve_one_rate"] == 1.0
    assert all(s == "1" for s in report.eve_bits)
    assert report.agreement_rate == 0.0
    assert stats["correlation_eve_alice"] == 0.0
    joint = stats["alice_bob_joint"]
    assert joint["00"] == 0.0 and joint["11"] == 0.0
    sigma = math.sqrt(0.25 / trials)
    assert abs(joint["01"] - 0.5) < 4 * sigma
    assert abs(joint["10"] - 0.5) < 4 * sigma
    # eve's constant 1 matches alice exactly when alice reads 1
    sigma_half = math.sqrt(0.25 / trials)
    assert abs(report.eavesdrop_success_rate - 0.5) < 4 * sigma_half


def test_biseparable_cross_oracle():
    trials = 8_000
    report = biseparable_attack(1, trials, 29)
    counts = {}
    for e, a, b in zip(report.eve_bits, report.alice_bits, report.bob_bits):
        key = e + a + b
        counts[key] = counts.get(key, 0) + 1
    expected = analytic_joint(qsim.prepare_biseparable(), (0, 1, 2))
    assert set(expected) == {"101", "110"}
    for key, p in expected.items():
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(counts.get(key, 0) / trials - p) < 4 * sigma


# ------------------------------------------------------------------- Wolf


def test_wolf_construction_is_componentwise_ghz():
    triple = build_wolf_triple(0)
    ghz = qsim.prepare_ghz(3)
    assert np.max(np.abs(triple.amplitudes - ghz.amplitudes)) <= 1e-12


def test_wolf_attack_reads_key_with_zero_ancilla():
    report = wolf_cnot_attack(3, 300, 0, 23)
    assert report.kind == WOLF_CNOT_ATTACK
    assert report.eavesdrop_success_rate == 1.0
    assert report.agreement_rate == 1.0
    assert report.wolf_bits == report.alice_bits
    assert report.conditional_stats["ghz_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert report.conditional_stats["wolf_matches_alice_rate"] == 1.0


def test_wolf_attack_reads_complement_with_one_ancilla():
    report = wolf_cnot_attack(2, 300, 1, 23)
    assert report.eavesdrop_success_rate == 0.0
    assert report.agreement_rate == 1.0
    assert report.conditional_stats["wolf_complements_alice_rate"] == 1.0
    assert abs(report.conditional_stats["ghz_fidelity"]) <= 1e-12
    flip = str.maketrans("01", "10")
    for w, a in zip(report.wolf_bits, report.alice_bits):
        assert w == a.translate(flip)


def test_wolf_attack_deterministic():
    assert wolf_cnot_attack(2, 60, 0, 9) == wolf_cnot_attack(2, 60, 0, 9)


def test_wolf_rejects_bad_target_bit():
    with pytest.raises(ValueError):
        wolf_cnot_attack(1, 1, 2, 0)
    with pytest.raises(ValueError):
        build_wolf_triple(-1)


# ----------------------------------------------------------------- report


def test_attack_args_validated():
    for fn in (
        lambda: eve_ghz_attack(0, 1, True, 0),
        lambda: eve_ghz_attack(1, 0, True, 0),
        lambda: eve_w_attack(0, 1, 0),
        lambda: biseparable_attack(1, 0, 0),
        lambda: wolf_cnot_attack(0, 1, 0, 0),
    ):
        with pytest.raises(ValueError):
            fn()


def test_attack_report_validates_fields():
    with pytest.raises(ValueError):
        AttackReport(
            kind=W_ATTACK,
            n_bits=1,
            trials=2,
            alice_bits=("0",),  # wrong length
            bob_bits=("0", "1"),
            eavesdrop_success_rate=0.5,
            agreement_rate=0.5,
            conditional_stats={},
            eve_bits=("0", "1"),
        )
    with pytest.raises(ValueError):
        AttackReport(
            kind=W_ATTACK,
            n_bits=1,
            trials=1,
            alice_bits=("0",),
            bob_bits=("0",),
            eavesdrop_success_rate=1.5,
            agreement_rate=0.5,
            conditional_stats={},
            eve_bits=("0",),
        )


def test_report_serialization_shape():
    eve_report = eve_w_attack(1, 5, 2)
    d = eve_report.to_dict()
    assert list(d) == [
        "kind",
        "n_bits",
        "trials",
        "eve_bits",
        "alice_bits",
        "bob_bits",
        "eavesdrop_success_rate",
        "agreement_rate",
        "conditional_stats",
    ]
    json.dumps(d)

    wolf_report = wolf_cnot_attack(1, 5, 0, 2)
    d = wolf_report.to_dict()
    assert "wolf_bits" in d and "eve_bits" not in d
    json.dumps(d)


# --------------------------------------------------------------- properties


def _attack_argv(kind, n_bits, trials, eve_first, target_bit, seed):
    argv = ["attack", kind, "--bits", str(n_bits), "--trials", str(trials),
            "--seed", str(seed)]
    if kind == "ghz" and eve_first:
        argv.append("--eve-first")
    if kind == "wolf":
        argv += ["--target-bit", str(target_bit)]
    return argv


def _xor_bits(bits, bit):
    return bits if bit == 0 else bits.translate(str.maketrans("01", "10"))


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(["ghz", "w", "biseparable", "wolf"]),
    n_bits=st.integers(1, 6),
    trials=st.integers(1, 30),
    eve_first=st.booleans(),
    target_bit=st.integers(0, 1),
    seed=st.integers(0, 2**64 - 1),
)
def test_attack_exact_invariants_hold_for_every_input(
    kind, n_bits, trials, eve_first, target_bit, seed
):
    if kind == "ghz":
        report = eve_ghz_attack(n_bits, trials, eve_first, seed)
        assert report.eve_bits == report.alice_bits == report.bob_bits
        assert report.conditional_stats["remainder_separable_rate"] == 1.0
    elif kind == "w":
        report = eve_w_attack(n_bits, trials, seed)
        stats = report.conditional_stats
        eve_zero = "".join(report.eve_bits).count("0")
        if eve_zero:
            assert stats["both_one_given_eve_zero"] == 1.0
        if eve_zero < n_bits * trials:
            assert stats["disagree_given_eve_one"] == 1.0
        assert stats["eve_zero_rate"] == eve_zero / (n_bits * trials)
    elif kind == "biseparable":
        report = biseparable_attack(n_bits, trials, seed)
        assert report.eve_bits == ("1" * n_bits,) * trials
        assert report.agreement_rate == 0.0
    else:
        report = wolf_cnot_attack(n_bits, trials, target_bit, seed)
        assert report.wolf_bits == tuple(_xor_bits(a, target_bit) for a in report.alice_bits)
        assert report.agreement_rate == 1.0
    assert (report.n_bits, report.trials) == (n_bits, trials)

    args = cli.build_parser().parse_args(
        _attack_argv(kind, n_bits, trials, eve_first, target_bit, seed))
    envelope = json.loads(cli.render(args.handler(args), "json"))
    cli.validate_envelope(envelope)
    assert envelope["results"] == json.loads(json.dumps(report.to_dict()))


# ----------------------------------------- batched attacks vs slot by slot


def scalar_three_holder_attack(state, order, n_bits, trials, seed, after_first=None):
    """The slot-by-slot reference: a fresh copy of `state` per slot.

    Trial t reads SplitMix64(derive_seed(seed, t)) one draw at a time through
    qsim.measure_qubit; `after_first(bit, state)` sees every slot's first
    outcome and the state it leaves.  Returns qubit 0, 1 and 2's strings.
    """
    flat = (bytearray(), bytearray(), bytearray())  # each qubit's bits, slot after slot
    for trial in range(trials):
        rng = SplitMix64(derive_seed(seed, trial))
        for _ in range(n_bits):
            current = state
            for step, qubit in enumerate(order):
                bit, _, current = qsim.measure_qubit(current, qubit, rng)
                flat[qubit].append(ord("0") + bit)
                if step == 0 and after_first is not None:
                    after_first(bit, current)
    texts = [bits.decode("ascii") for bits in flat]
    return tuple(
        tuple(text[i : i + n_bits] for i in range(0, len(text), n_bits)) for text in texts)


_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix(z):
    # inverse of the SplitMix64 output stage
    z = _unxorshift(z, 31) * pow(_MIX2, -1, 1 << 64) & _MASK64
    z = _unxorshift(z, 27) * pow(_MIX1, -1, 1 << 64) & _MASK64
    return _unxorshift(z, 30)


def _seed_with_first_draw(draw):
    # the master seed whose trial 0 reads `draw` first
    trial_seed = (_unmix(draw) - GAMMA) & _MASK64
    return (_unmix(trial_seed) - GAMMA) & _MASK64


_NEAR_DEGENERATE = [qsim.DEGENERATE_BRANCH * f for f in (0.999, 1.0, 1.001)]
_PINNED_WEIGHTS = _NEAR_DEGENERATE + [1.0 - w for w in _NEAR_DEGENERATE] + [0.5]


@st.composite
def three_qubit_states(draw):
    """Random normalised complex triples, some with zero amplitudes and some
    with one qubit's branch weight pinned at or next to DEGENERATE_BRANCH."""
    part = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array([complex(draw(part), draw(part)) for _ in range(8)])
    amps[draw(st.lists(st.booleans(), min_size=8, max_size=8))] = 0.0
    amps[abs(amps) < 1e-100] = 0.0  # a norm of subnormal parts underflows to 0
    amps[draw(st.integers(0, 7))] += 1e-3  # never the zero vector
    pin = draw(st.none() | st.tuples(st.integers(0, 2), st.sampled_from(_PINNED_WEIGHTS)))
    if pin is None:
        return qsim.PureState(3, amps / np.linalg.norm(amps))
    qubit, weight = pin
    ones = np.array([i >> (2 - qubit) & 1 for i in range(8)], bool)
    for idx, share in ((~ones, 1.0 - weight), (ones, weight)):
        if not np.any(amps[idx]):
            amps[np.flatnonzero(idx)[0]] = 1.0
        amps[idx] *= math.sqrt(share) / np.linalg.norm(amps[idx])
    if weight == qsim.DEGENERATE_BRANCH:
        # a lone amplitude 1e-6 puts p1 exactly on the threshold: 1e-6**2 == 1e-12
        amps[ones] = 0.0
        amps[np.flatnonzero(ones)[draw(st.integers(0, 3))]] = 1e-6
        return qsim.PureState(3, amps)
    return qsim.PureState(3, amps / np.linalg.norm(amps))


def _assert_batch_matches_reference(state, order, n_bits, trials, seed):
    first_seen = Counter()
    first_states = {}

    def record(bit, post):
        first_seen[bit] += 1
        first_states.setdefault(bit, set()).add(post.amplitudes.tobytes())

    expected = scalar_three_holder_attack(state, order, n_bits, trials, seed, record)
    strings, first = _three_holder_attack(state, order, n_bits, trials, seed)
    assert strings == expected
    assert {bit: slots for bit, (_, slots) in first.items() if slots} == dict(first_seen)
    for bit, amplitudes in first_states.items():
        assert amplitudes == {first[bit][0].amplitudes.tobytes()}


@settings(max_examples=150, deadline=None)
@given(
    state=three_qubit_states(),
    order=st.permutations((0, 1, 2)),
    n_bits=st.integers(1, 6),
    trials=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
    tie=st.booleans(),
    low=st.integers(0, (1 << 11) - 1),
)
def test_batched_attack_matches_scalar_reference(state, order, n_bits, trials, seed, tie, low):
    order = tuple(order)
    p1 = qsim.measurement_probabilities(state, order[0])[1]
    p0 = 1.0 - p1
    scaled = p0 * 2.0**53
    if tie and min(p0, p1) >= qsim.DEGENERATE_BRANCH and scaled == int(scaled):
        # trial 0's first uniform equals the first node's p0 exactly, so
        # `u < p0` and `u <= p0` pick different bits
        seed = _seed_with_first_draw(int(scaled) << 11 | low)
        assert SplitMix64(derive_seed(seed, 0)).random() == p0
    _assert_batch_matches_reference(state, order, n_bits, trials, seed)


@settings(max_examples=4, deadline=None)
@given(
    state=three_qubit_states(),
    order=st.permutations((0, 1, 2)),
    n_bits=st.integers(1, 2),
    seed=st.integers(0, 2**64 - 1),
)
def test_batched_attack_matches_reference_across_a_chunk_boundary(state, order, n_bits, seed):
    _assert_batch_matches_reference(state, tuple(order), n_bits, ATTACK_CHUNK + 1, seed)


def test_attacks_reject_seeds_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            eve_w_attack(1, 1, seed)
