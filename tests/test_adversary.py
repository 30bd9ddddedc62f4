"""Attack-scenario statistics, exact certainties, and cross-oracle checks."""

import io
import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_coord import cli, qsim
from entangle_coord.adversary import (
    AttackReport,
    BISEPARABLE_ATTACK,
    BitRows,
    GHZ_ATTACK,
    W_ATTACK,
    WOLF_CNOT_ATTACK,
    biseparable_attack,
    _pearson,
    _three_holder_attack,
    build_wolf_triple,
    eve_ghz_attack,
    eve_w_attack,
    wolf_cnot_attack,
)
from entangle_coord.protocol import BATCH_SLOTS, bit_strings, row_text
from entangle_coord.seeding import GAMMA, SplitMix64, derive_seed

from sequential_reference import analytic_joint, counts_from_strings, scalar_three_holder_attack


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


def _random_bits(seed: int, shape: tuple[int, int]) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, shape, dtype=np.uint8)


# 0/1 arrays of 1 to 200 slots
_BIT_ARRAYS = st.builds(_random_bits, st.integers(0, 2**32 - 1),
                        st.tuples(st.integers(1, 20), st.integers(1, 10)))


@settings(max_examples=100, deadline=None)
@given(x=_BIT_ARRAYS, seed=st.integers(0, 2**32 - 1), complement=st.booleans())
def test_pearson_equals_the_statistics_correlation(x, seed, complement):
    y = x ^ 1 if complement else _random_bits(seed, x.shape)
    if 0 < x.sum() < x.size and 0 < y.sum() < y.size:
        expected = statistics.correlation(x.ravel().tolist(), y.ravel().tolist())
        assert abs(_pearson(x, y) - expected) <= 1e-12
    for constant in (np.zeros_like(x), np.ones_like(x)):
        assert _pearson(constant, y) == _pearson(x, constant) == 0.0


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
    for strings, n_bits, message in (((), 1, "trials must be at least 1"),
                                     (("",), 0, "n_bits must be at least 1"),
                                     (BitRows(np.zeros((1, 2), np.uint8)), 1,
                                      "wolf_bits: bit strings must have length n_bits")):
        with pytest.raises(ValueError, match=message):
            _report_with(strings, n_bits)
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
    for attacker in ({"eve_bits": ("1",), "wolf_bits": ("0",)}, {}):
        # exactly one attacker series
        with pytest.raises(ValueError, match="exactly one"):
            AttackReport(
                kind=W_ATTACK,
                n_bits=1,
                trials=1,
                alice_bits=("0",),
                bob_bits=("0",),
                eavesdrop_success_rate=1.0,
                agreement_rate=1.0,
                conditional_stats={},
                **attacker,
            )


def _report_with(alice_bits, n_bits=1):
    return AttackReport(
        kind=W_ATTACK,
        n_bits=n_bits,
        trials=len(alice_bits),
        alice_bits=alice_bits,
        bob_bits=alice_bits,
        eavesdrop_success_rate=1.0,
        agreement_rate=1.0,
        conditional_stats={},
        wolf_bits=alice_bits,
    )


@pytest.mark.parametrize("strings", [("2", "x"), ("0", "1", " "), ("/",), ("\u0130",),
                                     ("01", "0\x00"), ("10", "1\ud800")])
def test_attack_report_rejects_characters_other_than_bits(strings):
    with pytest.raises(ValueError, match="only the characters 0 and 1"):
        _report_with(strings, n_bits=len(strings[0]))


def test_attack_report_keeps_given_strings_as_bit_rows():
    strings = ("0110", "1111", "0000")
    report = _report_with(strings, n_bits=4)
    for series in (report.wolf_bits, report.alice_bits, report.bob_bits):
        assert isinstance(series, BitRows)
        assert series == strings
        assert series.bits.tolist() == [[int(c) for c in s] for s in strings]
    assert report == _report_with(BitRows(report.alice_bits.bits), n_bits=4)


@settings(max_examples=100, deadline=None)
@given(drawn=_BIT_ARRAYS | st.just(np.ones((1, 1), np.uint8)),
       lead=st.binary(max_size=4).map(lambda b: bytes(c & 0x7f for c in b)),
       tail=st.sampled_from([b"", b'"', b"\n"]))
def test_bit_rows_behave_as_a_sequence_of_strings(drawn, lead, tail):
    # the codec's round trip, n_bits % 8 != 0 and 1 x 1 included
    strings = ["".join(map(str, row)) for row in drawn.tolist()]
    assert list(BitRows(drawn)) == strings
    assert np.array_equal(BitRows.from_strings(list(BitRows(drawn)), drawn.shape[1]).bits, drawn)
    framed = "".join(lead.decode("ascii") + s + tail.decode("ascii") for s in strings)
    assert row_text(drawn, lead, tail) == framed
    bits = np.array([[0, 1, 1], [1, 0, 0], [1, 1, 1]], np.uint8)
    rows = BitRows(bits)
    strings = ("011", "100", "111")
    assert len(rows) == 3
    assert rows[-1] == "111" and rows[0] == "011" and rows[np.int64(1)] == "100"
    assert rows[1:] == strings[1:]
    assert list(rows) == list(strings) == list(reversed(rows[::-1]))
    assert rows == strings and strings == rows
    assert rows == BitRows(bits.copy())
    assert rows != ("011", "100", "110") and rows != strings[:2] and rows != list(strings)
    assert rows.count("100") == 1 and "111" in rows and rows.index("111") == 2
    with pytest.raises(IndexError):
        rows[3]
    # a read-only view: the transcripts cannot change under a report
    assert np.shares_memory(rows.bits, bits)
    with pytest.raises(ValueError):
        rows.bits[0, 0] = 1
    bits[0, 0] = 1  # the driver's own array stays writable
    for bad in (bits.astype(np.int64), bits[0], bits + 1):
        with pytest.raises(ValueError):
            BitRows(bad)


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
    json.dumps(d, default=list)

    wolf_report = wolf_cnot_attack(1, 5, 0, 2)
    d = wolf_report.to_dict()
    assert "wolf_bits" in d and "eve_bits" not in d
    json.dumps(d, default=list)


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
    expected = counts_from_strings(report)
    reported = {"eavesdrop_success_rate": report.eavesdrop_success_rate,
                "agreement_rate": report.agreement_rate, **report.conditional_stats}
    assert {name: reported[name] for name in expected} == expected

    args = cli.build_parser().parse_args(
        _attack_argv(kind, n_bits, trials, eve_first, target_bit, seed))
    text = io.StringIO()
    cli.render(args.handler(args), "json", text)
    envelope = json.loads(text.getvalue())
    cli.validate_envelope(envelope)
    assert envelope["results"] == json.loads(json.dumps(report.to_dict(), default=list))


# ----------------------------------------- batched attacks vs slot by slot


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
    expected = scalar_three_holder_attack(state, order, n_bits, trials, seed)
    bits = _three_holder_attack(state, order, n_bits, trials, seed)
    assert tuple(tuple(bit_strings(qubit_bits)) for qubit_bits in bits) == expected


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
    _assert_batch_matches_reference(state, tuple(order), n_bits, BATCH_SLOTS // n_bits + 1, seed)


def test_attacks_reject_seeds_outside_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            eve_w_attack(1, 1, seed)
    with pytest.raises(TypeError):
        eve_w_attack(3, 5, 1.5)  # not truncated to seed 1
