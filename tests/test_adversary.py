"""Attack-scenario statistics, exact certainties, and cross-oracle checks."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_coord import cli, qsim
from entangle_coord.adversary import (
    AttackReport,
    BISEPARABLE_ATTACK,
    GHZ_ATTACK,
    W_ATTACK,
    WOLF_CNOT_ATTACK,
    biseparable_attack,
    build_wolf_triple,
    eve_ghz_attack,
    eve_w_attack,
    wolf_cnot_attack,
)


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
