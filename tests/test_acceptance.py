"""Acceptance suite: one test per numbered criterion, tolerances pinned.

Each test measures its own wall-clock budget with time.perf_counter around
the work under test (imports and fixture plumbing excluded).  Expected
numbers are either re-derived independently by the oracles in
sequential_reference.py or asserted exactly where the underlying draw is
deterministic.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from entangle_coord import cli
from entangle_coord.adversary import (
    build_wolf_triple,
    eve_ghz_attack,
    eve_w_attack,
    wolf_cnot_attack,
)
from entangle_coord.analysis import (
    binary_entropy,
    nicd_max_correlation,
    reconcile,
    shannon_length_bound,
)
from entangle_coord.protocol import NoiseModel, iter_runs, run_protocol
from entangle_coord.qsim import apply_y_rotation, measure_qubit, prepare_bell, prepare_ghz
from entangle_coord.seeding import SplitMix64, derive_seed

import sequential_reference as ref


def _cli_json(argv, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return json.loads(out)


# --------------------------------------------------------------- criteria 1-2


def test_criterion_01_bound_at_1e_minus_4_is_678(capsys):
    shannon_length_bound(1e-4)  # warm the interpreter before timing
    start = time.perf_counter()
    row = shannon_length_bound(1e-4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3, f"bound evaluation took {elapsed * 1e3:.3f} ms"
    assert row.max_error_free_length == 678
    assert row.max_error_free_length == ref.independent_max_len(1e-4)
    assert row.max_error_free_length < 700
    payload = _cli_json(["bound", "--eps", "0.0001"], capsys)
    assert payload["results"][0]["max_error_free_length"] == 678


def test_criterion_02_bound_at_0_01_is_12(capsys):
    shannon_length_bound(0.01)
    start = time.perf_counter()
    row = shannon_length_bound(0.01)
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3, f"bound evaluation took {elapsed * 1e3:.3f} ms"
    assert row.max_error_free_length == 12
    assert row.max_error_free_length == ref.independent_max_len(0.01)
    assert row.max_error_free_length < 13
    payload = _cli_json(["bound", "--eps", "0.01"], capsys)
    assert payload["results"][0]["max_error_free_length"] == 12


# --------------------------------------------------------------- criteria 3-4


@pytest.fixture(scope="module")
def bell_batch():
    # shared by criteria 3 and 4: the same 10^5 zero-noise single-bit runs
    trials = 100_000
    noise = NoiseModel()
    start = time.perf_counter()
    agree_count = 0
    zero_count = 0
    for rec in iter_runs(1, noise, trials, 20260819):
        agree_count += rec.agree
        zero_count += rec.alice_bits == "0"
    elapsed = time.perf_counter() - start
    return {
        "trials": trials,
        "agree_count": agree_count,
        "zero_count": zero_count,
        "elapsed": elapsed,
    }


def test_criterion_03_bell_agreement_every_single_trial(bell_batch):
    assert bell_batch["elapsed"] < 2.0, f"batch took {bell_batch['elapsed']:.2f} s"
    # per-trial assertion, not a statistic: every run agreed
    assert bell_batch["agree_count"] == bell_batch["trials"]
    assert bell_batch["agree_count"] / bell_batch["trials"] == 1.0


def test_criterion_04_first_bit_is_fair(bell_batch):
    assert bell_batch["elapsed"] < 2.0, f"batch took {bell_batch['elapsed']:.2f} s"
    frequency = bell_batch["zero_count"] / bell_batch["trials"]
    assert abs(frequency - 0.5) < 0.01


# ----------------------------------------------------------------- criterion 5


def test_criterion_05_ghz_attack_transparent_in_both_orders():
    start = time.perf_counter()
    for eve_first in (False, True):
        report = eve_ghz_attack(8, 1000, eve_first, seed=505)
        assert report.eavesdrop_success_rate == 1.0
        assert report.agreement_rate == 1.0
        # the two unmeasured qubits separate while staying correlated
        assert report.conditional_stats["remainder_separable_rate"] == 1.0
        assert report.conditional_stats["eve_first"] is eve_first
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"GHZ attacks took {elapsed:.2f} s"


# ----------------------------------------------------------------- criterion 6


def test_criterion_06_w_attack_statistics():
    trials = 100_000
    start = time.perf_counter()
    report = eve_w_attack(1, trials, seed=606)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"W attack took {elapsed:.2f} s"
    stats = report.conditional_stats
    assert abs(stats["eve_zero_rate"] - 1.0 / 3.0) < 0.006
    assert stats["both_one_given_eve_zero"] == 1.0
    assert stats["disagree_given_eve_one"] == 1.0
    assert abs(report.agreement_rate - 1.0 / 3.0) < 0.006


# ----------------------------------------------------------------- criterion 7


def test_criterion_07_wolf_triple_is_ghz_and_tracks_alice():
    start = time.perf_counter()
    triple = build_wolf_triple(0)
    ghz = prepare_ghz(3)
    assert float(np.max(np.abs(triple.amplitudes - ghz.amplitudes))) <= 1e-12
    report = wolf_cnot_attack(4, 1000, target_bit=0, seed=707)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"wolf attack took {elapsed:.2f} s"
    assert report.conditional_stats["wolf_matches_alice_rate"] == 1.0
    assert report.eavesdrop_success_rate == 1.0
    for wolf, alice in zip(report.wolf_bits, report.alice_bits):
        assert wolf == alice


# ----------------------------------------------------------------- criterion 8


def test_criterion_08_nicd_ceiling_met_by_matching_dictators():
    start = time.perf_counter()
    for m in (1, 2, 3):
        for eps in (0.05, 0.1, 0.25):
            result = nicd_max_correlation(m, eps)
            assert abs(result.max_correlation - (1.0 - 2.0 * eps)) <= 1e-9
            assert "dictator" in result.achiever["description"]
            assert result.achiever["f_table"] == result.achiever["g_table"]
            assert result.search_size == (1 << (1 << m)) ** 2
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"exhaustive searches took {elapsed:.2f} s"


# ----------------------------------------------------------------- criterion 9


def test_criterion_09_nicd_matches_direct_summation_oracle():
    start = time.perf_counter()
    for m in (1, 2):
        for eps in (0.0, 0.05, 0.1, 0.3, 0.5):
            result = nicd_max_correlation(m, eps)
            oracle = ref.nicd_best_pair_score(m, eps)
            assert result.max_correlation == oracle  # exact, not approximate
            achieved = ref.nicd_pair_score(
                m, result.achiever["f_table"], result.achiever["g_table"], eps)
            assert achieved == oracle
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f} s"


# ---------------------------------------------------------------- criterion 10


def test_criterion_10_misalignment_disagreement_law():
    trials = 100_000
    start = time.perf_counter()
    for index, theta in enumerate((math.pi / 8, math.pi / 4, math.pi / 2)):
        rotated = apply_y_rotation(prepare_bell(), 1, theta)
        rng = SplitMix64(derive_seed(1010, index))
        disagreements = 0
        for _ in range(trials):
            first = measure_qubit(rotated, 0, rng)
            second = measure_qubit(first.post_state, 1, rng)
            disagreements += first.bit != second.bit
        target = math.sin(theta / 2.0) ** 2
        tolerance = 4.0 * math.sqrt(target * (1.0 - target) / trials)
        assert abs(disagreements / trials - target) < tolerance, (
            f"theta={theta}: {disagreements / trials} vs {target} +- {tolerance}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"misalignment trials took {elapsed:.2f} s"


# ---------------------------------------------------------------- criterion 11


def test_criterion_11_reconciliation_success_and_leakage():
    trials = 1000
    noise = NoiseModel(flip_prob=0.01)
    start = time.perf_counter()
    successes = 0
    disclosed = 0
    for trial in range(trials):
        seed_t = derive_seed(1111, trial)
        rec = run_protocol(64, noise, seed_t)
        report, _, _ = reconcile(rec.alice_bits, rec.bob_bits, 0.01,
                                 derive_seed(seed_t, 1))
        successes += report.success
        disclosed += report.disclosed_bits
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"reconciliation batch took {elapsed:.2f} s"
    assert successes / trials >= 0.99
    rate = disclosed / (trials * 64)
    assert rate >= binary_entropy(0.01)
    assert rate >= 0.0808


# ---------------------------------------------------------------- criterion 12


CLI_MATRIX = [
    ["run", "--bits", "2", "--trials", "50", "--eps", "0.02", "--seed", "11"],
    ["run", "--bits", "1", "--trials", "6", "--agents", "3", "--seed", "4"],
    ["run", "--bits", "2", "--trials", "10", "--seed", "3", "--format", "csv"],
    ["attack", "ghz", "--bits", "3", "--trials", "30", "--eve-first", "--seed", "5"],
    ["attack", "w", "--bits", "2", "--trials", "40", "--seed", "6"],
    ["attack", "biseparable", "--bits", "2", "--trials", "40", "--seed", "7"],
    ["attack", "wolf", "--bits", "2", "--trials", "20", "--target-bit", "1",
     "--seed", "8"],
    ["bound", "--eps", "0.0001,0.01,0.5"],
    ["bound", "--grid", "0.001:0.5:6", "--format", "csv"],
    ["nicd", "--m", "2", "--eps", "0.1"],
    ["reconcile", "--bits", "64", "--eps", "0.01", "--trials", "25", "--seed", "9"],
]


def test_criterion_12_every_subcommand_is_byte_deterministic(capsys):
    for argv in CLI_MATRIX:
        assert cli.main(argv) == 0
        first = capsys.readouterr()
        assert cli.main(argv) == 0
        second = capsys.readouterr()
        assert first.out == second.out, f"non-deterministic output for {argv}"
        assert first.err == second.err == ""
        if "csv" not in argv:
            cli.validate_envelope(json.loads(first.out))
    # and once through a real process boundary
    argv = ["bound", "--eps", "0.01,0.25"]
    runs = [
        subprocess.run([sys.executable, "-m", "entangle_coord.cli", *argv],
                       capture_output=True, timeout=60)
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
