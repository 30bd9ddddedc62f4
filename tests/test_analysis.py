import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_coord import analysis, cli, protocol
from entangle_coord.analysis import (
    MAX_PASSES,
    BoundRow,
    NicdResult,
    ReconcileReport,
    binary_entropy,
    bound_table,
    nicd_max_correlation,
    reconcile,
    shannon_length_bound,
)
from entangle_coord.protocol import NoiseModel, run_protocol
from entangle_coord.seeding import derive_seed

from sequential_reference import loop_nicd_m4, loop_nicd_small, scalar_reconcile


# ------------------------------------------------------------------ entropy


def test_entropy_frozen_value():
    assert binary_entropy(0.01) == pytest.approx(0.08079313589591118, abs=1e-15)
    assert binary_entropy(0.01) == pytest.approx(0.0807931, abs=1e-6)


def test_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_entropy_rejects_non_probabilities():
    for bad in (-0.1, 1.0001, 2.0):
        with pytest.raises(ValueError):
            binary_entropy(bad)


def test_entropy_grid_monotone_and_symmetric():
    # 10^3 interior points: strictly increasing up to 1/2, mirror-symmetric
    grid = [i / 1000 for i in range(1, 1000)]
    values = [binary_entropy(e) for e in grid]
    for e, h in zip(grid, values):
        assert abs(h - binary_entropy(1.0 - e)) < 1e-12
    rising = [h for e, h in zip(grid, values) if e <= 0.5]
    for lo, hi in zip(rising, rising[1:]):
        assert lo < hi


# -------------------------------------------------------------- length bound


def test_bound_frozen_values():
    assert shannon_length_bound(1e-4).max_error_free_length == 678
    assert shannon_length_bound(0.01).max_error_free_length == 12


def test_bound_integer_raw_excluded():
    row = bound_table([0.5])[0]
    assert row.raw_bound == 1.0
    assert row.max_error_free_length == 0


def test_bound_zero_eps_reported_unbounded():
    with pytest.raises(ValueError, match="unbounded"):
        shannon_length_bound(0.0)


def test_bound_rejects_out_of_range():
    for bad in (-0.01, 0.51, 1.0):
        with pytest.raises(ValueError):
            shannon_length_bound(bad)


def test_bound_rejects_eps_whose_inverse_entropy_overflows():
    # 1/H(eps) is +inf below about 5.5e-312; the bound must refuse, not crash
    for tiny in (5e-312, 1e-320, 5e-324):
        with pytest.raises(ValueError, match="overflows"):
            shannon_length_bound(tiny)
    assert shannon_length_bound(1e-310).max_error_free_length > 1e306


def test_bound_consistency_on_log_grid():
    # floor definition pinned on a 10^3-point logarithmic grid:
    # max_len * H < 1 <= (max_len + 1) * H (within 1e-9)
    for eps in np.geomspace(1e-6, 0.5, 1000):
        row = shannon_length_bound(float(eps))
        assert row.max_error_free_length * row.entropy < 1.0
        assert 1.0 <= (row.max_error_free_length + 1) * row.entropy + 1e-9
        assert row.raw_bound == pytest.approx(1.0 / row.entropy)


def test_bound_row_serialization():
    row = bound_table([0.01])[0]
    d = row.to_dict()
    assert list(d) == ["eps", "entropy", "raw_bound", "max_error_free_length"]
    assert d["max_error_free_length"] == 12


def test_bound_row_validates_consistency():
    with pytest.raises(ValueError):
        BoundRow(eps=0.01, entropy=0.3, raw_bound=12.4, max_error_free_length=12)
    with pytest.raises(ValueError):
        BoundRow(
            eps=0.01,
            entropy=binary_entropy(0.01),
            raw_bound=12.377289096543269,
            max_error_free_length=14,
        )


# --------------------------------------------------------------------- NICD


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(0.0, 0.5) | st.sampled_from([0.0, 0.5, 5e-324, 0.1]))
def test_nicd_m4_matches_the_loop_reference(eps):
    assert nicd_max_correlation(4, eps).to_dict() == loop_nicd_m4(eps)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 3),
    eps=st.floats(0.0, 0.5) | st.sampled_from([0.0, 0.5, 5e-324, 0.1, 1e-9]),
)
def test_nicd_small_matches_the_loop_reference(m, eps):
    assert nicd_max_correlation(m, eps).to_dict() == loop_nicd_small(m, eps)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("eps", [0.0, 0.1, 0.27, 0.5, 5e-324])
def test_nicd_block_size_does_not_change_the_result(monkeypatch, m, eps):
    expected = loop_nicd_m4(eps) if m == 4 else loop_nicd_small(m, eps)
    for rows in (1, 7, 1 << 14):  # rows a block; 1 << 14 exceeds every table count
        monkeypatch.setattr(protocol, "BATCH_SLOTS", rows << m)
        assert nicd_max_correlation(m, eps).to_dict() == expected


def test_nicd_memory_is_one_block_not_the_whole_search():
    # the whole m = 4 search at once peaked at 3.8 MiB: 12 870 x 16 signs
    # and w, and their temporaries
    nicd_max_correlation(4, 0.1)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        nicd_max_correlation(4, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 20)


def test_nicd_raises_when_no_dictator_ties_the_maximum(monkeypatch, capsys):
    # parity at m = 2 is balanced but scores (1 - 2 eps)^2 < 1 - 2 eps, so the
    # search maximum has no tie among the tables offered as dictators
    monkeypatch.setattr(analysis, "_dictator_table", lambda m, position: 0b0110)
    with pytest.raises(RuntimeError):
        nicd_max_correlation(2, 0.1)
    assert cli.main(["nicd", "--m", "2", "--eps", "0.1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("internal error:")


def test_nicd_frozen_values():
    assert nicd_max_correlation(1, 0.1).max_correlation == pytest.approx(0.8, abs=1e-9)
    assert nicd_max_correlation(3, 0.1).max_correlation == pytest.approx(0.8, abs=1e-9)
    assert nicd_max_correlation(2, 0.5).max_correlation == pytest.approx(0.0, abs=1e-12)
    assert nicd_max_correlation(1, 0.0).max_correlation == 1.0


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_nicd_dictators_attain_ceiling(m):
    result = nicd_max_correlation(m, 0.1)
    assert result.max_correlation == pytest.approx(0.8, abs=1e-9)
    assert "dictator" in result.achiever["description"]
    assert result.achiever["f_table"] == result.achiever["g_table"]


def test_nicd_search_size_counts_examined_pairs():
    assert nicd_max_correlation(1, 0.1).search_size == 16
    assert nicd_max_correlation(2, 0.1).search_size == 256
    assert nicd_max_correlation(3, 0.1).search_size == 65536
    assert nicd_max_correlation(4, 0.1).search_size == 65536


def test_nicd_monotone_in_noise():
    for m in (1, 2, 3):
        values = [nicd_max_correlation(m, e).max_correlation for e in
                  (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)]
        for hi, lo in zip(values, values[1:]):
            assert hi >= lo - 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("eps", [0.05, 0.25, 0.5])
def test_nicd_result_invariants(m, eps):
    r = nicd_max_correlation(m, eps)
    assert abs(r.max_correlation - (2.0 * r.max_agreement - 1.0)) <= 1e-12
    assert r.max_correlation <= 1.0 - 2.0 * eps + 1e-9


def test_nicd_rejects_bad_arguments():
    for m in (0, 5, -1):
        with pytest.raises(ValueError):
            nicd_max_correlation(m, 0.1)
    for eps in (-0.01, 0.50001, 1.0):
        with pytest.raises(ValueError):
            nicd_max_correlation(2, eps)


def test_nicd_result_validates_fields():
    ach = {"f_table": 2, "g_table": 2, "description": "x"}
    with pytest.raises(ValueError):
        NicdResult(m=1, eps=0.1, max_agreement=0.9, max_correlation=0.75,
                   achiever=ach, search_size=16)
    with pytest.raises(ValueError):
        NicdResult(m=1, eps=0.25, max_agreement=0.9, max_correlation=0.8,
                   achiever=ach, search_size=16)


def test_nicd_serialization():
    d = nicd_max_correlation(2, 0.1).to_dict()
    assert list(d) == ["m", "eps", "max_agreement", "max_correlation",
                       "achiever", "search_size"]
    assert set(d["achiever"]) == {"f_table", "g_table", "description"}


# ----------------------------------------------------------- reconciliation


def test_reconcile_identical_strings_trace():
    # n=16, eps_hint=0.1: first pass 3 blocks of <=7, permuted pass 2 blocks
    # of <=14, no mismatches anywhere: exactly 5 parities over 2 passes
    s = "1010110100101101"
    report, a_out, b_out = reconcile(s, s, 0.1, seed=7)
    assert report.to_dict() == {
        "n": 16,
        "errors_before": 0,
        "errors_after": 0,
        "disclosed_bits": 5,
        "passes": 2,
        "success": True,
    }
    assert a_out == s and b_out == s


def test_reconcile_single_error_trace():
    # n=8, eps_hint=0.09: one block per pass; the first parity mismatches and
    # bisection reveals 3 more, the permuted pass confirms with 1
    alice = "10110100"
    bob = "10110110"
    report, a_out, b_out = reconcile(alice, bob, 0.09, seed=11)
    assert report.errors_before == 1
    assert report.errors_after == 0
    assert report.disclosed_bits == 5
    assert report.passes == 2
    assert report.success
    assert a_out == alice
    assert b_out == alice


def test_reconcile_validates_arguments():
    with pytest.raises(ValueError):
        reconcile("0101", "010", 0.1, 0)
    with pytest.raises(ValueError):
        reconcile("", "", 0.1, 0)
    with pytest.raises(ValueError):
        reconcile("01x1", "0101", 0.1, 0)
    for bad in (0.0, -0.1, 0.6):
        with pytest.raises(ValueError):
            reconcile("0101", "0101", bad, 0)
    with pytest.raises(ValueError):
        reconcile("0101", "0101", 0.1, -3)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        analysis.reconcile_trials(8, 0.1, 0, 1)


def test_reconcile_accepts_hints_whose_block_size_overflows():
    # 0.73 / 1e-320 is inf: the first block is the whole string
    report, _, b_out = reconcile("0101", "0111", 1e-320, 3)
    assert (report.success, b_out) == (True, "0101")
    assert reconcile("0101", "0111", 1e-320, 3) == reconcile("0101", "0111", 1e-300, 3)


@st.composite
def string_pairs(draw):
    alice = draw(st.text("01", min_size=1, max_size=300))
    if draw(st.booleans()):
        bob = draw(st.text("01", min_size=len(alice), max_size=len(alice)))
    else:
        flips = draw(st.sets(st.integers(0, len(alice) - 1)))
        bob = "".join("10"[int(c)] if i in flips else c for i, c in enumerate(alice))
    return alice, bob


@settings(max_examples=200, deadline=None)
@given(
    pair=string_pairs(),
    eps_hint=st.floats(0.0, 0.5, exclude_min=True),
    seed=st.integers(0, 2**64 - 1),
)
def test_reconcile_never_adds_errors_and_discloses_at_least_them(pair, eps_hint, seed):
    alice, bob = pair
    report, a_out, b_out = reconcile(alice, bob, eps_hint, seed)
    assert report.errors_before == sum(a != b for a, b in zip(alice, bob))
    assert report.errors_after <= report.errors_before
    assert report.disclosed_bits >= report.errors_before
    assert a_out == alice
    assert len(b_out) == len(alice)
    assert sum(a != b for a, b in zip(a_out, b_out)) == report.errors_after


@st.composite
def sparse_pairs(draw):
    alice = draw(st.text("01", min_size=1, max_size=300))
    flips = draw(st.sets(st.integers(0, len(alice) - 1), max_size=4))
    return alice, "".join("10"[int(c)] if i in flips else c for i, c in enumerate(alice))


@settings(max_examples=300, deadline=None)
@given(
    pair=string_pairs() | sparse_pairs(),
    eps_hint=st.floats(0.0, 0.5, exclude_min=True) | st.sampled_from([5e-324, 1e-320, 2e-308]),
    seed=st.integers(0, 2**64 - 1),
)
def test_reconcile_equals_the_scalar_reference(pair, eps_hint, seed):
    assert reconcile(*pair, eps_hint, seed) == scalar_reconcile(*pair, eps_hint, seed)


def test_reconcile_soundness_random_instances():
    rng = random.Random(20240817)
    for trial in range(300):
        n = rng.randrange(4, 96)
        alice = "".join(rng.choice("01") for _ in range(n))
        bob = "".join(
            c if rng.random() > 0.08 else "01"[c == "0"] for c in alice
        )
        report, a_out, b_out = reconcile(alice, bob, 0.08, seed=trial)
        assert a_out == alice  # alice's string is the reference, never edited
        assert report.errors_before == sum(x != y for x, y in zip(alice, bob))
        assert report.errors_after == sum(x != y for x, y in zip(alice, b_out))
        assert report.errors_after <= report.errors_before
        assert report.success == (b_out == alice)
        assert report.success == (report.errors_after == 0)
        assert report.passes <= MAX_PASSES


def test_reconcile_deterministic_in_seed():
    alice = "1101001110100101" * 4
    bob = alice[:7] + "1" + alice[8:31] + "0" + alice[32:]
    first = reconcile(alice, bob, 0.05, seed=99)
    second = reconcile(alice, bob, 0.05, seed=99)
    assert first == second


def test_reconcile_disclosure_grows_with_errors():
    # mean parities revealed must climb with the number of planted errors
    rng = random.Random(5)
    n = 64
    means = []
    for k in (0, 2, 5, 9):
        total = 0
        for trial in range(250):
            alice = "".join(rng.choice("01") for _ in range(n))
            flips = rng.sample(range(n), k)
            bob = "".join(
                "01"[c == "0"] if i in flips else c for i, c in enumerate(alice)
            )
            report, _, _ = reconcile(alice, bob, 0.05, seed=trial)
            total += report.disclosed_bits
        means.append(total / 250)
    assert means == sorted(means)
    assert means[-1] > means[0]


def test_reconcile_leak_exceeds_entropy_rate():
    # parity leakage per bit stays above H(eps) on protocol-generated strings
    noise = NoiseModel(flip_prob=0.01)
    total = 0
    successes = 0
    trials = 400
    for trial in range(trials):
        seed_t = derive_seed(31337, trial)
        rec = run_protocol(64, noise, seed_t)
        report, _, _ = reconcile(rec.alice_bits, rec.bob_bits, 0.01,
                                 derive_seed(seed_t, 1))
        total += report.disclosed_bits
        successes += report.success
    assert successes / trials >= 0.99
    assert total / (trials * 64) > binary_entropy(0.01)


def test_reconcile_even_error_stalemate_reported_honestly():
    # two errors in a length-2 string defeat every parity size available, so
    # the loop exhausts its pass budget and reports failure without raising
    report, a_out, b_out = reconcile("01", "10", 0.5, seed=1)
    assert not report.success
    assert report.errors_after == report.errors_before == 2
    assert report.passes == MAX_PASSES
    assert b_out == "10"


def test_reconcile_report_validates_fields():
    with pytest.raises(ValueError):
        ReconcileReport(n=8, errors_before=1, errors_after=2,
                        disclosed_bits=4, passes=2, success=False)
    with pytest.raises(ValueError):
        ReconcileReport(n=8, errors_before=1, errors_after=0,
                        disclosed_bits=4, passes=2, success=False)


def test_reconcile_report_serialization():
    report, _, _ = reconcile("0101", "0101", 0.25, seed=3)
    d = report.to_dict()
    assert list(d) == ["n", "errors_before", "errors_after", "disclosed_bits",
                       "passes", "success"]
    assert d["success"] is True
