import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entangle_coord import qsim
from entangle_coord.qsim import (
    BRANCH_CACHE_DEPTH,
    BRANCH_CACHE_QUBITS,
    DEGENERATE_BRANCH,
    NORM_TOL,
    QUBIT_CAP,
    Outcome,
    PureState,
    apply_cnot,
    apply_y_rotation,
    basis_state,
    branches,
    is_product,
    measure_qubit,
    measurement_probabilities,
    prepare_bell,
    prepare_biseparable,
    prepare_ghz,
    prepare_w,
    state_fidelity,
    tensor_product,
)
from entangle_coord.seeding import SplitMix64

from sequential_reference import FixedRng, loop_measure, loop_probabilities, loop_rotation

INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT3 = 1.0 / math.sqrt(3.0)


def random_state(num_qubits, rng):
    v = rng.standard_normal(1 << num_qubits) + 1j * rng.standard_normal(1 << num_qubits)
    v /= np.linalg.norm(v)
    return PureState(num_qubits, v)


# ---------------------------------------------------------------- conventions

def test_basis_index_is_big_endian():
    # index 3 on three qubits is |011>: qubit 0 clear, qubits 1 and 2 set
    s = basis_state(3, 3)
    assert measurement_probabilities(s, 0) == (1.0, 0.0)
    assert measurement_probabilities(s, 1) == (0.0, 1.0)
    assert measurement_probabilities(s, 2) == (0.0, 1.0)


def test_bell_amplitudes_exact():
    assert np.array_equal(
        prepare_bell().amplitudes,
        np.array([INV_SQRT2, 0, 0, INV_SQRT2], dtype=np.complex128),
    )


def test_ghz_two_qubits_equals_bell():
    assert np.array_equal(prepare_ghz(2).amplitudes, prepare_bell().amplitudes)


def test_ghz_amplitude_layout():
    s = prepare_ghz(4)
    expected = np.zeros(16, dtype=np.complex128)
    expected[0] = expected[15] = INV_SQRT2
    assert np.array_equal(s.amplitudes, expected)


def test_w_state_occupies_weight_two_indices():
    # (|011> + |101> + |110>)/sqrt(3) => indices 3, 5, 6 only
    s = prepare_w()
    expected = np.zeros(8, dtype=np.complex128)
    expected[[3, 5, 6]] = INV_SQRT3
    assert np.allclose(s.amplitudes, expected, atol=1e-15)


def test_biseparable_state_layout():
    # (|101> + |110>)/sqrt(2) => indices 5, 6
    s = prepare_biseparable()
    expected = np.zeros(8, dtype=np.complex128)
    expected[[5, 6]] = INV_SQRT2
    assert np.allclose(s.amplitudes, expected, atol=1e-15)


# ---------------------------------------------------------------- validation

def test_purestate_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(1, [1.0, 1.0])


def test_purestate_rejects_wrong_length():
    with pytest.raises(ValueError):
        PureState(2, [1.0, 0.0])


def test_purestate_rejects_nonfinite():
    with pytest.raises(ValueError):
        PureState(1, [float("nan"), 0.0])


def test_qubit_cap_enforced():
    with pytest.raises(ValueError):
        basis_state(qsim.QUBIT_CAP + 1, 0)
    with pytest.raises(ValueError):
        prepare_ghz(qsim.QUBIT_CAP + 1)
    with pytest.raises(ValueError, match="^a register needs at least one qubit$"):
        basis_state(0, 0)
    with pytest.raises(ValueError, match="needs at least 2 qubits"):
        prepare_ghz(1)
    half = qsim.QUBIT_CAP // 2
    with pytest.raises(ValueError, match=f"^num_qubits={qsim.QUBIT_CAP + 1} exceeds QUBIT_CAP="):
        tensor_product(prepare_ghz(half), prepare_ghz(qsim.QUBIT_CAP + 1 - half))


def test_qubit_cap_is_configurable(monkeypatch):
    monkeypatch.setattr(qsim, "QUBIT_CAP", 4)
    with pytest.raises(ValueError):
        prepare_ghz(5)
    assert prepare_ghz(4).num_qubits == 4


def test_basis_state_index_range():
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(2, -1)


def test_cnot_requires_distinct_qubits():
    with pytest.raises(ValueError):
        apply_cnot(prepare_bell(), 1, 1)


def test_measure_rejects_bad_qubit():
    with pytest.raises(ValueError):
        measure_qubit(prepare_bell(), 2, FixedRng(0.5))


# ---------------------------------------------------------------- gates

def test_cnot_on_extended_bell_builds_ghz():
    # (|00>+|11>)/sqrt(2) (x) |0>, CNOT control 1 target 2 -> (|000>+|111>)/sqrt(2)
    s = tensor_product(prepare_bell(), basis_state(1, 0))
    s = apply_cnot(s, 1, 2)
    assert np.allclose(s.amplitudes, prepare_ghz(3).amplitudes, atol=1e-15)


def test_cnot_is_involution():
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        s = random_state(n, rng)
        back = apply_cnot(apply_cnot(s, 0, n - 1), 0, n - 1)
        assert np.allclose(back.amplitudes, s.amplitudes, atol=1e-12)


def test_y_rotation_pi_flips_basis():
    s = apply_y_rotation(basis_state(1, 0), 0, math.pi)
    assert np.allclose(s.amplitudes, [0.0, 1.0], atol=1e-15)


def test_y_rotation_inverse():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4, 5):
        s = random_state(n, rng)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        q = int(rng.integers(0, n))
        back = apply_y_rotation(apply_y_rotation(s, q, theta), q, -theta)
        assert np.max(np.abs(back.amplitudes - s.amplitudes)) < 1e-10


def test_scalar_and_vector_rotation_paths_agree():
    rng = np.random.default_rng(3)
    small = random_state(3, rng)
    big = tensor_product(small, basis_state(1, 0))
    theta = 0.7321
    rot_small = apply_y_rotation(small, 1, theta)
    rot_big = apply_y_rotation(big, 1, theta)
    assert np.allclose(
        tensor_product(rot_small, basis_state(1, 0)).amplitudes,
        rot_big.amplitudes,
        atol=1e-12,
    )


def test_norm_preserved_through_random_circuits():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        s = random_state(n, rng)
        for _ in range(8):
            if rng.random() < 0.5:
                q = int(rng.integers(0, n))
                s = apply_y_rotation(s, q, rng.uniform(-3, 3))
            else:
                c, t = rng.choice(n, size=2, replace=False)
                s = apply_cnot(s, int(c), int(t))
        norm_sq = float(np.sum(np.abs(s.amplitudes) ** 2))
        assert abs(norm_sq - 1.0) < 1e-10


# ---------------------------------------------------------------- measurement

def test_w_measurement_probabilities():
    p0, p1 = measurement_probabilities(prepare_w(), 0)
    assert abs(p0 - 1.0 / 3.0) < 1e-12
    assert abs(p1 - 2.0 / 3.0) < 1e-12


def test_w_collapse_to_one_leaves_anticorrelated_pair():
    out = measure_qubit(prepare_w(), 0, FixedRng(0.9))
    assert out.bit == 1
    assert abs(out.probability - 2.0 / 3.0) < 1e-12
    assert np.allclose(
        out.post_state.amplitudes, prepare_biseparable().amplitudes, atol=1e-12
    )


def test_w_collapse_to_zero_leaves_both_ones():
    out = measure_qubit(prepare_w(), 0, FixedRng(0.1))
    assert out.bit == 0
    assert np.allclose(out.post_state.amplitudes, basis_state(3, 3).amplitudes, atol=1e-12)


def test_ghz_collapse_to_one_gives_all_ones():
    out = measure_qubit(prepare_ghz(3), 0, FixedRng(0.9))
    assert out.bit == 1
    assert np.allclose(out.post_state.amplitudes, basis_state(3, 7).amplitudes, atol=1e-12)


def test_outcome_probability_matches_born():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        s = random_state(n, rng)
        q = int(rng.integers(0, n))
        p0, p1 = measurement_probabilities(s, q)
        out = measure_qubit(s, q, rng)
        assert abs(out.probability - (p1 if out.bit else p0)) < 1e-10


def test_collapse_renormalizes():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        s = random_state(n, rng)
        out = measure_qubit(s, int(rng.integers(0, n)), rng)
        norm_sq = float(np.sum(np.abs(out.post_state.amplitudes) ** 2))
        assert abs(norm_sq - 1.0) < 1e-10


def _norm_sq(state):
    amps = state.amplitudes
    return float(np.sum(amps.real * amps.real + amps.imag * amps.imag))


@pytest.mark.parametrize("norm_sq", [1.0, 1.0 + 1e-12])
def test_collapse_onto_a_tiny_branch_keeps_unit_norm(norm_sq):
    # Bit 0 weighs 1e-9 and a uniform of 0.0 selects it.  Renormalizing it by
    # the sampled 1 - p1 instead of its own weight left |norm^2 - 1| at 8e-8,
    # and at 1e-3 for an input norm^2 of 1 + 1e-12 (which PureState accepts).
    p0 = 1e-9
    state = PureState(1, [math.sqrt(p0 * norm_sq), math.sqrt((1.0 - p0) * norm_sq)])
    out = measure_qubit(state, 0, FixedRng(0.0))
    assert out.bit == 0
    assert out.probability == 1.0 - measurement_probabilities(state, 0)[1]
    assert abs(_norm_sq(out.post_state) - 1.0) <= 4 * np.finfo(float).eps


@st.composite
def _random_states(draw):
    n = draw(st.integers(1, 6))
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    re = np.array(draw(st.lists(parts, min_size=1 << n, max_size=1 << n)))
    im = np.array(draw(st.lists(parts, min_size=1 << n, max_size=1 << n)))
    v = re + 1j * im
    norm = np.linalg.norm(v)
    assume(norm > 1e-3)
    return PureState(n, v / norm)


@settings(max_examples=200, deadline=None)
@given(
    state=_random_states(),
    qubit_pick=st.integers(0, 5),
    theta=st.floats(-2 * math.pi, 2 * math.pi),
    seed=st.integers(0, 2**64 - 1),
)
def test_operators_keep_norm_and_report_the_sampled_p1(state, qubit_pick, theta, seed):
    n = state.num_qubits
    q = qubit_pick % n
    rotated = apply_y_rotation(state, q, theta)
    assert abs(_norm_sq(rotated) - 1.0) < NORM_TOL
    # an idle qubit appended after the rotation changes nothing
    assert np.array_equal(
        tensor_product(rotated, basis_state(1, 0)).amplitudes,
        apply_y_rotation(tensor_product(state, basis_state(1, 0)), q, theta).amplitudes,
    )
    _, p1 = measurement_probabilities(rotated, q)
    out = measure_qubit(rotated, q, SplitMix64(seed))
    assert out.probability == (p1 if out.bit else 1.0 - p1)
    assert abs(_norm_sq(out.post_state) - 1.0) < NORM_TOL


@pytest.mark.parametrize(
    "make_state,qubit",
    [
        (prepare_bell, 0),
        (lambda: prepare_ghz(3), 0),
        (prepare_w, 0),
        (prepare_w, 1),
        (prepare_biseparable, 1),
    ],
)
def test_born_consistency_sampling(make_state, qubit):
    n_samples = 100_000
    state = make_state()
    p0, _ = measurement_probabilities(state, qubit)
    rng = np.random.default_rng(20240811)
    ones = 0
    for _ in range(n_samples):
        ones += measure_qubit(state, qubit, rng).bit
    freq1 = ones / n_samples
    sigma = math.sqrt(max(p0 * (1 - p0), 1e-12) / n_samples)
    assert abs(freq1 - (1 - p0)) <= 4 * sigma + 1e-12


def test_degenerate_branch_never_sampled():
    # qubit 0 of the biseparable state is |1> exactly: the zero branch must
    # never appear even though the rng would pick it
    out = measure_qubit(prepare_biseparable(), 0, FixedRng(0.0))
    assert out.bit == 1
    assert out.probability == pytest.approx(1.0, abs=1e-12)


def test_bell_pair_perfect_correlation():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        first = measure_qubit(prepare_bell(), 0, rng)
        second = measure_qubit(first.post_state, 1, rng)
        assert first.bit == second.bit


@pytest.mark.parametrize("k", [3, 4, 5])
def test_ghz_correlation_survives_collapse(k):
    rng = np.random.default_rng(k)
    for _ in range(200):
        out = measure_qubit(prepare_ghz(k), 0, rng)
        state = out.post_state
        # remainder is fully separable yet every later bit matches the first
        for q in range(1, k):
            check = is_product(state, ([q], [i for i in range(k) if i != q]))
            assert check.separable
        for q in range(1, k):
            nxt = measure_qubit(state, q, rng)
            assert nxt.bit == out.bit
            state = nxt.post_state


def test_misalignment_law():
    # one side of a shared pair rotated by theta: disagreement rate sin^2(theta/2)
    theta = math.pi / 5
    expected = math.sin(theta / 2) ** 2
    rng = np.random.default_rng(271828)
    n_samples = 20_000
    disagree = 0
    for _ in range(n_samples):
        s = apply_y_rotation(prepare_bell(), 0, theta)
        a = measure_qubit(s, 0, rng)
        b = measure_qubit(a.post_state, 1, rng)
        disagree += a.bit != b.bit
    sigma = math.sqrt(expected * (1 - expected) / n_samples)
    assert abs(disagree / n_samples - expected) <= 4 * sigma


# ---------------------------------------------------------------- separability

def test_bell_is_not_product():
    check = is_product(prepare_bell(), ([0], [1]))
    assert not check.separable
    assert abs(check.purity - 0.5) < 1e-9


def test_biseparable_cut_off_first_qubit():
    check = is_product(prepare_biseparable(), ([0], [1, 2]))
    assert check.separable
    assert abs(check.purity - 1.0) < 1e-12


def test_biseparable_inner_pair_is_entangled():
    check = is_product(prepare_biseparable(), ([0, 1], [2]))
    assert not check.separable


def test_w_reduced_purity():
    # reduced state of qubit 0 is diag(1/3, 2/3): purity 5/9
    check = is_product(prepare_w(), ([0], [1, 2]))
    assert not check.separable
    assert abs(check.purity - 5.0 / 9.0) < 1e-12


def test_product_basis_state_is_product():
    check = is_product(basis_state(4, 9), ([0, 2], [1, 3]))
    assert check.separable
    assert abs(check.purity - 1.0) < 1e-12


def test_is_product_validates_cut():
    s = prepare_ghz(3)
    with pytest.raises(ValueError):
        is_product(s, ([], [0, 1, 2]))
    with pytest.raises(ValueError):
        is_product(s, ([0, 1], [1, 2]))
    with pytest.raises(ValueError):
        is_product(s, ([0], [1]))
    with pytest.raises(ValueError, match="cut must be a pair"):
        is_product(s, 5)


# ---------------------------------------------------------------- composition

def test_tensor_product_ordering():
    # left register supplies the leading (most significant) qubits
    s = tensor_product(basis_state(1, 0), basis_state(1, 1))
    assert np.array_equal(s.amplitudes, basis_state(2, 1).amplitudes)
    s = tensor_product(basis_state(1, 1), basis_state(2, 0))
    assert np.array_equal(s.amplitudes, basis_state(3, 4).amplitudes)


def test_state_fidelity():
    assert state_fidelity(prepare_bell(), prepare_bell()) == pytest.approx(1.0)
    assert state_fidelity(prepare_bell(), basis_state(2, 0)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        state_fidelity(prepare_bell(), basis_state(3, 0))


def test_measure_returns_outcome_type():
    out = measure_qubit(prepare_bell(), 0, np.random.default_rng(1))
    assert isinstance(out, Outcome)
    assert out.bit in (0, 1)
    assert isinstance(out.post_state, PureState)


# ------------------------------------- the numpy kernels against the loop ones


_PINNED_WEIGHTS = [DEGENERATE_BRANCH * f for f in (0.999, 1.0, 1.001)]


@st.composite
def _oracle_cases(draw):
    n = draw(st.integers(1, 8))
    qubit = draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    v[rng.random(1 << n) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
    weight = draw(st.none() | st.sampled_from(
        _PINNED_WEIGHTS + [1.0 - w for w in _PINNED_WEIGHTS]))
    halves = v.reshape(1 << qubit, 2, -1)
    if weight is not None:
        # pin the set branch's weight next to the degeneracy threshold
        for bit, target in ((0, 1.0 - weight), (1, weight)):
            if not halves[:, bit].any():
                halves[0, bit, 0] = 1.0
            halves[:, bit] *= math.sqrt(target) / np.linalg.norm(halves[:, bit])
    elif not v.any():
        v[0] = 1.0
    theta = draw(st.sampled_from([0.0, -0.0, math.pi, -math.pi, 2 * math.pi])
                 | st.floats(-7.0, 7.0, exclude_min=True, exclude_max=True))
    u = draw(st.sampled_from([0.0, 1.0 - 2.0**-53]) | st.floats(0.0, 1.0, exclude_max=True))
    return PureState(n, v / np.linalg.norm(v)), qubit, theta, u


def _same_outcome(out, expected):
    bit, prob, amps = expected
    return (out.bit, out.probability, out.post_state.amplitudes.tobytes()) == (
        bit, prob, amps.tobytes())


@settings(max_examples=400, deadline=None)
@given(case=_oracle_cases())
def test_numpy_kernels_equal_the_loop_kernels_bit_for_bit(case):
    state, qubit, theta, u = case
    rotated = apply_y_rotation(state, qubit, theta)
    assert rotated.amplitudes.tobytes() == loop_rotation(state, qubit, theta).tobytes()
    for current in (state, rotated):
        assert measurement_probabilities(current, qubit) == loop_probabilities(current, qubit)
        out = measure_qubit(current, qubit, FixedRng(u))
        assert _same_outcome(out, loop_measure(current, qubit, u))


def test_widest_register_probabilities_equal_the_loop_kernel():
    state = prepare_ghz(QUBIT_CAP)
    assert measurement_probabilities(state, QUBIT_CAP // 2) == loop_probabilities(
        state, QUBIT_CAP // 2)


# -------------------------------------------------- read-only, cached branches

@pytest.mark.parametrize("make", [
    lambda: PureState(1, [INV_SQRT2, INV_SQRT2]),
    lambda: PureState(2, np.array([0.5, 0.5, 0.5, 0.5])),
    prepare_bell,
    lambda: prepare_ghz(4),
    prepare_w,
    prepare_biseparable,
    lambda: basis_state(2, 1),
    lambda: apply_y_rotation(prepare_bell(), 0, 0.3),
    lambda: apply_cnot(prepare_ghz(3), 0, 2),
    lambda: tensor_product(prepare_bell(), basis_state(1, 0)),
    lambda: measure_qubit(prepare_w(), 0, FixedRng(0.5)).post_state,
    lambda: branches(prepare_w(), 0)[0].post_state,
    lambda: branches(apply_y_rotation(prepare_ghz(3), 1, 0.7), 2)[1].post_state,
])
def test_amplitudes_are_read_only(make):
    state = make()
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
    # the flag cannot be set back either, which would let a write stale the
    # outcomes `branches` keeps for the state
    with pytest.raises(ValueError):
        state.amplitudes.flags.writeable = True
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_branches_are_kept_up_to_the_cache_cap():
    state = prepare_ghz(BRANCH_CACHE_QUBITS)
    first, second = branches(state, 1), branches(state, 1)
    assert all(a.post_state is b.post_state for a, b in zip(first, second))
    assert measure_qubit(state, 1, FixedRng(0.9)) is first[1]


def test_branches_of_the_widest_register_are_not_kept():
    state = prepare_ghz(QUBIT_CAP)
    first, second = branches(state, 0), branches(state, 0)
    assert not any(a.post_state is b.post_state for a, b in zip(first, second))
    assert all(a.post_state.amplitudes.tobytes() == b.post_state.amplitudes.tobytes()
               for a, b in zip(first, second))


def test_outcomes_are_kept_two_collapses_deep():
    # a long-lived state measured in many orders must not grow a deep tree
    state = prepare_ghz(4)
    depth = [state]
    for qubit in range(BRANCH_CACHE_DEPTH):
        depth.append(branches(depth[-1], qubit)[0].post_state)
    for qubit, current in enumerate(depth[:-1]):
        assert branches(current, qubit)[0] is branches(current, qubit)[0]
    deepest = depth[-1]
    assert branches(deepest, 3)[0] is not branches(deepest, 3)[0]
    # any other operator starts a new tree
    rotated = apply_y_rotation(deepest, 3, 0.5)
    assert branches(rotated, 3)[0] is branches(rotated, 3)[0]


def test_degenerate_branch_is_none():
    zero, one = branches(prepare_biseparable(), 0)
    assert zero is None
    assert one.bit == 1


@pytest.mark.parametrize("qubit", [-1, 3])
def test_out_of_range_qubit_raises_alike_on_every_call(qubit):
    state = prepare_w()
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            branches(state, qubit)
        messages.append(str(info.value))
    assert messages == [f"qubit {qubit} out of range for 3-qubit register"] * 2
