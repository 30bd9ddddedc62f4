"""Dense statevector simulation for small multi-qubit registers.

Basis ordering is big-endian: qubit 0 is the leftmost factor of a ket, so on
three qubits basis index 3 is |011> (qubit 0 = 0, qubit 1 = 1, qubit 2 = 1).
All measurement is projective in the shared computational basis; collapse
renormalizes the surviving branch by the square root of its own weight.

States are kept as explicit complex128 vectors of length 2**num_qubits,
read-only once built: every operator returns a new state.  Rotation and
measurement see the vector as a (2**q, 2, 2**(n-q-1)) array, whose [:, 0]
and [:, 1] halves are the basis indices with qubit q clear and set, each in
ascending index order.  The Born probability p1 is a `cumsum` of |a|**2 over
the set half, a sequential sum in ascending basis-index order.  `branches`
computes both outcomes of measuring a qubit, and a state of up to
BRANCH_CACHE_QUBITS qubits keeps them (down to BRANCH_CACHE_DEPTH
collapses), so measuring the same state again costs one lookup.
Command-line runs go through `protocol`'s batch engine instead, which keeps
only the two nonzero amplitudes of each Bell or GHZ register and still
reproduces these operators' p1 bit for bit (see that module's docstring).
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

Amplitude = complex

#: Construction refuses registers larger than this. Assign a higher value
#: deliberately if a bigger register is really intended.
QUBIT_CAP = 20

NORM_TOL = 1e-10            # |sum(|amp|^2) - 1| must stay below this
PRODUCT_PURITY_TOL = 1e-9   # purity within this of 1 counts as a product state
DEGENERATE_BRANCH = 1e-12   # branches below this probability are never sampled

#: States of at most this many qubits keep the outcomes `branches` computes;
#: above it, two post-states of up to 16 MB each are not worth pinning.
BRANCH_CACHE_QUBITS = 10
#: Post-states this many successive collapses below a state that any other
#: operation built keep nothing, so the outcomes kept below any state form
#: a tree at most two measurements deep (2n + 4n**2 states), however many
#: orders of measurement a long-lived state sees.
BRANCH_CACHE_DEPTH = 2

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT3 = 1.0 / math.sqrt(3.0)


def check_num_qubits(num_qubits: int) -> None:
    """Raise unless a register of `num_qubits` qubits is allowed: 1..QUBIT_CAP."""
    if num_qubits < 1:
        raise ValueError("a register needs at least one qubit")
    if num_qubits > QUBIT_CAP:
        raise ValueError(f"num_qubits={num_qubits} exceeds QUBIT_CAP={QUBIT_CAP}")


class PureState:
    """Normalized amplitude vector over the computational basis."""

    __slots__ = ("num_qubits", "amplitudes", "_collapses", "_branches")

    def __init__(self, num_qubits: int, amplitudes: Sequence[Amplitude]) -> None:
        check_num_qubits(num_qubits)
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.shape != (1 << num_qubits,):
            raise ValueError(
                f"expected {1 << num_qubits} amplitudes, got shape {amps.shape}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm_sq = float(np.sum(amps.real * amps.real + amps.imag * amps.imag))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"squared norm {norm_sq!r} differs from 1 beyond {NORM_TOL}")
        self._fill(num_qubits, amps)

    @classmethod
    def _trusted(cls, num_qubits: int, amps: np.ndarray, collapses: int = 0) -> "PureState":
        # Fast path for operator results: `amps` is a fresh, already
        # normalized complex128 vector that no caller aliases.
        state = object.__new__(cls)
        state._fill(num_qubits, amps, collapses)
        return state

    def _fill(self, num_qubits: int, amps: np.ndarray, collapses: int = 0) -> None:
        # Read-only amplitudes are what keep the `branches` cache valid.  Every
        # array down to the one that owns the memory is made read-only and
        # only a view is exposed: numpy refuses to make a view writeable again
        # while its base is not, but lets an owner be made writeable.
        array = amps
        while isinstance(array, np.ndarray):
            array.flags.writeable = False
            array = array.base
        self.num_qubits = num_qubits
        self.amplitudes = amps.view()
        self._collapses = collapses
        keep = num_qubits <= BRANCH_CACHE_QUBITS and collapses < BRANCH_CACHE_DEPTH
        self._branches = {} if keep else None


class Outcome(NamedTuple):
    """One projective measurement: observed bit, its Born probability, collapsed state."""

    bit: int
    probability: float
    post_state: PureState


class ProductCheck(NamedTuple):
    """Separability verdict for a bipartition, with the reduced purity."""

    separable: bool
    purity: float


def _check_qubit(num_qubits: int, qubit: int) -> None:
    if not 0 <= qubit < num_qubits:
        raise ValueError(f"qubit {qubit} out of range for {num_qubits}-qubit register")


def _halves(state: PureState, qubit: int) -> np.ndarray:
    # (2**q, 2, 2**(n-q-1)) view: [:, 0] holds the indices with `qubit`
    # clear, [:, 1] those with it set, each in ascending index order.
    _check_qubit(state.num_qubits, qubit)
    return state.amplitudes.reshape(1 << qubit, 2, -1)


def _weight(half: np.ndarray) -> float:
    # Sum of |amp|^2 accumulated one term at a time in ascending index order.
    return float(np.cumsum(half.real * half.real + half.imag * half.imag)[-1])


def _cnot_source(num_qubits: int, control: int, target: int) -> np.ndarray:
    # source[i] = basis index whose amplitude lands at i after the CNOT
    cshift = num_qubits - 1 - control
    tmask = 1 << (num_qubits - 1 - target)
    idx = np.arange(1 << num_qubits)
    return np.where((idx >> cshift) & 1 == 1, idx ^ tmask, idx)


def basis_state(num_qubits: int, index: int) -> PureState:
    """|index> on `num_qubits` qubits (big-endian index)."""
    check_num_qubits(num_qubits)
    if not 0 <= index < (1 << num_qubits):
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return PureState._trusted(num_qubits, amps)


def prepare_bell() -> PureState:
    """(|00> + |11>)/sqrt(2)."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = amps[3] = _INV_SQRT2
    return PureState._trusted(2, amps)


def prepare_ghz(num_qubits: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on `num_qubits` >= 2 qubits."""
    if num_qubits < 2:
        raise ValueError("a shared all-or-nothing state needs at least 2 qubits")
    check_num_qubits(num_qubits)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[0] = amps[-1] = _INV_SQRT2
    return PureState._trusted(num_qubits, amps)


def prepare_w() -> PureState:
    """Hamming-weight-two triple (|011> + |101> + |110>)/sqrt(3)."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[3] = amps[5] = amps[6] = _INV_SQRT3
    return PureState._trusted(3, amps)


def prepare_biseparable() -> PureState:
    """|1> on qubit 0, tensored with the anticorrelated pair (|01> + |10>)/sqrt(2)."""
    amps = np.zeros(8, dtype=np.complex128)
    amps[5] = amps[6] = _INV_SQRT2
    return PureState._trusted(3, amps)


def apply_cnot(state: PureState, control: int, target: int) -> PureState:
    """Basis permutation: flip `target` on every index where `control` is 1."""
    n = state.num_qubits
    _check_qubit(n, control)
    _check_qubit(n, target)
    if control == target:
        raise ValueError("control and target must be distinct qubits")
    return PureState._trusted(n, state.amplitudes[_cnot_source(n, control, target)])


def apply_y_rotation(state: PureState, qubit: int, theta: float) -> PureState:
    """Real rotation [[cos t/2, -sin t/2], [sin t/2, cos t/2]] on one qubit."""
    view = _halves(state, qubit)
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    a0, a1 = view[:, 0], view[:, 1]
    out = np.empty_like(view)
    out[:, 0] = c * a0 - s * a1
    out[:, 1] = s * a0 + c * a1
    return PureState._trusted(state.num_qubits, out.reshape(-1))


def measurement_probabilities(state: PureState, qubit: int) -> tuple[float, float]:
    """Born probabilities (p0, p1) for one qubit in the shared basis."""
    view = _halves(state, qubit)
    return _weight(view[:, 0]), _weight(view[:, 1])


def branches(state: PureState, qubit: int) -> tuple[Outcome | None, Outcome | None]:
    """Both outcomes of measuring `qubit`, indexed by bit.

    Bit 1 has the Born probability p1 and bit 0 has p0 = 1 - p1; each post-
    state is its branch renormalized by the square root of the branch's own
    weight (for bit 1, p1 itself).
    A branch whose probability is below DEGENERATE_BRANCH is None.  States of
    at most BRANCH_CACHE_QUBITS qubits keep the result, except those reached
    by BRANCH_CACHE_DEPTH collapses.
    """
    cache = state._branches
    pair = None if cache is None else cache.get(qubit)
    if pair is None:
        view = _halves(state, qubit)
        p1 = _weight(view[:, 1])
        pair = tuple(
            None if prob < DEGENERATE_BRANCH
            else Outcome(bit, prob, _collapse(state, view, bit))
            for bit, prob in ((0, 1.0 - p1), (1, p1))
        )
        if cache is not None:
            cache[qubit] = pair
    return pair


def _collapse(state: PureState, view: np.ndarray, bit: int) -> PureState:
    # Divide by the kept half's own weight: the sampling threshold 1 - p1
    # would scale the input's norm error up by 1/p0.
    kept = view[:, bit]
    out = np.zeros_like(view)
    out[:, bit] = kept * (1.0 / math.sqrt(_weight(kept)))
    return PureState._trusted(state.num_qubits, out.reshape(-1), state._collapses + 1)


def measure_qubit(state: PureState, qubit: int, rng) -> Outcome:
    """Sample `qubit` under the Born rule, collapse, renormalize.

    Returns one of the outcomes `branches` gives, bit 0 when one uniform
    draw is below p0.  A branch whose probability is below DEGENERATE_BRANCH
    is treated as impossible and never sampled, and no draw is taken, so
    renormalization never divides by a vanishing weight.  `rng` needs only a
    `random()` method returning a uniform float in [0, 1).
    """
    zero, one = branches(state, qubit)
    if zero is None or one is None:
        return zero or one
    return zero if rng.random() < zero.probability else one


def is_product(state: PureState, cut: tuple[Iterable[int], Iterable[int]]) -> ProductCheck:
    """Check whether `state` factorizes across a bipartition of its qubits.

    `cut` is a pair of disjoint qubit-index collections that together cover
    every qubit.  The reduced density matrix of the smaller side is formed by
    partial trace and the state counts as a product when its purity Tr(rho^2)
    is within PRODUCT_PURITY_TOL of 1.
    """
    n = state.num_qubits
    try:
        raw_a, raw_b = cut
    except (TypeError, ValueError) as exc:
        raise ValueError("cut must be a pair of qubit-index collections") from exc
    side_a = sorted({int(q) for q in raw_a})
    side_b = sorted({int(q) for q in raw_b})
    if not side_a or not side_b:
        raise ValueError("both sides of the cut must be non-empty")
    if set(side_a) & set(side_b):
        raise ValueError("cut sides must be disjoint")
    if sorted(side_a + side_b) != list(range(n)):
        raise ValueError("cut must cover every qubit exactly once")
    keep, rest = (side_a, side_b) if len(side_a) <= len(side_b) else (side_b, side_a)
    tens = state.amplitudes.reshape((2,) * n)
    mat = np.transpose(tens, axes=keep + rest).reshape(1 << len(keep), -1)
    rho = mat @ mat.conj().T
    purity = float(np.sum(rho.real * rho.real + rho.imag * rho.imag))
    return ProductCheck(purity >= 1.0 - PRODUCT_PURITY_TOL, purity)


def tensor_product(left: PureState, right: PureState) -> PureState:
    """Concatenate registers; `left`'s qubits become the leading positions."""
    n = left.num_qubits + right.num_qubits
    check_num_qubits(n)
    return PureState._trusted(n, np.kron(left.amplitudes, right.amplitudes))


def state_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 between equal-sized registers.

    Each part of <a|b> is one math.fsum over the elementwise products, so the
    value does not depend on which BLAS kernel numpy loaded.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("states must have the same number of qubits")
    x, y = a.amplitudes, b.amplitudes
    re = math.fsum((x.real * y.real + x.imag * y.imag).tolist())
    im = math.fsum((x.real * y.imag - x.imag * y.real).tolist())
    return re * re + im * im
