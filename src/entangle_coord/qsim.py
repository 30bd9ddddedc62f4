"""Dense statevector simulation for small multi-qubit registers.

Basis ordering is big-endian: qubit 0 is the leftmost factor of a ket, so on
three qubits basis index 3 is |011> (qubit 0 = 0, qubit 1 = 1, qubit 2 = 1).
All measurement is projective in the shared computational basis; collapse
renormalizes the surviving branch by the square root of its probability.

States are kept as explicit complex128 vectors of length 2**num_qubits.
Rotation and measurement have one loop kernel each for every register size:
they walk the basis indices in Python, and the Born probability p1 of a qubit
is summed over the indices where it is set in ascending basis-index order.
Each of them therefore costs O(2**n) Python steps.  Command-line runs go
through `protocol.run_batch` instead, which keeps only the two nonzero
amplitudes of each Bell or GHZ register and still reproduces these
operators' p1 bit for bit (see that module's docstring).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import numpy as np

Amplitude = complex

#: Construction refuses registers larger than this. Assign a higher value
#: deliberately if a bigger register is really intended.
QUBIT_CAP = 20

NORM_TOL = 1e-10            # |sum(|amp|^2) - 1| must stay below this
PRODUCT_PURITY_TOL = 1e-9   # purity within this of 1 counts as a product state
DEGENERATE_BRANCH = 1e-12   # branches below this probability are never sampled

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT3 = 1.0 / math.sqrt(3.0)


class PureState:
    """Normalized amplitude vector over the computational basis."""

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, num_qubits: int, amplitudes: Sequence[Amplitude]) -> None:
        if num_qubits < 1:
            raise ValueError("a register needs at least one qubit")
        if num_qubits > QUBIT_CAP:
            raise ValueError(
                f"num_qubits={num_qubits} exceeds QUBIT_CAP={QUBIT_CAP}"
            )
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
        self.num_qubits = num_qubits
        self.amplitudes = amps

    @classmethod
    def _trusted(cls, num_qubits: int, amps: np.ndarray) -> "PureState":
        # Fast path for operator results: `amps` is a fresh, already
        # normalized complex128 vector that no caller aliases.
        state = object.__new__(cls)
        state.num_qubits = num_qubits
        state.amplitudes = amps
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PureState(num_qubits={self.num_qubits})"


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


@lru_cache(maxsize=None)
def _index_split(num_qubits: int, qubit: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Basis indices with `qubit` clear / set, each ascending, so that the
    # k-th entries of the two tuples differ only in `qubit`.
    shift = num_qubits - 1 - qubit
    zeros, ones = [], []
    for i in range(1 << num_qubits):
        (ones if (i >> shift) & 1 else zeros).append(i)
    return tuple(zeros), tuple(ones)


def _branch_weight(amps: list, indices: tuple[int, ...]) -> float:
    # Sum of |amp|^2 over `indices`, accumulated in their (ascending) order.
    weight = 0.0
    for i in indices:
        a = amps[i]
        weight += a.real * a.real + a.imag * a.imag
    return weight


@lru_cache(maxsize=None)
def _cnot_source(num_qubits: int, control: int, target: int) -> np.ndarray:
    # source[i] = basis index whose amplitude lands at i after the CNOT
    cshift = num_qubits - 1 - control
    tmask = 1 << (num_qubits - 1 - target)
    idx = np.arange(1 << num_qubits)
    return np.where((idx >> cshift) & 1 == 1, idx ^ tmask, idx)


def basis_state(num_qubits: int, index: int) -> PureState:
    """|index> on `num_qubits` qubits (big-endian index)."""
    if num_qubits < 1 or num_qubits > QUBIT_CAP:
        raise ValueError(f"num_qubits must be in [1, {QUBIT_CAP}]")
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
    if num_qubits > QUBIT_CAP:
        raise ValueError(f"num_qubits={num_qubits} exceeds QUBIT_CAP={QUBIT_CAP}")
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
    n = state.num_qubits
    _check_qubit(n, qubit)
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    amps = state.amplitudes.tolist()
    out = [0j] * len(amps)
    for i0, i1 in zip(*_index_split(n, qubit)):
        a0 = amps[i0]
        a1 = amps[i1]
        out[i0] = c * a0 - s * a1
        out[i1] = s * a0 + c * a1
    return PureState._trusted(n, np.array(out, dtype=np.complex128))


def measurement_probabilities(state: PureState, qubit: int) -> tuple[float, float]:
    """Born probabilities (p0, p1) for one qubit in the shared basis."""
    n = state.num_qubits
    _check_qubit(n, qubit)
    amps = state.amplitudes.tolist()
    zeros, ones = _index_split(n, qubit)
    return _branch_weight(amps, zeros), _branch_weight(amps, ones)


def measure_qubit(state: PureState, qubit: int, rng) -> Outcome:
    """Sample `qubit` under the Born rule, collapse, renormalize.

    A branch whose probability is below DEGENERATE_BRANCH is treated as
    impossible and never sampled, so renormalization never divides by a
    vanishing weight.  `rng` needs only a `random()` method returning a
    uniform float in [0, 1).
    """
    n = state.num_qubits
    _check_qubit(n, qubit)
    amps = state.amplitudes.tolist()
    zeros, ones = _index_split(n, qubit)
    p1 = _branch_weight(amps, ones)
    p0 = 1.0 - p1
    if p1 < DEGENERATE_BRANCH:
        bit = 0
    elif p0 < DEGENERATE_BRANCH:
        bit = 1
    else:
        bit = 0 if rng.random() < p0 else 1
    prob = p1 if bit else p0
    scale = 1.0 / math.sqrt(prob)
    out = [0j] * len(amps)
    for i in ones if bit else zeros:
        out[i] = amps[i] * scale
    return Outcome(bit, prob, PureState._trusted(n, np.array(out, dtype=np.complex128)))


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
    if n > QUBIT_CAP:
        raise ValueError(f"combined register of {n} qubits exceeds QUBIT_CAP={QUBIT_CAP}")
    return PureState._trusted(n, np.kron(left.amplitudes, right.amplitudes))


def state_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 between equal-sized registers."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states must have the same number of qubits")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
