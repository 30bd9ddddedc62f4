"""Attack scenarios against the entanglement-distribution step.

Each attack replays the two-party measurement phase with a third party wired
into every shared resource: Eve substitutes her own tripartite states for the
honest Bell pairs, while Wolf keeps the pairs intact and splices an ancilla
onto Bob's qubit with a CNOT.  Every attack produces an AttackReport whose
rates are plain per-trial frequencies, so they can be cross-checked against
Born-rule chains computed independently.

Qubit layout inside each trial's register:
  - Eve attacks (GHZ / W / biseparable): eve = 0, alice = 1, bob = 2.
  - Wolf's CNOT attack: alice = 0, bob = 1, wolf ancilla = 2 (appending the
    ancilla keeps the constructed triple bit-identical to prepare_ghz(3)
    when the ancilla starts in |0>).

Draw layout.  Trial t of an attack with seed s reads the SplitMix64 stream of
derive_seed(s, t), and nothing else.  Slot by slot, in slot order, a fresh
copy of the attack's 3-qubit state is measured one qubit at a time in the
attack's order; each measurement takes one Born draw, or none when one of its
branches is below qsim.DEGENERATE_BRANCH.

    attack                       order
    GHZ, Eve first               (0, 1, 2)
    GHZ, honest parties first    (1, 2, 0)
    W, biseparable               (0, 1, 2)
    Wolf                         (0, 1, 2), Wolf on qubit 2
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from . import qsim
from .seeding import SplitMix64, derive_seed

GHZ_ATTACK = "GHZ"
W_ATTACK = "W"
BISEPARABLE_ATTACK = "Biseparable"
WOLF_CNOT_ATTACK = "WolfCNOT"

_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class AttackReport:
    """Per-trial transcripts and aggregate rates for one attack scenario."""

    kind: str
    n_bits: int
    trials: int
    alice_bits: tuple[str, ...]
    bob_bits: tuple[str, ...]
    eavesdrop_success_rate: float
    agreement_rate: float
    conditional_stats: dict
    eve_bits: tuple[str, ...] | None = None
    wolf_bits: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.n_bits < 1:
            raise ValueError("n_bits must be at least 1")
        for rate in (self.eavesdrop_success_rate, self.agreement_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate {rate!r} outside [0, 1]")
        attacker = self.eve_bits if self.eve_bits is not None else self.wolf_bits
        for series in (self.alice_bits, self.bob_bits, attacker):
            if series is None or len(series) != self.trials:
                raise ValueError("per-trial series must have one entry per trial")
            if any(len(s) != self.n_bits for s in series):
                raise ValueError("bit strings must have length n_bits")

    def to_dict(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "n_bits": self.n_bits,
            "trials": self.trials,
        }
        if self.eve_bits is not None:
            out["eve_bits"] = list(self.eve_bits)
        if self.wolf_bits is not None:
            out["wolf_bits"] = list(self.wolf_bits)
        out["alice_bits"] = list(self.alice_bits)
        out["bob_bits"] = list(self.bob_bits)
        out["eavesdrop_success_rate"] = self.eavesdrop_success_rate
        out["agreement_rate"] = self.agreement_rate
        out["conditional_stats"] = dict(self.conditional_stats)
        return out


def _three_holder_attack(
    state: qsim.PureState,
    order: tuple[int, int, int],
    n_bits: int,
    trials: int,
    seed: int,
    after_first: Callable[[qsim.PureState], None] | None = None,
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """Measure a fresh copy of `state` in `order` for every slot of every trial.

    Returns the per-trial bit strings of qubits 0, 1 and 2.  Trial t reads the
    stream of derive_seed(seed, t); `after_first` is shown each slot's state
    right after its first measurement.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    measure = qsim.measure_qubit
    flat = (bytearray(), bytearray(), bytearray())  # each qubit's bits, slot after slot
    for trial in range(trials):
        rng = SplitMix64(derive_seed(seed, trial))
        for _ in range(n_bits):
            current = state
            for step, qubit in enumerate(order):
                bit, _, current = measure(current, qubit, rng)
                flat[qubit].append(bit)
                if step == 0 and after_first is not None:
                    after_first(current)
    texts = [bits.translate(_BIT_CHARS).decode("ascii") for bits in flat]
    rows = [tuple(text[i : i + n_bits] for i in range(0, len(text), n_bits)) for text in texts]
    return rows[0], rows[1], rows[2]


def _slots(*series: tuple[str, ...]) -> list[str]:
    # The listed holders' bits of every slot, trial by trial in slot order.
    return ["".join(bits) for bits in zip(*("".join(rows) for rows in series))]


def _report(
    kind: str,
    n_bits: int,
    attacker: tuple[str, ...],
    alice: tuple[str, ...],
    bob: tuple[str, ...],
    conditional_stats: dict,
    attacker_field: str = "eve_bits",
) -> AttackReport:
    trials = len(alice)
    return AttackReport(
        kind=kind,
        n_bits=n_bits,
        trials=trials,
        alice_bits=alice,
        bob_bits=bob,
        eavesdrop_success_rate=sum(x == a for x, a in zip(attacker, alice)) / trials,
        agreement_rate=sum(a == b for a, b in zip(alice, bob)) / trials,
        conditional_stats=conditional_stats,
        **{attacker_field: attacker},
    )


def eve_ghz_attack(n_bits: int, trials: int, eve_first: bool, seed: int) -> AttackReport:
    """Eve swaps each Bell pair for a GHZ triple and keeps one qubit.

    Because every GHZ measurement collapses the whole triple onto |000> or
    |111>, Eve reads the full action number whether she measures before or
    after the honest parties; the report also verifies that after the first
    measurement the two remaining holders share a fully separable state.
    """
    order = (0, 1, 2) if eve_first else (1, 2, 0)
    # each remaining holder must be left in a product with the other two
    # qubits, even though the remaining bits stay correlated
    cuts = [((q,), tuple(p for p in range(3) if p != q)) for q in order[1:]]
    separable: list[bool] = []

    def check_remainder(state: qsim.PureState) -> None:
        separable.append(all(qsim.is_product(state, cut).separable for cut in cuts))

    eve, alice, bob = _three_holder_attack(
        qsim.prepare_ghz(3), order, n_bits, trials, seed, check_remainder)
    return _report(GHZ_ATTACK, n_bits, eve, alice, bob, {
        "eve_first": bool(eve_first),
        "remainder_separable_rate": sum(separable) / len(separable),
    })


def eve_w_attack(n_bits: int, trials: int, seed: int) -> AttackReport:
    """Eve distributes W triples instead; the split of outcomes betrays her.

    Measuring her qubit first, Eve sees 0 with probability 1/3 (then knows
    alice = bob = 1) and 1 with probability 2/3 (then alice and bob share an
    anti-correlated pair and always disagree), so the channel degrades into
    denial of service rather than eavesdropping.
    """
    eve, alice, bob = _three_holder_attack(qsim.prepare_w(), (0, 1, 2), n_bits, trials, seed)
    slots = n_bits * trials
    joint = Counter(_slots(eve, alice, bob))
    eve_zero = "".join(eve).count("0")
    eve_one = slots - eve_zero
    return _report(W_ATTACK, n_bits, eve, alice, bob, {
        "eve_zero_rate": eve_zero / slots,
        "both_one_given_eve_zero": joint["011"] / eve_zero if eve_zero else 0.0,
        "disagree_given_eve_one": (
            (joint["101"] + joint["110"]) / eve_one if eve_one else 0.0
        ),
    })


def biseparable_attack(n_bits: int, trials: int, seed: int) -> AttackReport:
    """Eve keeps the unentangled factor of a biseparable triple.

    Her qubit is the product factor |1>, so her outcomes carry zero
    correlation with the action number — and the residual anti-correlated
    pair breaks Alice-Bob agreement outright.
    """
    eve, alice, bob = _three_holder_attack(
        qsim.prepare_biseparable(), (0, 1, 2), n_bits, trials, seed)
    slots = n_bits * trials
    joint = Counter(_slots(alice, bob))
    eve_flat = [int(c) for c in "".join(eve)]
    return _report(BISEPARABLE_ATTACK, n_bits, eve, alice, bob, {
        "eve_one_rate": sum(eve_flat) / slots,
        "alice_bob_joint": {k: joint[k] / slots for k in ("00", "01", "10", "11")},
        "correlation_eve_alice": _pearson(eve_flat, [int(c) for c in "".join(alice)]),
    })


def _pearson(xs: list[int], ys: list[int]) -> float:
    # correlation with the convention that a constant series correlates 0.0
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return cov / (vx * vy) ** 0.5


def build_wolf_triple(target_bit: int) -> qsim.PureState:
    """Bell pair extended by Wolf's ancilla through a CNOT off Bob's qubit."""
    if target_bit not in (0, 1):
        raise ValueError("target_bit must be 0 or 1")
    pair = qsim.prepare_bell()
    triple = qsim.tensor_product(pair, qsim.basis_state(1, target_bit))
    return qsim.apply_cnot(triple, control=1, target=2)


def wolf_cnot_attack(n_bits: int, trials: int, target_bit: int, seed: int) -> AttackReport:
    """Wolf CNOTs an ancilla off each of Bob's qubits during custody.

    With the ancilla prepared in |0> the construction is exactly a GHZ
    triple, so Wolf's ancilla measurements read out the action number while
    Alice and Bob still agree perfectly; with |1> he reads the complement.
    """
    triple = build_wolf_triple(target_bit)
    alice, bob, wolf = _three_holder_attack(triple, (0, 1, 2), n_bits, trials, seed)
    slots = n_bits * trials
    matches = sum(w == a for w, a in zip("".join(wolf), "".join(alice)))
    return _report(WOLF_CNOT_ATTACK, n_bits, wolf, alice, bob, {
        "target_bit": target_bit,
        "ghz_fidelity": qsim.state_fidelity(triple, qsim.prepare_ghz(3)),
        "wolf_matches_alice_rate": matches / slots,
        "wolf_complements_alice_rate": (slots - matches) / slots,
    }, attacker_field="wolf_bits")
