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
attack's order; each measurement takes one Born draw, or none when
`qsim.branches` finds one of its branches degenerate.  So a measurement's
draw sits at the stream position that counts the non-degenerate measurements
before it in the same trial, earlier slots included.

    attack                       order
    GHZ, Eve first               (0, 1, 2)
    GHZ, honest parties first    (1, 2, 0)
    W, biseparable               (0, 1, 2)
    Wolf                         (0, 1, 2), Wolf on qubit 2

Every slot walks one path through the same outcome tree (at most 1 + 2 + 4
states), so each call builds that tree once from `qsim.branches`, which
gives every node's two children and the p0 a draw is compared with, and
then computes every draw from its (trial seed, stream position) pair,
vectorised over trials.  The driver returns only the bits, one
(3, trials, n_bits) uint8 array, and every count behind a report's rates
(matching strings, joint outcomes, Eve's zeros, Wolf's matches, the slots
behind the GHZ separability verdict) is taken from that array.  The
report's transcripts are read-only views of it, `protocol.BitRows`, also
importable from here: a bit string is built only when one is asked for.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qsim
from .protocol import BitRows, result_layout, trial_chunks
from .seeding import uniforms

GHZ_ATTACK = "GHZ"
W_ATTACK = "W"
BISEPARABLE_ATTACK = "Biseparable"
WOLF_CNOT_ATTACK = "WolfCNOT"


@dataclass(frozen=True, kw_only=True)
class AttackReport:
    """Per-trial transcripts and aggregate rates for one attack scenario.

    The field order is the JSON key order; the attacker's series is
    `eve_bits` or `wolf_bits`, and the other one stays None.  Each series
    may be given as any sequence of bit strings and is kept as BitRows.
    """

    kind: str
    n_bits: int
    trials: int
    eve_bits: BitRows | None = None
    wolf_bits: BitRows | None = None
    alice_bits: BitRows
    bob_bits: BitRows
    eavesdrop_success_rate: float
    agreement_rate: float
    conditional_stats: dict

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.n_bits < 1:
            raise ValueError("n_bits must be at least 1")
        for rate in (self.eavesdrop_success_rate, self.agreement_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate {rate!r} outside [0, 1]")
        if (self.eve_bits is None) == (self.wolf_bits is None):
            raise ValueError("exactly one of eve_bits and wolf_bits must be given")
        attacker = "eve_bits" if self.wolf_bits is None else "wolf_bits"
        for name in (attacker, "alice_bits", "bob_bits"):
            series = getattr(self, name)
            if not isinstance(series, BitRows):
                try:
                    series = BitRows.from_strings(series, self.n_bits)
                except (TypeError, ValueError) as exc:  # TypeError: an item that is not a string
                    raise type(exc)(f"{name}: {exc}") from None
                object.__setattr__(self, name, series)
            rows, n_bits = series.bits.shape
            if rows != self.trials:
                raise ValueError(f"{name}: per-trial series must have one entry per trial")
            if n_bits != self.n_bits:
                raise ValueError(f"{name}: bit strings must have length n_bits")

    # BitRows go in as they are: cli.render writes them straight from the
    # bits; json.dumps needs default=list for them
    to_dict = result_layout


class _Level(NamedTuple):
    """One measurement step of an outcome tree; node i is the path's bits so far."""

    p0: np.ndarray  # (2**step,) float64: bit = draw >= p0; 2.0 or -1.0 where not born
    born: np.ndarray  # (2**step,) bool: both branches possible, so a draw decides


def _outcome_tree(state: qsim.PureState, order: tuple[int, int, int]) -> list[_Level]:
    # Every state a slot can pass through; qsim.branches gives each node's
    # two children, None where a branch is degenerate or no path leads.
    levels = []
    states = [state]
    for qubit in order:
        pairs = [qsim.branches(node, qubit) if node else (None, None) for node in states]
        born = [bool(zero and one) for zero, one in pairs]
        p0 = [zero.probability if zero and one else -1.0 if one else 2.0 for zero, one in pairs]
        levels.append(_Level(np.array(p0), np.array(born)))
        states = [None if out is None else out.post_state for pair in pairs for out in pair]
    return levels


def _three_holder_attack(
    state: qsim.PureState,
    order: tuple[int, int, int],
    n_bits: int,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Measure a fresh copy of `state` in `order` for every slot of every trial.

    Returns the bits as a (3, trials, n_bits) uint8 array indexed by qubit.
    Trial t reads the stream of derive_seed(seed, t).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    chunks = trial_chunks(seed, trials, n_bits)  # checks n_bits and the seed
    levels = _outcome_tree(state, order)
    bits = np.empty((3, trials, n_bits), np.uint8)
    for part, seeds in chunks:
        counters = np.zeros(len(seeds), np.uint64)  # each trial's next stream position
        out = bits[:, part]
        for slot in range(n_bits):
            node = np.zeros(len(seeds), np.intp)
            for level, qubit in zip(levels, order):
                draws = 0.0  # a level with no born node compares a constant
                if level.born.any():
                    draws = uniforms(seeds, counters)
                    counters += level.born[node]
                bit = draws >= level.p0[node]
                out[qubit, :, slot] = bit
                node = 2 * node + bit
    return bits


def _joint_counts(*holders: np.ndarray) -> list[int]:
    # How many slots saw each joint outcome of the listed holders' bits,
    # indexed by those bits read as a binary number, first holder highest.
    # Counted code by code: np.bincount would widen the uint8 codes to
    # 8-byte integers, the largest array an attack would allocate.
    code = np.zeros(holders[0].shape, np.uint8)
    for bits in holders:
        code = 2 * code + bits
    return [int(np.count_nonzero(code == k)) for k in range(1 << len(holders))]


def _same_strings(x: np.ndarray, y: np.ndarray) -> int:
    # trials whose (trials, n_bits) rows agree in every slot
    return int(np.count_nonzero((x == y).all(axis=1)))


def _report(
    kind: str,
    bits,
    conditional_stats: dict,
    attacker_field: str = "eve_bits",
) -> AttackReport:
    # `bits` lists the attacker's, Alice's and Bob's (trials, n_bits) arrays
    # in that order.
    x, a, b = bits
    trials, n_bits = a.shape
    attacker, alice, bob = map(BitRows, bits)
    return AttackReport(
        kind=kind,
        n_bits=n_bits,
        trials=trials,
        alice_bits=alice,
        bob_bits=bob,
        eavesdrop_success_rate=_same_strings(x, a) / trials,
        agreement_rate=_same_strings(a, b) / trials,
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
    ghz = qsim.prepare_ghz(3)
    bits = _three_holder_attack(ghz, order, n_bits, trials, seed)
    ones = int(np.count_nonzero(bits[order[0]]))
    # one verdict per state the first measurement leaves, weighted by its
    # slots; qsim.branches returns the outcomes the driver's tree cached
    outcomes = zip(qsim.branches(ghz, order[0]), (n_bits * trials - ones, ones))
    separable = sum(slots for outcome, slots in outcomes if slots and all(
        qsim.is_product(outcome.post_state, cut).separable for cut in cuts))
    return _report(GHZ_ATTACK, bits, {
        "eve_first": bool(eve_first),
        "remainder_separable_rate": separable / (n_bits * trials),
    })


def eve_w_attack(n_bits: int, trials: int, seed: int) -> AttackReport:
    """Eve distributes W triples instead; the split of outcomes betrays her.

    Measuring her qubit first, Eve sees 0 with probability 1/3 (then knows
    alice = bob = 1) and 1 with probability 2/3 (then alice and bob share an
    anti-correlated pair and always disagree), so the channel degrades into
    denial of service rather than eavesdropping.
    """
    bits = _three_holder_attack(qsim.prepare_w(), (0, 1, 2), n_bits, trials, seed)
    slots = n_bits * trials
    joint = _joint_counts(*bits)  # index 0b(eve alice bob)
    eve_zero = sum(joint[:4])
    eve_one = slots - eve_zero
    return _report(W_ATTACK, bits, {
        "eve_zero_rate": eve_zero / slots,
        "both_one_given_eve_zero": joint[0b011] / eve_zero if eve_zero else 0.0,
        "disagree_given_eve_one": (
            (joint[0b101] + joint[0b110]) / eve_one if eve_one else 0.0
        ),
    })


def biseparable_attack(n_bits: int, trials: int, seed: int) -> AttackReport:
    """Eve keeps the unentangled factor of a biseparable triple.

    Her qubit is the product factor |1>, so her outcomes carry zero
    correlation with the action number — and the residual anti-correlated
    pair breaks Alice-Bob agreement outright.
    """
    bits = _three_holder_attack(qsim.prepare_biseparable(), (0, 1, 2), n_bits, trials, seed)
    slots = n_bits * trials
    eve, alice, bob = bits
    joint = _joint_counts(alice, bob)
    return _report(BISEPARABLE_ATTACK, bits, {
        "eve_one_rate": int(np.count_nonzero(eve)) / slots,
        "alice_bob_joint": {f"{k:02b}": count / slots for k, count in enumerate(joint)},
        "correlation_eve_alice": _pearson(eve, alice),
    })


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    # The correlation of two 0/1 arrays from exact counts, with the
    # convention that a constant series correlates 0.0.
    n = x.size
    sx, sy = int(np.count_nonzero(x)), int(np.count_nonzero(y))
    vx, vy = n * sx - sx * sx, n * sy - sy * sy  # n**2 times each variance
    if not vx or not vy:
        return 0.0
    return (n * int(np.count_nonzero(x & y)) - sx * sy) / (vx * vy) ** 0.5


def build_wolf_triple(target_bit: int) -> qsim.PureState:
    """Bell pair extended by Wolf's ancilla through a CNOT off Bob's qubit."""
    if (target_bit := operator.index(target_bit)) not in (0, 1):  # a float is a TypeError
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
    matches = int(np.count_nonzero(wolf == alice))
    return _report(WOLF_CNOT_ATTACK, (wolf, alice, bob), {
        "target_bit": operator.index(target_bit),  # 1, not True
        "ghz_fidelity": qsim.state_fidelity(triple, qsim.prepare_ghz(3)),
        "wolf_matches_alice_rate": matches / slots,
        "wolf_complements_alice_rate": (slots - matches) / slots,
    }, attacker_field="wolf_bits")
