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
branches is below qsim.DEGENERATE_BRANCH.  So a measurement's draw sits at
the stream position that counts the non-degenerate measurements before it in
the same trial, earlier slots included.

    attack                       order
    GHZ, Eve first               (0, 1, 2)
    GHZ, honest parties first    (1, 2, 0)
    W, biseparable               (0, 1, 2)
    Wolf                         (0, 1, 2), Wolf on qubit 2

Every slot walks one path through the same outcome tree (at most 1 + 2 + 4
states), so each call builds that tree once with qsim's public operators and
then computes every draw from its (trial seed, stream position) pair,
vectorised over trials.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qsim
from .protocol import bit_strings
from .seeding import _MASK64, _UNIT, stream_draws, uniforms

GHZ_ATTACK = "GHZ"
W_ATTACK = "W"
BISEPARABLE_ATTACK = "Biseparable"
WOLF_CNOT_ATTACK = "WolfCNOT"

#: The attacks process trials in chunks of at most this many, which bounds
#: their working memory.
ATTACK_CHUNK = 1 << 12


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


class _Steer:
    """Stand-in rng whose every uniform is `value`, to pick a branch."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


# A sampled node has p0 in [1e-12, 1 - 1e-12]: u = 0.0 lies below it and the
# largest uniform SplitMix64.random returns does not, so these steer
# measure_qubit onto bit 0 and bit 1.
_STEER = (_Steer(0.0), _Steer(1.0 - _UNIT))


class _Level(NamedTuple):
    """One measurement step of an outcome tree; node i is the path's bits so far."""

    states: list  # (2**step,) PureState, or None where no path leads
    p0: np.ndarray  # (2**step,) float64: 1 - p1, the threshold u < p0 picks bit 0 by
    born: np.ndarray  # (2**step,) bool: neither branch below DEGENERATE_BRANCH
    forced: np.ndarray  # (2**step,) bool: the bit of a node that is not born


def _outcome_tree(state: qsim.PureState, order: tuple[int, int, int]) -> list[_Level]:
    # Every state a slot can pass through, built with the public operators;
    # the post-states of the last measurement are never read, so not built.
    levels = []
    states = [state]
    for step, qubit in enumerate(order):
        p0 = np.zeros(len(states))
        born = np.zeros(len(states), bool)
        forced = np.zeros(len(states), bool)
        children = [None] * (2 * len(states))
        for node, current in enumerate(states):
            if current is None:
                continue
            p1 = qsim.measurement_probabilities(current, qubit)[1]
            p0[node] = 1.0 - p1
            born[node] = not (p1 < qsim.DEGENERATE_BRANCH or p0[node] < qsim.DEGENERATE_BRANCH)
            forced[node] = p1 >= qsim.DEGENERATE_BRANCH
            if step < len(order) - 1:
                for bit in (0, 1) if born[node] else (int(forced[node]),):
                    outcome = qsim.measure_qubit(current, qubit, _STEER[bit])
                    children[2 * node + bit] = outcome.post_state
        levels.append(_Level(states, p0, born, forced))
        states = children
    return levels


def _three_holder_attack(
    state: qsim.PureState,
    order: tuple[int, int, int],
    n_bits: int,
    trials: int,
    seed: int,
) -> tuple[tuple[tuple[str, ...], ...], dict[int, tuple[qsim.PureState, int]]]:
    """Measure a fresh copy of `state` in `order` for every slot of every trial.

    Returns the per-trial bit strings of qubits 0, 1 and 2, and, for each
    possible outcome of the first measurement, the state it leaves and how
    many slots saw it.  Trial t reads the stream of derive_seed(seed, t).
    """
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= seed <= _MASK64:
        raise ValueError("master seed must lie in [0, 2**64)")
    levels = _outcome_tree(state, order)
    bits = np.empty((3, trials, n_bits), np.uint8)
    for start in range(0, trials, ATTACK_CHUNK):
        seeds = stream_draws(seed, np.arange(start, min(trials, start + ATTACK_CHUNK),
                                             dtype=np.uint64))
        counters = np.zeros(len(seeds), np.uint64)  # each trial's next stream position
        out = bits[:, start : start + len(seeds)]
        for slot in range(n_bits):
            node = np.zeros(len(seeds), np.intp)
            for level, qubit in zip(levels, order):
                bit = level.forced[node]
                if level.born.any():
                    born = level.born[node]
                    bit = np.where(born, ~(uniforms(seeds, counters) < level.p0[node]), bit)
                    counters += born
                out[qubit, :, slot] = bit
                node = 2 * node + bit
    ones = int(np.count_nonzero(bits[order[0]]))
    counts = (n_bits * trials - ones, ones)
    first = {bit: (post, counts[bit]) for bit, post in enumerate(levels[1].states)
             if post is not None}
    return tuple(tuple(bit_strings(qubit_bits)) for qubit_bits in bits), first


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
    (eve, alice, bob), first = _three_holder_attack(
        qsim.prepare_ghz(3), order, n_bits, trials, seed)
    # one verdict per state the first measurement leaves, weighted by its slots
    separable = sum(
        slots for state, slots in first.values()
        if slots and all(qsim.is_product(state, cut).separable for cut in cuts)
    )
    return _report(GHZ_ATTACK, n_bits, eve, alice, bob, {
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
    (eve, alice, bob), _ = _three_holder_attack(
        qsim.prepare_w(), (0, 1, 2), n_bits, trials, seed)
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
    (eve, alice, bob), _ = _three_holder_attack(
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
    (alice, bob, wolf), _ = _three_holder_attack(triple, (0, 1, 2), n_bits, trials, seed)
    slots = n_bits * trials
    matches = sum(w == a for w, a in zip("".join(wolf), "".join(alice)))
    return _report(WOLF_CNOT_ATTACK, n_bits, wolf, alice, bob, {
        "target_bit": target_bit,
        "ghz_fidelity": qsim.state_fidelity(triple, qsim.prepare_ghz(3)),
        "wolf_matches_alice_rate": matches / slots,
        "wolf_complements_alice_rate": (slots - matches) / slots,
    }, attacker_field="wolf_bits")
