"""Correlated action selection over pre-shared entangled pairs.

Two agents hold opposite halves of n shared pairs.  At action time each
measures every held qubit in the common basis and reads off an n-bit string;
with clean channels both strings are identical, and their big-endian integer
value picks one strike out of 2**n.  No classical message is exchanged at
action time.

Strike identities are compartmentalized: each agent receives an action table
from its own issuing chain (carl issues to alice, dave to bob) mapping bit
values to opaque action tokens.  An agent's table is one fresh random 64-bit
base per run: slot i's tokens are base + 2i (bit 0) and base + 2i + 1 (bit 1),
mod 2**64, in 16 hex digits, and a two-party record lists the token of each
observed bit.  Tokens carry no strike information, so one captured table
plus the bits still leaves every strike label possible; only headquarters'
strike set resolves the selected number to a label (`StrikeSet.label`, the
one place that rule lives, placeholder labels included).

Convention: slot/pair index 0 contributes the most significant bit of the
action number.

Draw layout.  A run with seed s reads the SplitMix64 stream of s in this
order, and nothing else:

1. holders: one draw per slot (k = 2, the top bit of one draw gives the
   qubit alice holds), or per slot a Fisher-Yates shuffle of the k qubit
   positions (k > 2, `randrange` with rejection);
2. one token base per agent, in agent order, read only by a two-party
   record (`TrialBatch.records`, agent a's at `_holders(...) + a`);
3. per agent, in agent order, and per slot, in slot order: a Born draw only
   if neither branch is below qsim.DEGENERATE_BRANCH, then a flip draw if
   the flip probability is positive and the agent is not alice.

Draw j of the run is mix(s + (j + 1) * GAMMA) (see seeding), and trial t of
a batch has s = derive_seed(master, t), from `trial_chunks`.  Seeds, master
or trial, pass seeding.check_seed: an integer in [0, 2**64), never reduced
or truncated.  A batch's shape passes `trial_chunks`: n_bits >= 1, trials >= 0.
One engine follows this contract: it computes every draw from its (trial
seed, position) pair, vectorised over trials and slots, one chunk of trials
at a time.  `trial_batches` yields the chunks; `iter_runs`, `RunSummary`
(behind `run`) and `analysis.reconcile_trials` (behind `reconcile`) each
hold one at a time; and `run_protocol` and `run_multiagent` are its
one-trial views.  The test suite keeps a sequential reference that reads
the stream one draw at a time and measures dense states through the public
qsim operators, and checks the engine against it bit for bit.

Two branches per slot.  Each qubit is measured once, so a slot's Bell or
GHZ register only ever has two nonzero amplitudes, u where every unmeasured
qubit is 0 and v where every one is 1, and the engine keeps just these.
With (c, s) = (cos t/2, sin t/2), the dense p1 has two nonzero terms,
(s*u)**2 and (c*v)**2, or for the last qubit one, (c*v + s*u)**2; its other
terms add exact zeros and two floats sum alike in either order, so the
engine samples against qsim's p1.  The kept branch is renormalised by its
own weight, as qsim's collapse does.

Working set.  A chunk is computed in place in buffers allocated once per
chunk: u and v, two float64 work arrays and two bool masks, besides the two
arrays each seeding.uniforms call holds and the per-lane counters.  That is
at most 9 arrays of 8 bytes per slot, 576 KiB for a full BATCH_SLOTS chunk;
only the output bits, k bytes per slot, come on top, for every k.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import qsim
# perfbench/tracing.py counts measurements at StateRegistry.measure and also
# patches qsim.measure_qubit; binding the operators by name keeps it from
# counting a registry measurement twice.
from .qsim import DEGENERATE_BRANCH, PureState, apply_y_rotation, measure_qubit
from .seeding import check_seed, skip_randrange, stream_draws, uniforms

#: RunRecord strike value when the two bit strings disagree.
AMBIGUOUS = "ambiguous"

_CANONICAL_AGENTS = ("alice", "bob")


# ---------------------------------------------------------------------- types


def result_layout(result) -> dict:
    """A result's JSON object: its fields in declaration order, None ones left out.

    A tuple field becomes a list of its items, each as its own to_dict()
    where it has one; any other value is handed over as is, not copied.
    """
    names = result._fields if isinstance(result, tuple) else [f.name for f in fields(result)]
    layout = {}
    for name in names:
        value = getattr(result, name)
        if isinstance(value, tuple):
            value = [item.to_dict() if hasattr(item, "to_dict") else item for item in value]
        if value is not None:
            layout[name] = value
    return layout


@dataclass(frozen=True)
class StrikeSet:
    """The 2**n_bits strike labels, indexed by action number.

    With `labels` None the set stands for the placeholder labels
    "strike-<hex>", distinct by construction and never enumerated, so
    key-agreement regimes can run with n_bits far beyond any explicit tuple.
    """

    n_bits: int
    labels: Sequence[str] | None = None

    def __post_init__(self) -> None:
        if self.n_bits < 1:
            raise ValueError("n_bits must be at least 1")
        if self.labels is None:
            return
        if len(self.labels) != 1 << self.n_bits:
            raise ValueError(
                f"need {1 << self.n_bits} labels for {self.n_bits} bits, got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("strike labels must be distinct")

    def label(self, number: int) -> str:
        """The label of action number `number`."""
        if not 0 <= number < (1 << self.n_bits):
            raise ValueError(f"action number {number} out of range")
        if self.labels is None:
            return "strike-%0*x" % ((self.n_bits + 3) // 4, number)
        return self.labels[number]


@dataclass(frozen=True)
class NoiseModel:
    """Channel imperfections: classical flip on the designated carrier, per-side misalignment."""

    flip_prob: float = 0.0
    misalign_alice: float = 0.0
    misalign_bob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_prob <= 0.5:
            raise ValueError("flip_prob must lie in [0, 0.5]")
        if not (math.isfinite(self.misalign_alice) and math.isfinite(self.misalign_bob)):
            raise ValueError("misalignment angles must be finite")


class RunRecord(NamedTuple):
    """Everything observable from one two-party run."""

    seed: int
    alice_bits: str
    bob_bits: str
    alice_actions: tuple[str, ...]
    bob_actions: tuple[str, ...]
    alice_action_number: int
    bob_action_number: int
    agree: bool
    strike: str

    to_dict = result_layout


class MultiRunRecord(NamedTuple):
    """One run with k agents sharing k-qubit all-or-nothing states."""

    seed: int
    n_bits: int
    agents: tuple[str, ...]
    bits: tuple[str, ...]
    action_numbers: tuple[int, ...]
    pairwise_agree: tuple[tuple[int, int, bool], ...]
    all_agree: bool
    strike: str

    def to_dict(self) -> dict:
        # result_layout, with pairwise_agree as a map keyed "i-j"
        return {**result_layout(self),
                "pairwise_agree": {f"{i}-{j}": agree for i, j, agree in self.pairwise_agree}}


class StateRegistry:
    """Live shared states plus bookkeeping of which qubit slots are spent.

    No command reaches it: perfbench/tracing.py looks up its `measure` and
    `rotate` by name, and the test suite's sequential reference runs on it.
    """

    def __init__(self, states: Sequence[PureState]) -> None:
        self._states = list(states)
        self._sizes = [st.num_qubits for st in self._states]  # read by perfbench/tracing.py
        self._measured: set[tuple[int, int]] = set()

    def state(self, index: int) -> PureState:
        return self._states[index]

    def rotate(self, index: int, position: int, theta: float) -> None:
        self._states[index] = apply_y_rotation(self._states[index], position, theta)

    def measure(self, index: int, position: int, rng) -> int:
        slot = (index, position)
        if slot in self._measured:
            raise ValueError(f"slot {slot} was already measured")
        outcome = measure_qubit(self._states[index], position, rng)
        self._states[index] = outcome.post_state
        self._measured.add(slot)
        return outcome.bit


# ------------------------------------------------------------------ utilities


def _agent_names(k: int) -> tuple[str, ...]:
    return _CANONICAL_AGENTS[:k] + tuple(f"agent{i}" for i in range(2, k))


def _resolve_strikes(strikes: StrikeSet | None, n_bits: int) -> StrikeSet:
    if strikes is None:
        return StrikeSet(n_bits)
    if strikes.n_bits != n_bits:
        raise ValueError("strike set size does not match n_bits")
    return strikes


def _run_record(
    seed: int,
    alice_bits: str,
    bob_bits: str,
    alice_actions: tuple[str, ...],
    bob_actions: tuple[str, ...],
    strikes: StrikeSet,
) -> RunRecord:
    # The record of one two-party run.
    number_a = int(alice_bits, 2)
    agree = alice_bits == bob_bits
    return RunRecord(seed, alice_bits, bob_bits, alice_actions, bob_actions, number_a,
                     int(bob_bits, 2), agree, strikes.label(number_a) if agree else AMBIGUOUS)


def _multi_record(seed: int, bits: tuple[str, ...], strikes: StrikeSet) -> MultiRunRecord:
    # The record of one run with len(bits) agents.
    k = len(bits)
    numbers = tuple(int(b, 2) for b in bits)
    pairwise = tuple((i, j, bits[i] == bits[j]) for i in range(k) for j in range(i + 1, k))
    all_agree = all(flag for _, _, flag in pairwise)
    return MultiRunRecord(seed, len(bits[0]), _agent_names(k), bits, numbers, pairwise,
                          all_agree, strikes.label(numbers[0]) if all_agree else AMBIGUOUS)


# ------------------------------------------------------------- batch engine


#: The trial drivers process trials in chunks of at most this many slots
#: (trials x n_bits, at least one trial); the batch kernel's working set per
#: chunk is at most 9 x 8 bytes per slot (576 KiB), and only the k output
#: bytes per slot come on top, for every k.
BATCH_SLOTS = 1 << 13


def _chunks(trials: int, n_bits: int) -> Iterator[slice]:
    # Trials 0..trials-1 in chunks of at most BATCH_SLOTS slots each.
    lanes = max(1, BATCH_SLOTS // n_bits)
    for start in range(0, trials, lanes):
        yield slice(start, min(trials, start + lanes))


def trial_chunks(
    master_seed: int, trials: int, n_bits: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """(trials, their seeds) for each chunk of trials 0..trials-1 under `master_seed`.

    The shape (n_bits >= 1, trials >= 0) and the master seed are checked at
    the call.  Trial t's seed is derive_seed(master_seed, t), as uint64.  Each
    draw is addressed by (trial seed, stream position), so how the trials are
    split into chunks never changes an output; the chunks only bound memory.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    master_seed = check_seed(master_seed, "master seed")
    return ((part, stream_draws(master_seed, np.arange(part.start, part.stop, dtype=np.uint64)))
            for part in _chunks(trials, n_bits))


class TrialBatch(NamedTuple):
    """One chunk of trials of one master seed, as arrays indexed by lane."""

    seeds: np.ndarray  # (lanes,) uint64: each trial's derive_seed(master_seed, t)
    bits: np.ndarray  # (k, lanes, n_bits) uint8: agents in canonical order

    def records(self, strikes: StrikeSet | None = None) -> Iterator[RunRecord | MultiRunRecord]:
        """One record per lane: a RunRecord for two agents, else a MultiRunRecord.

        Each equals what run_protocol / run_multiagent return for the lane's
        seed, and what the sequential reference in the test suite
        (tests/sequential_reference.py) gives for it.  Agent a's table base
        (k = 2) is drawn here, at _holders + a: the draws _run_chunk skips.
        """
        k, _, n_bits = self.bits.shape
        strikes = _resolve_strikes(strikes, n_bits)
        strings = [bit_strings(agent_bits) for agent_bits in self.bits]
        seeds = self.seeds.tolist()
        if k == 2:
            bases = _holders(self.seeds, 2, n_bits)
            actions = [_action_tokens(stream_draws(self.seeds, bases + agent), agent_bits)
                       for agent, agent_bits in enumerate(self.bits)]
            for row in zip(seeds, *strings, *actions):
                yield _run_record(*row, strikes)
        else:
            for seed, *bits in zip(seeds, *strings):
                yield _multi_record(seed, tuple(bits), strikes)


def row_text(bits: np.ndarray, lead: bytes = b"", tail: bytes = b"") -> str:
    """The rows of a (..., n_bits) 0/1 uint8 array as "0"/"1" text, each framed by lead and tail.

    The one encoder of a bit row: bit i of a row is its character i.
    """
    n_bits = bits.shape[-1]
    rows = bits.reshape(-1, n_bits)
    start = len(lead)
    text = bytearray(lead + b"0" * n_bits + tail) * len(rows)
    lines = np.frombuffer(text, np.uint8).reshape(len(rows), start + n_bits + len(tail))
    lines[:, start : start + n_bits] += rows
    return text.decode("ascii")


def bit_strings(bits: np.ndarray) -> list[str]:
    """The rows of a (trials, n_bits) 0/1 uint8 array as bit strings."""
    n_bits = bits.shape[-1]
    text = row_text(bits)
    return [text[i : i + n_bits] for i in range(0, len(text), n_bits)]


class BitRows(Sequence):
    """The rows of a (rows, n_bits) 0/1 array as bit strings, e.g. one holder's transcripts.

    A read-only view of the array, not a copy; indexing and iteration build
    the strings on demand with row_text, and it equals a tuple of the same
    strings.  from_strings is the one parser of bit strings.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray) -> None:
        if bits.ndim != 2 or bits.dtype != np.uint8 or not bits.shape[1]:
            raise ValueError("bit rows must be a (rows, n_bits) uint8 array, n_bits >= 1")
        if bits.size and bits.max() > 1:
            raise ValueError("bit strings must hold only the characters 0 and 1")
        self.bits = bits.view()
        self.bits.flags.writeable = False

    @classmethod
    def from_strings(cls, strings: Sequence[str], n_bits: int) -> BitRows:
        """The rows of equal-length bit strings; ValueError for any other string."""
        if not all(map(n_bits.__eq__, map(len, strings))):
            raise ValueError("bit strings must have length n_bits")
        text = "".join(strings).encode("ascii", "replace")  # "?" for non-ASCII
        return cls(np.frombuffer(text, np.uint8).reshape(len(strings), n_bits) - 48)

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BitRows(self.bits[index])
        return row_text(self.bits[operator.index(index)])

    def __iter__(self):
        for part in _chunks(*self.bits.shape):
            yield from bit_strings(self.bits[part])

    def __eq__(self, other) -> bool:
        if isinstance(other, BitRows):
            return np.array_equal(self.bits, other.bits)
        if isinstance(other, tuple):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented


def action_number_counts(bits: np.ndarray) -> list[tuple[int, int]]:
    """(action number, count) over the rows of a (trials, n_bits) 0/1 array, by number."""
    n_bits = bits.shape[-1]
    rows, counts = np.unique(np.packbits(bits, axis=-1), axis=0, return_counts=True)
    pad = -n_bits % 8
    return [(int.from_bytes(row.tobytes(), "big") >> pad, count)
            for row, count in zip(rows, counts.tolist())]


def _action_tokens(bases: np.ndarray, bits: np.ndarray) -> list[tuple[str, ...]]:
    # Slot i of a table holds tokens base + 2i (bit 0) and base + 2i + 1.
    n_bits = bits.shape[-1]
    tokens = bases[:, None] + (2 * np.arange(n_bits, dtype=np.uint64) + bits)
    text = tokens.astype(">u8").tobytes().hex()
    flat = [text[i : i + 16] for i in range(0, len(text), 16)]
    return [tuple(flat[i : i + n_bits]) for i in range(0, len(flat), n_bits)]


def _holders(seeds: np.ndarray, k: int, n_bits: int) -> np.ndarray:
    # Each lane's stream position after the holder draws.  Every qubit of a
    # Bell or GHZ register sits on the same two branches, so which one an
    # agent holds never reaches a bit; only the number of draws does.
    if k == 2:  # one draw per slot
        return np.full(len(seeds), n_bits, np.uint64)
    counters = np.zeros(len(seeds), np.uint64)
    for _ in range(n_bits):  # Fisher-Yates per slot, in slot order
        for i in range(k - 1, 0, -1):
            skip_randrange(seeds, counters, i + 1)
    return counters


def _run_chunk(seeds, k, n_bits, noise) -> np.ndarray:
    # Every agent's bits (k, lanes, n_bits) of one chunk of trials, read from
    # past the holder and token base draws.  Its working set: u, v, x, y and
    # the two arrays of one `uniforms` call make 6 arrays of 8 bytes per
    # slot, and the per-lane counters and their update, slot_index and the
    # two bool masks at most 2.25 more.  Each buffer is rewritten in place
    # with the dense form's operations, on the same operands in the same
    # order, so every bit is the same.
    shape = (len(seeds), n_bits)
    bits = np.empty((k, *shape), np.uint8)
    counters = _holders(seeds, k, n_bits)  # each lane's next draw
    counters += k
    lane_seeds = seeds[:, None]
    # Each slot's two branch amplitudes (see the module docstring); both
    # start at the Bell state's 1/sqrt(2).
    u = np.full(shape, qsim.prepare_bell().amplitudes[0].real)
    v = u.copy()
    x = np.empty(shape)  # p1, then the draw positions, then the collapse scale
    y = np.empty(shape)  # a term of p1, then p0, then the collapse factors
    positions = x.view(np.uint64)
    low = np.empty(shape, bool)
    born = np.empty(shape, bool)
    slot_index = np.arange(n_bits, dtype=np.uint64)
    for agent in range(k):
        theta = noise.misalign_alice if agent == 0 else noise.misalign_bob
        flip = noise.flip_prob if agent else 0.0
        c = math.cos(theta / 2.0)
        s = math.sin(theta / 2.0)
        if agent < k - 1:  # the rotated qubit splits each branch: p1 = (s*u)**2 + (c*v)**2
            np.multiply(u, s, out=x)
            x *= x
            np.multiply(v, c, out=y)
            y *= y
            x += y
        else:  # one qubit left: u and v are its own two amplitudes
            np.multiply(v, c, out=x)
            np.multiply(u, s, out=y)
            x += y
            np.square(x, out=x)
        np.subtract(1.0, x, out=y)
        np.less(x, DEGENERATE_BRANCH, out=low)
        np.less(y, DEGENERATE_BRANCH, out=born)
        born |= low
        np.logical_not(born, out=born)
        # each slot's Born draw, then its flip draw: positions past the
        # draws of the slots before it
        np.cumsum(born, axis=1, dtype=np.uint64, out=positions)
        positions -= born
        if flip:
            positions += slot_index
        positions += counters[:, None]
        counters += born.sum(axis=1, dtype=np.uint64) + (n_bits if flip else 0)
        # bit = where(born, ~(draw < p0), ~low); low and born never overlap
        bit = bits[agent].view(bool)
        np.less(uniforms(lane_seeds, positions), y, out=bit)
        bit &= born
        bit |= low
        np.logical_not(bit, out=bit)
        if flip:  # low is spent: it holds the flips
            positions += born
            np.less(uniforms(lane_seeds, positions), flip, out=low)
        if agent < k - 1:
            # Collapse onto the observed branch, renormalised by its own
            # weight: with (a0, a1) = (c*u, s*u) and (b0, b1) = (-(s*v), c*v),
            # x = 1/sqrt(where(bit, p1, a0*a0 + b0*b0)), u = where(bit, a1, a0)
            # * x and v = where(bit, b1, b0) * x.  Picking the factor first
            # gives the same products; -(s*v) = (-s)*v and b0*b0 = (s*v)**2.
            _pick(x, bit, s, c)
            x *= u
            x *= x
            _pick(y, bit, c, s)
            y *= v
            y *= y
            x += y
            np.sqrt(x, out=x)
            np.divide(1.0, x, out=x)
            _pick(y, bit, s, c)
            u *= y
            u *= x
            _pick(y, bit, c, -s)
            v *= y
            v *= x
        if flip:
            bit ^= low
    return bits


def _pick(out: np.ndarray, bit: np.ndarray, one: float, zero: float) -> None:
    # out = where(bit, one, zero), in place.
    out.fill(zero)
    np.copyto(out, one, where=bit)


def _check_run(k_agents: int) -> None:
    if k_agents < 2:
        raise ValueError("need at least 2 agents")
    qsim.check_num_qubits(k_agents)


def trial_batches(
    k_agents: int, n_bits: int, noise: NoiseModel, trials: int, master_seed: int
) -> Iterator[TrialBatch]:
    """Trials 0..trials-1 under `master_seed`: one TrialBatch per trial_chunks chunk.

    Trial t is the run with trial seed derive_seed(master_seed, t) (see the
    module docstring).  The arguments are checked at the call, and each batch
    is computed when it is reached, so a caller that drops it holds one chunk.
    """
    _check_run(k_agents)
    chunks = trial_chunks(master_seed, trials, n_bits)
    return (TrialBatch(seeds, _run_chunk(seeds, k_agents, n_bits, noise)) for _, seeds in chunks)


@dataclass(frozen=True)
class RunSummary:
    """The aggregates `run` prints for trials 0..trials-1 under one master seed.

    The field order is the JSON key order.  The histogram maps each observed
    action number of alice, in decimal and in numeric order, to its count.
    `records` holds every trial's record when there are at most 10 trials,
    else None.
    """

    trials: int
    agreement_rate: float
    action_number_histogram: dict[str, int]
    per_bit_disagreement: list[float]
    records: tuple[RunRecord | MultiRunRecord, ...] | None = None

    @classmethod
    def of_trials(
        cls, k_agents: int, n_bits: int, noise: NoiseModel, trials: int, master_seed: int
    ) -> RunSummary:
        """The summary of trial_batches(k_agents, n_bits, noise, trials, master_seed).

        It is summed one batch at a time, so its memory does not grow with
        `trials`, and it equals the aggregates of all the trials at once.
        """
        if trials < 1:
            raise ValueError("trials must be at least 1")
        batches = trial_batches(k_agents, n_bits, noise, trials, master_seed)
        agree = 0
        disagree = np.zeros(n_bits, np.int64)
        # one count per action number when they are no more than a chunk's slots
        dense = 1 << n_bits <= BATCH_SLOTS
        if dense:
            histogram = np.zeros(1 << n_bits, np.int64)
            weights = 1 << np.arange(n_bits - 1, -1, -1)  # slot 0 is the top bit
        else:
            counts: dict[int, int] = {}
        records: list | None = [] if trials <= 10 else None
        for batch in batches:
            bits = batch.bits
            slot_agrees = (bits == bits[0]).all(axis=0)  # (lanes, n_bits)
            agree += int(slot_agrees.all(axis=1).sum())
            disagree += (~slot_agrees).sum(axis=0)
            if dense:
                histogram += np.bincount(bits[0] @ weights, minlength=len(histogram))
            else:
                for number, count in action_number_counts(bits[0]):
                    counts[number] = counts.get(number, 0) + count
            if records is not None:
                records.extend(batch.records())
            del batch, bits, slot_agrees  # so that no two chunks are held at once
        if dense:
            items = [(number, count) for number, count in enumerate(histogram.tolist()) if count]
        else:
            items = sorted(counts.items())
        return cls(
            trials,
            agree / trials,
            {str(number): count for number, count in items},
            [d / trials for d in disagree.tolist()],
            None if records is None else tuple(records),
        )

    to_dict = result_layout


def _one_trial(k_agents: int, n_bits: int, noise: NoiseModel, seed: int) -> TrialBatch:
    # The run with trial seed `seed`, as a batch of one lane (StrikeSet checked n_bits).
    _check_run(k_agents)
    seeds = np.array([check_seed(seed, "seed")], np.uint64)
    return TrialBatch(seeds, _run_chunk(seeds, k_agents, n_bits, noise))


def run_protocol(
    n_bits: int,
    noise: NoiseModel,
    seed: int,
    strikes: StrikeSet | None = None,
) -> RunRecord:
    """One complete two-party run; a deterministic function of its arguments.

    This is trial t of trial_batches(2, ...) when seed = derive_seed(master, t).
    """
    strikes = _resolve_strikes(strikes, n_bits)
    return next(_one_trial(2, n_bits, noise, seed).records(strikes))


def run_multiagent(
    k_agents: int,
    n_bits: int,
    noise: NoiseModel,
    seed: int,
    strikes: StrikeSet | None = None,
) -> MultiRunRecord:
    """One run with k agents sharing k-qubit all-or-nothing states per bit.

    With k_agents = 2 this is the run run_protocol gives for the same seed,
    so the bit strings and agreement reduce to the two-party record.
    """
    strikes = _resolve_strikes(strikes, n_bits)
    batch = _one_trial(k_agents, n_bits, noise, seed)
    return _multi_record(batch.seeds.tolist()[0], tuple(bit_strings(batch.bits[:, 0])), strikes)


def iter_runs(
    n_bits: int,
    noise: NoiseModel,
    trials: int,
    master_seed: int,
    strikes: StrikeSet | None = None,
) -> Iterator[RunRecord]:
    """Independent runs: trial t is run_protocol at derive_seed(master_seed, t), chunk by chunk."""
    for batch in trial_batches(2, n_bits, noise, trials, master_seed):
        yield from batch.records(strikes)
