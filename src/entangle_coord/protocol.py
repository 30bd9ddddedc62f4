"""Correlated action selection over pre-shared entangled pairs.

Two agents hold opposite halves of n shared pairs.  At action time each
measures every held qubit in the common basis and reads off an n-bit string;
with clean channels both strings are identical, and their big-endian integer
value picks one strike out of 2**n.  No classical message is exchanged at
action time.

Strike identities are compartmentalized: each agent receives an action table
from its own issuing chain (carl issues to alice, dave to bob) mapping bit
values to opaque action tokens.  Tokens carry no strike information, so one
captured table plus the bits still leaves every strike label possible; only
headquarters' strike set resolves the selected number to a label.

Convention: slot/pair index 0 contributes the most significant bit of the
action number.

Draw layout.  A run with seed s reads the SplitMix64 stream of s in this
order, and nothing else:

1. holders: one draw per slot (k = 2, `getrandbits(1)` gives the qubit
   alice holds), or per slot a Fisher-Yates shuffle of the k qubit
   positions (k > 2, `randrange` with rejection);
2. one token base per agent, in agent order;
3. per agent, in agent order, and per slot, in slot order: a Born draw only
   if neither branch is below qsim.DEGENERATE_BRANCH, then a flip draw if
   the flip probability is positive and the agent is not alice.

Draw j of the run is mix(s + (j + 1) * GAMMA) (see seeding), and trial t of
a batch has s = derive_seed(master, t).  Both engines follow this contract:
`run_protocol` and `run_multiagent` read the stream one run at a time and
are the sequential reference; `run_batch`, behind `iter_runs` and the
command line, computes every draw from its (trial seed, position) pair,
vectorised over trials and slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import qsim
# perfbench/tracing.py counts protocol's measurements at StateRegistry.measure
# and patches qsim.measure_qubit to count the attacks'; binding the operators
# by name keeps it from counting protocol's twice.
from .qsim import DEGENERATE_BRANCH, PureState, apply_y_rotation, measure_qubit
from .seeding import SplitMix64, stream_draws

_MASK64 = (1 << 64) - 1

#: RunRecord strike value when the two bit strings disagree.
AMBIGUOUS = "ambiguous"

_CANONICAL_AGENTS = ("alice", "bob")
_CANONICAL_ISSUERS = ("carl", "dave")
_ISSUER_FOR = {"alice": "carl", "bob": "dave"}


# ---------------------------------------------------------------------- types


class _GeneratedLabels(Sequence):
    """Placeholder labels "strike-<hex>", materialized on demand.

    Key-agreement regimes run the protocol with n_bits large enough that an
    explicit tuple of 2**n_bits labels cannot exist; these are distinct by
    construction, so StrikeSet skips the enumeration check.
    """

    __slots__ = ("n_bits", "_size", "_fmt")

    def __init__(self, n_bits: int) -> None:
        self.n_bits = n_bits
        self._size = 1 << n_bits  # may exceed what __len__ can report
        self._fmt = ("strike-%0" + str(max(1, (n_bits + 3) // 4)) + "x").__mod__

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._size))]
        if not 0 <= index < self._size:
            raise IndexError(index)
        return self._fmt(index)

    def __eq__(self, other) -> bool:
        if isinstance(other, _GeneratedLabels):
            return self.n_bits == other.n_bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("_GeneratedLabels", self.n_bits))


@dataclass(frozen=True)
class StrikeSet:
    """The 2**n_bits strike labels, indexed by action number."""

    n_bits: int
    labels: Sequence[str]

    def __post_init__(self) -> None:
        if self.n_bits < 1:
            raise ValueError("n_bits must be at least 1")
        if isinstance(self.labels, _GeneratedLabels):
            if self.labels.n_bits != self.n_bits:
                raise ValueError("generated labels sized for a different n_bits")
            return
        if len(self.labels) != 1 << self.n_bits:
            raise ValueError(
                f"need {1 << self.n_bits} labels for {self.n_bits} bits, got {len(self.labels)}"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("strike labels must be distinct")


@dataclass(frozen=True)
class ActionTable:
    """Per-agent mapping from (slot, bit) to an opaque action token."""

    agent: str
    issuer: str
    entries: tuple[tuple[str, str], ...]  # entries[slot] = (token if 0, token if 1)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("an action table needs at least one slot")
        expected = _ISSUER_FOR.get(self.agent)
        if expected is not None and self.issuer != expected:
            raise ValueError(f"agent {self.agent!r} must be issued by {expected!r}")
        flat = [tok for pair in self.entries for tok in pair]
        if len(set(flat)) != len(flat):
            raise ValueError("action tokens must be distinct within a table")

    @property
    def n_bits(self) -> int:
        return len(self.entries)

    @classmethod
    def _trusted(cls, agent: str, issuer: str, entries: tuple) -> "ActionTable":
        # Internal fast path: token distinctness and issuer pairing are
        # guaranteed by the issuing code, so skip __post_init__ checks.
        table = object.__new__(cls)
        object.__setattr__(table, "agent", agent)
        object.__setattr__(table, "issuer", issuer)
        object.__setattr__(table, "entries", entries)
        return table


@dataclass(frozen=True)
class AgentMemory:
    """Which (pair index, qubit position) slots this agent's hardware holds."""

    agent: str
    slots: tuple[tuple[int, int], ...]


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

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "alice_bits": self.alice_bits,
            "bob_bits": self.bob_bits,
            "alice_actions": list(self.alice_actions),
            "bob_actions": list(self.bob_actions),
            "alice_action_number": self.alice_action_number,
            "bob_action_number": self.bob_action_number,
            "agree": self.agree,
            "strike": self.strike,
        }


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
        return {
            "seed": self.seed,
            "n_bits": self.n_bits,
            "agents": list(self.agents),
            "bits": list(self.bits),
            "action_numbers": list(self.action_numbers),
            "pairwise_agree": {f"{i}-{j}": agree for i, j, agree in self.pairwise_agree},
            "all_agree": self.all_agree,
            "strike": self.strike,
        }


class StateRegistry:
    """Live shared states plus bookkeeping of which qubit slots are spent."""

    def __init__(self, states: Sequence[PureState]) -> None:
        self._states = list(states)
        self._sizes = [st.num_qubits for st in self._states]  # read by perfbench/tracing.py
        self._measured: set[tuple[int, int]] = set()

    def __len__(self) -> int:
        return len(self._states)

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


@lru_cache(maxsize=32)
def _agent_names(k: int) -> tuple[str, ...]:
    return _CANONICAL_AGENTS[:k] + tuple(f"agent{i}" for i in range(2, k))


@lru_cache(maxsize=32)
def _issuer_names(k: int) -> tuple[str, ...]:
    return _CANONICAL_ISSUERS[:k] + tuple(f"issuer{i}" for i in range(2, k))


@lru_cache(maxsize=32)
def _shared_state(k: int) -> PureState:
    # States are never mutated in place (every gate/measurement builds a new
    # PureState), so one immutable instance can seed every pair slot.
    return qsim.prepare_bell() if k == 2 else qsim.prepare_ghz(k)


@lru_cache(maxsize=64)
def default_strike_set(n_bits: int) -> StrikeSet:
    """Placeholder strike labels for simulation runs (real sets come from headquarters)."""
    return StrikeSet(n_bits, _GeneratedLabels(n_bits))


def action_number(bits: str) -> int:
    """Big-endian value of a bit string: position 0 is the most significant bit."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"not a bit string: {bits!r}")
    return int(bits, 2)


def strike_of(number: int, strikes: StrikeSet) -> str:
    """Resolve an action number against the strike set."""
    if not 0 <= number < (1 << strikes.n_bits):
        raise ValueError(f"action number {number} out of range")
    return strikes.labels[number]


def _fresh_tokens(rng, count: int) -> list[str]:
    # One random 64-bit base per table; consecutive offsets keep the tokens
    # distinct by construction while the base keeps them fresh per run.
    base = rng.getrandbits(64)
    return ["%016x" % ((base + i) & _MASK64) for i in range(count)]


# ----------------------------------------------------------------- operations


def _distribute(k: int, n_bits: int, rng) -> tuple[StateRegistry, list[AgentMemory]]:
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    states = [_shared_state(k)] * n_bits
    if k == 2:
        # which side physically holds which qubit of each pair is randomized
        positions = []
        for _ in range(n_bits):
            p = rng.getrandbits(1)
            positions.append((p, 1 - p))
    else:
        positions = []
        for _ in range(n_bits):
            perm = list(range(k))
            rng.shuffle(perm)
            positions.append(tuple(perm))
    memories = [
        AgentMemory(name, tuple((i, positions[i][a]) for i in range(n_bits)))
        for a, name in enumerate(_agent_names(k))
    ]
    return StateRegistry(states), memories


def distribute_pairs(n_bits: int, rng) -> tuple[StateRegistry, AgentMemory, AgentMemory]:
    """Create n_bits Bell pairs and deal one qubit of each to alice and bob."""
    registry, memories = _distribute(2, n_bits, rng)
    return registry, memories[0], memories[1]


def _precommunicate(k: int, n_bits: int, rng) -> list[ActionTable]:
    tables = []
    for agent, issuer in zip(_agent_names(k), _issuer_names(k)):
        it = iter(_fresh_tokens(rng, 2 * n_bits))
        tables.append(ActionTable._trusted(agent, issuer, tuple(zip(it, it))))
    return tables


def precommunicate(strikes: StrikeSet, rng) -> tuple[ActionTable, ActionTable]:
    """Issue action tables through the two disjoint chains (carl->alice, dave->bob)."""
    tables = _precommunicate(2, strikes.n_bits, rng)
    return tables[0], tables[1]


def agent_measure(
    memory: AgentMemory,
    table: ActionTable,
    noise: NoiseModel,
    registry: StateRegistry,
    rng,
) -> tuple[str, tuple[str, ...]]:
    """Measure this agent's slots in order; return (bit string, action tokens).

    The agent's misalignment angle rotates its own qubit just before each
    measurement.  The classical flip channel acts on every agent except alice,
    so exactly one side of a two-party run carries the flip noise.
    """
    if table.agent != memory.agent:
        raise ValueError(f"table for {table.agent!r} given to agent {memory.agent!r}")
    if table.n_bits != len(memory.slots):
        raise ValueError("table and memory disagree on the number of slots")
    theta = noise.misalign_alice if memory.agent == "alice" else noise.misalign_bob
    flip = noise.flip_prob if memory.agent != "alice" else 0.0
    entries = table.entries
    measure = registry.measure
    chars: list[str] = []
    actions: list[str] = []
    slot_no = 0
    for index, position in memory.slots:
        if theta != 0.0:
            registry.rotate(index, position, theta)
        bit = measure(index, position, rng)
        if flip and rng.random() < flip:
            bit ^= 1
        chars.append("01"[bit])
        actions.append(entries[slot_no][bit])
        slot_no += 1
    return "".join(chars), tuple(actions)


def _resolve_strikes(strikes: StrikeSet | None, n_bits: int) -> StrikeSet:
    if strikes is None:
        return default_strike_set(n_bits)
    if strikes.n_bits != n_bits:
        raise ValueError("strike set size does not match n_bits")
    return strikes


def _run_sequential(
    k: int, n_bits: int, noise: NoiseModel, seed: int
) -> list[tuple[str, tuple[str, ...]]]:
    # Every agent's (bits, actions), reading the stream of `seed` one draw at
    # a time: distribute, precommunicate, then each agent measures in turn.
    rng = SplitMix64(seed)
    registry, memories = _distribute(k, n_bits, rng)
    tables = _precommunicate(k, n_bits, rng)
    return [agent_measure(memory, table, noise, registry, rng)
            for memory, table in zip(memories, tables)]


def _run_record(
    seed: int,
    alice_bits: str,
    bob_bits: str,
    alice_actions: tuple[str, ...],
    bob_actions: tuple[str, ...],
    labels: Sequence[str],
) -> RunRecord:
    # The record both engines report for one two-party run.
    number_a = int(alice_bits, 2)
    agree = alice_bits == bob_bits
    return RunRecord(seed, alice_bits, bob_bits, alice_actions, bob_actions, number_a,
                     int(bob_bits, 2), agree, labels[number_a] if agree else AMBIGUOUS)


def _multi_record(seed: int, bits: tuple[str, ...], labels: Sequence[str]) -> MultiRunRecord:
    # The record both engines report for one run with len(bits) agents.
    k = len(bits)
    numbers = tuple(int(b, 2) for b in bits)
    pairwise = tuple((i, j, bits[i] == bits[j]) for i in range(k) for j in range(i + 1, k))
    all_agree = all(flag for _, _, flag in pairwise)
    return MultiRunRecord(seed, len(bits[0]), _agent_names(k), bits, numbers, pairwise,
                          all_agree, labels[numbers[0]] if all_agree else AMBIGUOUS)


def run_protocol(
    n_bits: int,
    noise: NoiseModel,
    seed: int,
    strikes: StrikeSet | None = None,
) -> RunRecord:
    """One complete two-party run; a deterministic function of its arguments."""
    labels = _resolve_strikes(strikes, n_bits).labels
    (alice_bits, alice_actions), (bob_bits, bob_actions) = _run_sequential(
        2, n_bits, noise, seed)
    return _run_record(seed, alice_bits, bob_bits, alice_actions, bob_actions, labels)


def run_multiagent(
    k_agents: int,
    n_bits: int,
    noise: NoiseModel,
    seed: int,
    strikes: StrikeSet | None = None,
) -> MultiRunRecord:
    """One run with k agents sharing k-qubit all-or-nothing states per bit.

    With k_agents = 2 this performs exactly the same draws as run_protocol,
    so the bit strings and agreement reduce to the two-party record.
    """
    if k_agents < 2:
        raise ValueError("need at least 2 agents")
    labels = _resolve_strikes(strikes, n_bits).labels
    runs = _run_sequential(k_agents, n_bits, noise, seed)
    return _multi_record(seed, tuple(agent_bits for agent_bits, _ in runs), labels)


# ------------------------------------------------------------- batch engine


#: The engine processes trials in chunks of at most this many amplitudes
#: (trials x n_bits x 2**k, at least one trial), which bounds its memory.
BATCH_AMPLITUDES = 1 << 13
_RECORD_CHUNK = 1 << 12
_UNIT = 1.1102230246251565e-16  # 2**-53, as SplitMix64.random


class TrialBatch(NamedTuple):
    """Trials 0..trials-1 of one master seed, as arrays indexed by trial."""

    seeds: np.ndarray  # (trials,) uint64: derive_seed(master_seed, t)
    token_bases: np.ndarray  # (k, trials) uint64: each agent's table base
    bits: np.ndarray  # (k, trials, n_bits) uint8: agents in canonical order

    def records(
        self, strikes: StrikeSet | None = None
    ) -> Iterator[RunRecord | MultiRunRecord]:
        """One record per trial: a RunRecord for two agents, else a MultiRunRecord.

        Each equals what run_protocol / run_multiagent return for the trial's
        seed.
        """
        k, trials, n_bits = self.bits.shape
        labels = _resolve_strikes(strikes, n_bits).labels
        for start in range(0, trials, _RECORD_CHUNK):
            part = slice(start, start + _RECORD_CHUNK)
            strings = [bit_strings(agent_bits) for agent_bits in self.bits[:, part]]
            seeds = self.seeds[part].tolist()
            if k == 2:
                actions = [
                    _action_tokens(base, agent_bits)
                    for base, agent_bits in zip(self.token_bases[:, part], self.bits[:, part])
                ]
                for row in zip(seeds, *strings, *actions):
                    yield _run_record(*row, labels)
            else:
                for seed, *bits in zip(seeds, *strings):
                    yield _multi_record(seed, tuple(bits), labels)


def bit_strings(bits: np.ndarray) -> list[str]:
    """The rows of a (trials, n_bits) 0/1 array as bit strings."""
    n_bits = bits.shape[-1]
    text = (bits.astype(np.uint8) + 48).tobytes().decode("ascii")
    return [text[i : i + n_bits] for i in range(0, len(text), n_bits)]


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


def _randrange(seeds: np.ndarray, counters: np.ndarray, n: int) -> np.ndarray:
    # SplitMix64.randrange(n) on every lane; advances `counters` past the
    # draws each lane used, rejected ones included.
    shift = 64 - (n - 1).bit_length()
    values = np.empty(len(seeds), np.intp)
    pending = np.arange(len(seeds))
    while pending.size:
        drawn = stream_draws(seeds[pending], counters[pending]) >> shift
        counters[pending] += 1
        ok = drawn < n
        values[pending[ok]] = drawn[ok]
        pending = pending[~ok]
    return values


def _holders(seeds: np.ndarray, k: int, n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    # Which qubit of each slot's register every agent holds, shape (k, lanes,
    # n_bits), and each lane's next stream position.
    lanes = len(seeds)
    if k == 2:
        held = stream_draws(seeds[:, None], np.arange(n_bits, dtype=np.uint64)) >> 63
        held = held.astype(np.intp)
        return np.stack([held, 1 - held]), np.full(lanes, n_bits, np.uint64)
    perms = np.tile(np.arange(k), (n_bits, lanes, 1))
    counters = np.zeros(lanes, np.uint64)
    rows = np.arange(lanes)
    for perm in perms:  # Fisher-Yates per slot, in slot order
        for i in range(k - 1, 0, -1):
            j = _randrange(seeds, counters, i + 1)
            last = perm[:, i].copy()
            perm[:, i] = perm[rows, j]
            perm[rows, j] = last
    return perms.transpose(2, 1, 0), counters


def _run_chunk(seeds, k, n_bits, noise, register) -> tuple[np.ndarray, np.ndarray]:
    # Token bases (k, lanes) and bits (k, lanes, n_bits) of one chunk of trials.
    qubits, counters = _holders(seeds, k, n_bits)
    bases = stream_draws(seeds, counters + np.arange(k, dtype=np.uint64)[:, None])
    bits = np.empty((k, len(seeds), n_bits), np.uint8)
    counters = counters + k
    lane_seeds = seeds[:, None]
    index = np.arange(len(register), dtype=np.int32)
    amps = np.broadcast_to(register, (len(seeds), n_bits, len(register))).copy()
    for agent in range(k):
        theta = noise.misalign_alice if agent == 0 else noise.misalign_bob
        flip = noise.flip_prob if agent else 0.0
        mask = (1 << (k - 1 - qubits[agent])).astype(np.int32)[..., None]
        hot = (index & mask) != 0  # basis states with the measured qubit set
        if theta != 0.0:
            # c*a -/+ s*partner, the scalar kernel's float operations in place
            partner = np.take_along_axis(amps, index ^ mask, axis=-1)
            partner *= math.sin(theta / 2.0)
            np.negative(partner, out=partner, where=~hot)
            amps *= math.cos(theta / 2.0)
            amps += partner
            del partner
        # Left-to-right sum over the set indices, as the scalar kernel; the
        # +0.0 terms for clear indices leave a non-negative sum unchanged.
        terms = amps * amps
        terms *= hot
        p1 = np.cumsum(terms, axis=-1, out=terms)[..., -1].copy()
        del terms
        p0 = 1.0 - p1
        low = p1 < DEGENERATE_BRANCH
        born = ~(low | (p0 < DEGENERATE_BRANCH))
        used = born.astype(np.uint64) + (1 if flip else 0)
        positions = counters[:, None] + (np.cumsum(used, axis=1) - used)
        uniform = (stream_draws(lane_seeds, positions) >> 11).astype(np.float64) * _UNIT
        bit = np.where(born, ~(uniform < p0), ~low)
        amps *= (1.0 / np.sqrt(np.where(bit, p1, p0)))[..., None]
        amps *= hot == bit[..., None]  # collapse onto the observed branch
        if flip:
            uniform = (stream_draws(lane_seeds, positions + born) >> 11).astype(np.float64)
            bit ^= uniform * _UNIT < flip
        bits[agent] = bit
        counters = counters + used.sum(axis=1)
    return bases, bits


def run_batch(
    k_agents: int,
    n_bits: int,
    noise: NoiseModel,
    trials: int,
    master_seed: int,
) -> TrialBatch:
    """Trials 0..trials-1 under `master_seed`, computed from their indices.

    Trial t equals run_multiagent(k_agents, n_bits, noise, derive_seed(
    master_seed, t)) (run_protocol for two agents) bit for bit: every draw is
    computed from the trial seed and its stream position (see the module
    docstring), vectorised over trials and slots with real float64
    amplitudes.
    """
    if k_agents < 2:
        raise ValueError("need at least 2 agents")
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if not 0 <= master_seed <= _MASK64:
        raise ValueError("master seed must lie in [0, 2**64)")
    # Bell and GHZ states and Y rotations keep every amplitude real.
    register = _shared_state(k_agents).amplitudes.real
    seeds = np.empty(trials, np.uint64)
    bases = np.empty((k_agents, trials), np.uint64)
    bits = np.empty((k_agents, trials, n_bits), np.uint8)
    lanes = max(1, BATCH_AMPLITUDES // (n_bits * len(register)))
    for start in range(0, trials, lanes):
        part = slice(start, start + lanes)
        chunk = seeds[part]
        chunk[:] = stream_draws(master_seed, np.arange(start, start + len(chunk), dtype=np.uint64))
        bases[:, part], bits[:, part] = _run_chunk(chunk, k_agents, n_bits, noise, register)
    return TrialBatch(seeds, bases, bits)


def iter_runs(
    n_bits: int,
    noise: NoiseModel,
    trials: int,
    master_seed: int,
    strikes: StrikeSet | None = None,
) -> Iterator[RunRecord]:
    """Independent runs: trial t equals run_protocol at derive_seed(master_seed, t)."""
    yield from run_batch(2, n_bits, noise, trials, master_seed).records(strikes)
