"""The sequential engines that the batched protocol and `analysis.reconcile` are tested against.

The protocol engine reads each run's SplitMix64 stream one draw at a time,
in the order the `protocol` module docstring lays out: deal every slot's
qubits (holders), issue each agent an action table of fresh opaque tokens
from its own issuing chain, then let every agent in turn measure its held
qubits on a `StateRegistry` of dense Bell or GHZ states through the public
`qsim` operators.  `run_protocol` and `run_multiagent` here return the
records the package's batches and one-trial views must equal bit for bit,
and `scalar_reconcile` the report `analysis.reconcile` must equal.
`whole_batch` joins the package's batches into one, for tests that index
every trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from entangle_coord import qsim
from entangle_coord.analysis import _CASCADE_BLOCK_CONSTANT, MAX_PASSES, ReconcileReport
from entangle_coord.protocol import (
    MultiRunRecord,
    NoiseModel,
    RunRecord,
    StateRegistry,
    StrikeSet,
    TrialBatch,
    _agent_names,
    _multi_record,
    _resolve_strikes,
    _run_record,
    trial_batches,
)
from entangle_coord.seeding import _MASK64, SplitMix64, derive_seed

_CANONICAL_ISSUERS = ("carl", "dave")
_ISSUER_FOR = {"alice": "carl", "bob": "dave"}


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


@dataclass(frozen=True)
class AgentMemory:
    """Which (pair index, qubit position) slots this agent's hardware holds."""

    agent: str
    slots: tuple[tuple[int, int], ...]


@lru_cache(maxsize=32)
def _issuer_names(k: int) -> tuple[str, ...]:
    return _CANONICAL_ISSUERS[:k] + tuple(f"issuer{i}" for i in range(2, k))


@lru_cache(maxsize=32)
def _shared_state(k: int) -> qsim.PureState:
    # Amplitudes are read-only (every gate/measurement builds a new
    # PureState), so one instance, with its cached branches, seeds every slot.
    return qsim.prepare_bell() if k == 2 else qsim.prepare_ghz(k)


def _fresh_tokens(rng, count: int) -> list[str]:
    # One random 64-bit base per table; consecutive offsets keep the tokens
    # distinct by construction while the base keeps them fresh per run.
    base = rng.next_uint64()
    return ["%016x" % ((base + i) & _MASK64) for i in range(count)]


def _distribute(k: int, n_bits: int, rng) -> tuple[StateRegistry, list[AgentMemory]]:
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    states = [_shared_state(k)] * n_bits
    if k == 2:
        # which side physically holds which qubit of each pair is randomized
        positions = []
        for _ in range(n_bits):
            p = rng.next_uint64() >> 63
            positions.append((p, 1 - p))
    else:
        positions = []
        for _ in range(n_bits):
            perm = list(range(k))
            for i in range(k - 1, 0, -1):  # Fisher-Yates, one draw at a time
                j = rng.randrange(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
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
        tables.append(ActionTable(agent, issuer, tuple(zip(it, it))))
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
    chars: list[str] = []
    actions: list[str] = []
    for slot_no, (index, position) in enumerate(memory.slots):
        if theta != 0.0:
            registry.rotate(index, position, theta)
        bit = registry.measure(index, position, rng)
        if flip and rng.random() < flip:
            bit ^= 1
        chars.append("01"[bit])
        actions.append(table.entries[slot_no][bit])
    return "".join(chars), tuple(actions)


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


def run_protocol(
    n_bits: int,
    noise: NoiseModel,
    seed: int,
    strikes: StrikeSet | None = None,
) -> RunRecord:
    """The two-party record of the run with this seed, read draw by draw."""
    strikes = _resolve_strikes(strikes, n_bits)
    (alice_bits, alice_actions), (bob_bits, bob_actions) = _run_sequential(
        2, n_bits, noise, seed)
    return _run_record(seed, alice_bits, bob_bits, alice_actions, bob_actions, strikes)


def run_multiagent(
    k_agents: int,
    n_bits: int,
    noise: NoiseModel,
    seed: int,
    strikes: StrikeSet | None = None,
) -> MultiRunRecord:
    """The k-agent record of the run with this seed, read draw by draw."""
    if k_agents < 2:
        raise ValueError("need at least 2 agents")
    strikes = _resolve_strikes(strikes, n_bits)
    runs = _run_sequential(k_agents, n_bits, noise, seed)
    return _multi_record(seed, tuple(agent_bits for agent_bits, _ in runs), strikes)


def whole_batch(
    k_agents: int, n_bits: int, noise: NoiseModel, trials: int, master_seed: int
) -> TrialBatch:
    """Trials 0..trials-1 (at least one) as one TrialBatch, joined from trial_batches."""
    batches = list(trial_batches(k_agents, n_bits, noise, trials, master_seed))
    return TrialBatch(np.concatenate([batch.seeds for batch in batches]),
                      np.concatenate([batch.bits for batch in batches], axis=1))


def scalar_reconcile(alice, bob, eps_hint, seed):
    """The bit-by-bit reconcile that the vectorised one must equal exactly.

    Pass p >= 2 permutes with a sequential Fisher-Yates over SplitMix64 at
    derive_seed(seed, p); each parity is read from both strings as it stands.
    """
    n = len(alice)
    a = [int(c) for c in alice]
    b = [int(c) for c in bob]
    errors_before = sum(x != y for x, y in zip(a, b))
    disclosed = 0

    def parity_differs(positions):
        nonlocal disclosed
        disclosed += 1
        pa = pb = 0
        for i in positions:
            pa ^= a[i]
            pb ^= b[i]
        return pa != pb

    def bisect(positions):
        # invariant: `positions` holds an odd number of differing bits
        while len(positions) > 1:
            mid = (len(positions) + 1) // 2
            left = positions[:mid]
            positions = left if parity_differs(left) else positions[mid:]
        b[positions[0]] ^= 1

    def run_pass(order, block_size):
        for start in range(0, n, block_size):
            block = order[start : start + block_size]
            if parity_differs(block):
                bisect(block)

    def permutation(pass_number):
        rng = SplitMix64(derive_seed(seed, pass_number))
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            while True:
                j = rng.next_uint64() >> (64 - i.bit_length())
                if j <= i:
                    break
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    k1 = min(n, max(2, round(min(_CASCADE_BLOCK_CONSTANT / eps_hint, n))))
    run_pass(list(range(n)), k1)
    run_pass(permutation(2), min(n, 2 * k1))
    passes = 2
    while a != b and passes < MAX_PASSES:
        passes += 1
        run_pass(permutation(passes), min(n, max(2, k1 >> (passes - 2))))
    errors_after = sum(x != y for x, y in zip(a, b))
    report = ReconcileReport(n=n, errors_before=errors_before, errors_after=errors_after,
                             disclosed_bits=disclosed, passes=passes,
                             success=errors_after == 0)
    return report, "".join(map(str, a)), "".join(map(str, b))
