"""Every oracle the test suite compares the package against, one definition each.

Each oracle computes what the package must print or return as directly as
the definitions allow, one draw, one amplitude or one cell at a time; only
the search maximum of `loop_nicd_m4`, which decides the dictator tie and is
never printed, is a numpy product.  The oracles:

- the protocol engine: `run_protocol` and `run_multiagent` read each run's
  SplitMix64 stream one draw at a time, in the order the `protocol` module
  docstring lays out: deal every slot's qubits (holders), issue each agent
  an action table of fresh opaque tokens from its own issuing chain, then
  let every agent in turn measure its held qubits on a `StateRegistry` of
  dense Bell or GHZ states through the public `qsim` operators.  They
  return the records the package's batches and one-trial views must equal
  bit for bit; `whole_batch` joins the package's batches into one, for
  tests that index every trial;
- reconciliation: `fisher_yates` (the one sequential shuffle, which
  `seeding.shuffle` must equal), `scalar_reconcile` (the report
  `analysis.reconcile` must equal) and `reconcile_envelope` (the whole
  `reconcile` envelope, trial by trial);
- the length bound: `independent_max_len`;
- the NICD search: `nicd_weights`, `nicd_pair_score`,
  `nicd_best_pair_score`, and `loop_nicd_small` and `loop_nicd_m4`, the
  `to_dict` of `analysis.nicd_max_correlation`;
- the qsim kernels: `loop_probabilities`, `loop_rotation` and
  `loop_measure`, with `FixedRng` to force a measurement's uniform;
- the attacks: `scalar_three_holder_attack` (slot by slot),
  `analytic_joint` (the outcome distribution) and `counts_from_strings`
  (a report's counted fields).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from entangle_coord import __version__, qsim
from entangle_coord.adversary import BISEPARABLE_ATTACK, W_ATTACK, WOLF_CNOT_ATTACK
from entangle_coord.analysis import (
    _CASCADE_BLOCK_CONSTANT,
    MAX_PASSES,
    ReconcileReport,
    _describe_dictator,
)
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


class FixedRng:
    """A stand-in rng whose every uniform is `value`.

    Measuring with it forces a branch: 0.0 picks bit 0 unless that branch
    is degenerate, and a value at or above the branch's p0 picks bit 1.
    """

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def fisher_yates(n: int, rng) -> list[int]:
    """range(n) shuffled by Durstenfeld's Fisher-Yates, one draw at a time.

    Step i, from n - 1 down to 1, swaps position i with j = rng.randrange(i + 1).
    """
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


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
        positions = [tuple(fisher_yates(k, rng)) for _ in range(n_bits)]
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

    Pass p >= 2 permutes with fisher_yates over SplitMix64 at
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
        return fisher_yates(n, SplitMix64(derive_seed(seed, pass_number)))

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


def reconcile_envelope(bits, eps, trials, master):
    """reconcile's JSON envelope from the sequential engines, trial by trial."""
    successes = disclosed = passes = 0
    for t in range(trials):
        seed_t = derive_seed(master, t)
        rec = run_protocol(bits, NoiseModel(flip_prob=eps), seed_t)
        report, _, _ = scalar_reconcile(rec.alice_bits, rec.bob_bits, eps, derive_seed(seed_t, 1))
        successes += report.success
        disclosed += report.disclosed_bits
        passes += report.passes
    results = {
        "trials": trials,
        "n": bits,
        "eps": eps,
        "success_rate": successes / trials,
        "mean_disclosed_bits": disclosed / trials,
        "mean_disclosure_rate": disclosed / (trials * bits),
        "mean_passes": passes / trials,
    }
    parameters = {"bits": bits, "eps": eps, "trials": trials, "seed": master}
    return {"command": "reconcile", "parameters": parameters, "seed": master,
            "results": results, "version": __version__}


# ---------------------------------------------------------------- bound


def independent_max_len(eps: float) -> int:
    """The longest error-free length n with n * H(eps) < 1.

    A deliberately different derivation from analysis: natural logs and a
    counting loop.
    """
    h = -(eps * math.log(eps) + (1.0 - eps) * math.log(1.0 - eps)) / math.log(2.0)
    n = 1
    while n * h < 1.0:
        n += 1
    return n - 1


# ----------------------------------------------------------------- NICD
#
# a is uniform on m-bit strings and b differs from a in each position with
# probability eps.  A truth table's bit a holds the function's value on a.


def nicd_weights(m: int, eps: float) -> list[float]:
    """P(a, b) of one cell at Hamming distance d, for d = 0 .. m."""
    cell = 1.0 / (1 << m)
    return [eps**d * (1.0 - eps) ** (m - d) * cell for d in range(m + 1)]


def nicd_pair_score(m: int, f_table: int, g_table: int, eps: float) -> float:
    """E[(-1)^(f(a) xor g(b))], exactly: one fsum of every cell's +-P(a, b)."""
    weights = nicd_weights(m, eps)
    size = 1 << m
    return math.fsum(
        -weights[(a ^ b).bit_count()] if ((f_table >> a) ^ (g_table >> b)) & 1
        else weights[(a ^ b).bit_count()]
        for a in range(size) for b in range(size))


def _balanced_tables(m: int) -> list[int]:
    size = 1 << m
    return [t for t in range(1 << size) if t.bit_count() == size // 2]


def nicd_best_pair_score(m: int, eps: float) -> float:
    """The largest nicd_pair_score over every pair of balanced functions."""
    tables = _balanced_tables(m)
    return max(nicd_pair_score(m, f, g, eps) for f in tables for g in tables)


def _dictator_tie(m: int, eps: float, best: float, search_size: int) -> dict:
    # the first matching dictator pair whose exact score ties the search
    # maximum within 1e-12; position 0 is the substring's most significant bit
    for position in range(m):
        table = sum(((a >> (m - 1 - position)) & 1) << a for a in range(1 << m))
        value = nicd_pair_score(m, table, table, eps)
        if abs(value - best) <= 1e-12:
            return {"m": m, "eps": eps, "max_agreement": (1.0 + value) / 2.0,
                    "max_correlation": value,
                    "achiever": {"f_table": table, "g_table": table,
                                 "description": _describe_dictator(position)},
                    "search_size": search_size}
    raise AssertionError(f"no matching dictator ties {best!r} at m={m}, eps={eps!r}")


def loop_nicd_small(m: int, eps: float) -> dict:
    """nicd_max_correlation(m, eps).to_dict() for m <= 3, one function pair at a time.

    Every balanced pair is scored by one exact fsum, and the first matching
    dictator pair that ties the maximum is reported, so every float must
    match exactly.
    """
    size = 1 << m
    return _dictator_tie(m, eps, nicd_best_pair_score(m, eps), 1 << (2 * size))


def loop_nicd_m4(eps: float) -> dict:
    """nicd_max_correlation(4, eps).to_dict(), from the best-response search.

    Every balanced f is scored against its best response g, the sign of each
    column of w = signs @ u.  That maximum only decides the dictator tie; the
    reported value is the dictator pair's exact fsum, so every float must
    match exactly on any BLAS kernel.
    """
    m, size = 4, 16
    weights = nicd_weights(m, eps)
    u = np.array([[weights[(a ^ b).bit_count()] for b in range(size)] for a in range(size)])
    signs = np.array([[-1.0 if (t >> a) & 1 else 1.0 for a in range(size)]
                      for t in _balanced_tables(m)])
    best = float(np.abs(signs @ u).sum(axis=1).max())
    return _dictator_tie(m, eps, best, 1 << size)


# ----------------------------------------------------------- qsim kernels
#
# Each operation as a Python loop over basis indices.  The numpy kernels
# must match them bit for bit: p1 summed one term at a time in ascending
# index order, p0 = 1 - p1 as the sampling threshold, and the kept branch
# renormalised by its own weight.


def _index_split(num_qubits, qubit):
    # Basis indices with `qubit` clear / set, each ascending, so that the
    # k-th entries of the two lists differ only in `qubit`.
    shift = num_qubits - 1 - qubit
    zeros, ones = [], []
    for i in range(1 << num_qubits):
        (ones if (i >> shift) & 1 else zeros).append(i)
    return zeros, ones


def _branch_weight(amps, indices):
    # Sum of |amp|^2 over `indices`, accumulated in their (ascending) order.
    weight = 0.0
    for i in indices:
        a = amps[i]
        weight += a.real * a.real + a.imag * a.imag
    return weight


def loop_probabilities(state, qubit):
    amps = state.amplitudes.tolist()
    zeros, ones = _index_split(state.num_qubits, qubit)
    return _branch_weight(amps, zeros), _branch_weight(amps, ones)


def loop_rotation(state, qubit, theta):
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    amps = state.amplitudes.tolist()
    out = [0j] * len(amps)
    for i0, i1 in zip(*_index_split(state.num_qubits, qubit)):
        a0 = amps[i0]
        a1 = amps[i1]
        out[i0] = c * a0 - s * a1
        out[i1] = s * a0 + c * a1
    return np.array(out, dtype=np.complex128)


def loop_measure(state, qubit, u):
    amps = state.amplitudes.tolist()
    zeros, ones = _index_split(state.num_qubits, qubit)
    p1 = _branch_weight(amps, ones)
    p0 = 1.0 - p1
    if p1 < qsim.DEGENERATE_BRANCH:
        bit = 0
    elif p0 < qsim.DEGENERATE_BRANCH:
        bit = 1
    else:
        bit = 0 if u < p0 else 1
    prob = p1 if bit else p0
    # the kept half is renormalized by its own weight, not by 1 - p1
    scale = 1.0 / math.sqrt(_branch_weight(amps, ones if bit else zeros))
    out = [0j] * len(amps)
    for i in ones if bit else zeros:
        out[i] = amps[i] * scale
    return bit, prob, np.array(out, dtype=np.complex128)


# ---------------------------------------------------------------- attacks


def scalar_three_holder_attack(state, order, n_bits, trials, seed):
    """The slot-by-slot reference: a fresh copy of `state` per slot.

    Trial t reads SplitMix64(derive_seed(seed, t)) one draw at a time through
    qsim.measure_qubit.  Returns qubit 0, 1 and 2's strings.
    """
    flat = (bytearray(), bytearray(), bytearray())  # each qubit's bits, slot after slot
    for trial in range(trials):
        rng = SplitMix64(derive_seed(seed, trial))
        for _ in range(n_bits):
            current = state
            for qubit in order:
                bit, _, current = qsim.measure_qubit(current, qubit, rng)
                flat[qubit].append(ord("0") + bit)
    texts = [bits.decode("ascii") for bits in flat]
    return tuple(
        tuple(text[i : i + n_bits] for i in range(0, len(text), n_bits)) for text in texts)


def _forced(state, qubit, bit):
    out = qsim.measure_qubit(state, qubit, FixedRng(0.0 if bit == 0 else 0.999999))
    assert out.bit == bit
    return out.post_state


def analytic_joint(state, order):
    """Outcome distribution from chained measurement_probabilities calls."""
    result = {}

    def walk(st, prefix, prob, remaining):
        if not remaining:
            result[prefix] = prob
            return
        q = remaining[0]
        p0, p1 = qsim.measurement_probabilities(st, q)
        if p0 > 1e-12:
            walk(_forced(st, q, 0), prefix + "0", prob * p0, remaining[1:])
        if p1 > 1e-12:
            walk(_forced(st, q, 1), prefix + "1", prob * p1, remaining[1:])

    walk(state, "", 1.0, tuple(order))
    return result


def counts_from_strings(report):
    """A report's count-based fields recomputed from its bit strings.

    The reference for the counts the attacks take from their bit array:
    the same float formulas over counts made on the transcripts.
    """
    attacker = report.eve_bits if report.eve_bits is not None else report.wolf_bits
    alice, bob = report.alice_bits, report.bob_bits
    slots = report.n_bits * report.trials
    fields = {
        "eavesdrop_success_rate": sum(x == a for x, a in zip(attacker, alice)) / report.trials,
        "agreement_rate": sum(a == b for a, b in zip(alice, bob)) / report.trials,
    }
    x, a, b = ("".join(series) for series in (attacker, alice, bob))
    if report.kind == W_ATTACK:
        joint = Counter(map("".join, zip(x, a, b)))
        eve_zero = x.count("0")
        eve_one = slots - eve_zero
        fields["eve_zero_rate"] = eve_zero / slots
        fields["both_one_given_eve_zero"] = joint["011"] / eve_zero if eve_zero else 0.0
        fields["disagree_given_eve_one"] = (
            (joint["101"] + joint["110"]) / eve_one if eve_one else 0.0)
    elif report.kind == BISEPARABLE_ATTACK:
        joint = Counter(map("".join, zip(a, b)))
        fields["eve_one_rate"] = x.count("1") / slots
        fields["alice_bob_joint"] = {k: joint[k] / slots for k in ("00", "01", "10", "11")}
    elif report.kind == WOLF_CNOT_ATTACK:
        matches = sum(w == y for w, y in zip(x, a))
        fields["wolf_matches_alice_rate"] = matches / slots
        fields["wolf_complements_alice_rate"] = (slots - matches) / slots
    return fields
