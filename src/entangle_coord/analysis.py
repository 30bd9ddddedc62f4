"""Information-theoretic companions to the coordination protocol.

Three tool families:

* binary entropy and the error-free string-length bound n < 1/H(eps) for a
  binary symmetric disagreement channel;
* an exact (non-sampling) search for the best non-interactive correlation
  distillation achievable by local Boolean post-processing of m-bit noisy
  substrings, certifying the 1 - 2*eps ceiling;
* a block-parity reconciliation simulator that measures how many parity bits
  actually leak while two noisy strings are being equalized: `reconcile` on
  one pair of strings, and `reconcile_trials` (behind the `reconcile`
  command) on the bit arrays of the protocol's trials, chunk by chunk.

NICD eligibility: distilled output bits must be fair, i.e. both parties'
functions are balanced (equal preimage sizes).  Unbalanced functions can buy
trivial "agreement" by collapsing toward a constant — a constant pair agrees
always and distills nothing — so they are excluded from the maximum.  For
m <= 3 the search scores every balanced pair, and search_size counts every
function pair, balanced or not.  Under this rule the exact maximum
correlation is 1 - 2*eps, attained by matching dictator functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import BitRows, NoiseModel, _chunks, result_layout, row_text, trial_batches
from .seeding import derive_seed, shuffle

#: reconciliation refuses to loop beyond this many passes
MAX_PASSES = 16

_CASCADE_BLOCK_CONSTANT = 0.73


# ----------------------------------------------------------------- entropy


def binary_entropy(eps: float) -> float:
    """H(eps) in bits, with the limit convention H(0) = H(1) = 0."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"probability {eps!r} outside [0, 1]")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return -eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps)


@dataclass(frozen=True)
class BoundRow:
    """Length bound for error-free strings over a channel of disagreement eps."""

    eps: float
    entropy: float
    raw_bound: float
    max_error_free_length: int

    def __post_init__(self) -> None:
        if abs(self.entropy - binary_entropy(self.eps)) > 1e-12:
            raise ValueError("entropy field inconsistent with eps")
        if not self.max_error_free_length < self.raw_bound <= self.max_error_free_length + 1:
            raise ValueError("length floor inconsistent with raw bound")

    to_dict = result_layout


def shannon_length_bound(eps: float) -> BoundRow:
    """Largest string length with expected errors below one: n < 1/H(eps)."""
    if eps == 0.0:
        raise ValueError(
            "error-free length is unbounded at eps = 0 (no finite bound exists)"
        )
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps {eps!r} outside (0, 0.5]")
    entropy = binary_entropy(eps)
    raw = 1.0 / entropy
    if math.isinf(raw):
        raise ValueError(f"eps {eps!r} too small: 1/H(eps) overflows a float")
    floor = math.floor(raw)
    if floor >= raw:  # integer raw bound: "strictly less than" excludes it
        floor -= 1
    return BoundRow(eps=eps, entropy=entropy, raw_bound=raw, max_error_free_length=floor)


def bound_table(eps_values) -> list[BoundRow]:
    """shannon_length_bound evaluated over a grid."""
    return [shannon_length_bound(e) for e in eps_values]


# -------------------------------------------------------------------- NICD


@dataclass(frozen=True)
class NicdResult:
    """Outcome of an exact search over local distillation function pairs."""

    m: int
    eps: float
    max_agreement: float
    max_correlation: float
    achiever: dict
    search_size: int

    def __post_init__(self) -> None:
        if abs(self.max_correlation - (2.0 * self.max_agreement - 1.0)) > 1e-12:
            raise ValueError("agreement and correlation fields inconsistent")
        if self.max_correlation > 1.0 - 2.0 * self.eps + 1e-9:
            raise ValueError(
                f"correlation {self.max_correlation!r} exceeds the 1 - 2*eps ceiling"
            )

    to_dict = result_layout


def _noise_weights(m: int, eps: float) -> list[float]:
    # P(a, b) for one (a, b) cell with Hamming distance d, a uniform:
    # every oracle recomputing these MUST use this exact expression so that
    # fsum totals agree bit-for-bit.
    inv = 1.0 / (1 << m)
    return [eps**d * (1.0 - eps) ** (m - d) * inv for d in range(m + 1)]


def _distance_table(m: int) -> tuple[tuple[int, ...], ...]:
    size = 1 << m
    return tuple(tuple((a ^ b).bit_count() for b in range(size)) for a in range(size))


def _dictator_table(m: int, position: int) -> int:
    # truth table integer: bit a of the table holds f(a); position 0 is the
    # most significant substring bit, matching the package's string order
    shift = m - 1 - position
    table = 0
    for a in range(1 << m):
        table |= ((a >> shift) & 1) << a
    return table


def _describe_dictator(position: int) -> str:
    return f"matching dictator functions on substring position {position}"


def _balanced_tables(size: int) -> np.ndarray:
    # the truth tables on size inputs with size // 2 ones, ascending, found
    # one _chunks block of candidates at a time: 32 KiB of arrays, not 256 KiB
    found = []
    for part in _chunks(1 << size, 1):
        every = np.arange(part.start, part.stop, dtype=np.uint32)
        ones = np.zeros(len(every), np.uint32)
        for a in range(size):
            ones += (every >> a) & 1
        found.append(every[ones == size // 2])
    return np.concatenate(found)


def _sign_rows(tables: np.ndarray, size: int) -> np.ndarray:
    # row r holds (-1)^f(a) for a = 0 .. size-1, f the truth table tables[r]
    return 1.0 - 2.0 * ((tables[:, None] >> np.arange(size, dtype=np.uint32)) & 1)


def nicd_max_correlation(m: int, eps: float) -> NicdResult:
    """Best correlation of locally distilled fair bits from noisy substrings.

    The joint model: a is uniform on m-bit strings and b differs from a in
    each position independently with probability eps.  One search serves
    every m.  With u[a, b] = P(a, b) and signs[row, a] = (-1)^f(a) for every
    balanced truth table f, w = signs @ u holds E[(-1)^f(a) ; b].  For
    m <= 3 every balanced pair (f, g) is scored as w @ signs.T; for m = 4
    every f is scored against its best response g (the sign of each column
    of w), which no balanced g exceeds.  No sampling anywhere.

    One loop for every m scores the balanced tables in `protocol._chunks`
    blocks of rows and keeps a running maximum.  A block's working set is
    its sign rows and rows of w, at most BATCH_SLOTS float64 cells each
    (64 KiB; 512 rows at m = 4), beside the 12 870 balanced tables as
    uint32; m <= 3 has at most 70 tables, one block.

    The reported maximum is the exact value of the first matching dictator
    pair that ties the search maximum within 1e-12: math.fsum over every
    cell of the dictator's own sign row, for every m (a dictator is its own
    best response), so no BLAS reduction reaches the printed value; the
    search maximum only decides the tie.  A dictator always ties: by
    Witsenhausen's maximal-correlation bound no balanced f and +-1 g
    correlate beyond 1 - 2*eps over m independent BSC(eps) positions, and
    matching dictators reach it.  So no dictator tying means the search
    itself is wrong, and RuntimeError is raised rather than an unproven
    achiever reported.
    """
    if not 1 <= m <= 4:
        raise ValueError("substring length m must lie in 1..4")
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"eps {eps!r} outside [0, 0.5]")
    size = 1 << m
    u = np.take(_noise_weights(m, eps), _distance_table(m))
    tables = _balanced_tables(size)
    partners = _sign_rows(tables, size).T if m <= 3 else None
    best = -math.inf
    for part in _chunks(len(tables), size):
        w = _sign_rows(tables[part], size) @ u
        scores = np.abs(w, out=w).sum(axis=1) if partners is None else w @ partners
        best = max(best, float(scores.max()))
    search_size = 1 << (2 * size) if m <= 3 else 1 << size
    dictators = [_dictator_table(m, position) for position in range(m)]
    # fsum is exact and independent of order and of the BLAS kernel: the
    # sum of every cell's +-P(a, b)
    values = [math.fsum((u * np.outer(s, s)).flat)
              for s in _sign_rows(np.array(dictators, np.uint32), size)]
    for position, (table, value) in enumerate(zip(dictators, values)):
        if abs(value - best) <= 1e-12:
            return NicdResult(
                m=m,
                eps=eps,
                max_agreement=(1.0 + value) / 2.0,
                max_correlation=value,
                achiever={
                    "f_table": table,
                    "g_table": table,
                    "description": _describe_dictator(position),
                },
                search_size=search_size,
            )
    raise RuntimeError(
        f"no matching dictator ties the NICD search maximum {best!r} "
        f"at m={m}, eps={eps!r}"
    )


# ----------------------------------------------------------- reconciliation


@dataclass(frozen=True)
class ReconcileReport:
    """Cost and outcome of equalizing two noisy strings over a clear channel."""

    n: int
    errors_before: int
    errors_after: int
    disclosed_bits: int
    passes: int
    success: bool

    def __post_init__(self) -> None:
        if self.errors_after > self.errors_before:
            raise ValueError("reconciliation must never add errors")
        if self.success != (self.errors_after == 0):
            raise ValueError("success flag inconsistent with residual errors")

    to_dict = result_layout


def check_eps_hint(eps_hint: float) -> None:
    """Raise ValueError unless eps_hint lies in (0, 0.5], as reconcile requires."""
    if not 0.0 < eps_hint <= 0.5:
        raise ValueError(f"eps_hint {eps_hint!r} outside (0, 0.5]")


def _pass_order(seed: int, pass_number: int, n: int) -> np.ndarray:
    return np.array(shuffle(derive_seed(seed, pass_number), n))


def reconcile(
    alice: str, bob: str, eps_hint: float, seed: int
) -> tuple[ReconcileReport, str, str]:
    """Block-parity reconciliation of bob's bit string toward alice's, of equal length.

    Two standard passes: consecutive blocks of k1 = max(2, round(0.73/eps))
    (clamped to n), then a seed-derived permutation with doubled blocks.
    Each mismatching block parity is bisected — every revealed half-parity
    counts toward disclosed_bits, and the located bit always differs, so
    errors only ever decrease.  Blocks holding an even number of errors pass
    unnoticed, so after the standard passes the strings are compared (the
    simulator's privilege, not counted as disclosure) and further permuted
    passes with shrinking blocks run until the strings match or MAX_PASSES
    is hit.  The channel is assumed authenticated and error-free.

    The permutation of pass p >= 2 is seeding.shuffle(derive_seed(seed, p),
    n): it reads positions 0, 1, ... of that stream.  Every parity is taken
    of the difference vector a ^ b, the only thing the passes depend on;
    reconcile_trials runs the same passes on each trial's difference row.
    """
    a, b = BitRows.from_strings((alice, bob), len(alice)).bits
    check_eps_hint(eps_hint)
    d = a ^ b
    report = _reconcile_row(d, eps_hint, seed)
    return report, alice, row_text(a ^ d)


def reconcile_trials(n_bits: int, eps: float, trials: int, master_seed: int) -> dict:
    """The results `reconcile` prints, its keys in order, one chunk of trials at a time.

    Trial t of trial_batches(2, ...) with flip probability eps, trial seed s,
    has its difference row reconciled under derive_seed(s, 1), eps the hint
    (checked before any trial runs).  Only the reports' sums are kept.
    """
    noise = NoiseModel(flip_prob=eps)
    check_eps_hint(eps)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    successes = disclosed = passes = 0
    for batch in trial_batches(2, n_bits, noise, trials, master_seed):
        alice, bob = batch.bits
        for seed_t, d in zip(batch.seeds.tolist(), alice ^ bob):
            report = _reconcile_row(d, eps, derive_seed(seed_t, 1))
            successes += report.success
            disclosed += report.disclosed_bits
            passes += report.passes
    return {"trials": trials, "n": n_bits, "eps": eps, "success_rate": successes / trials,
            "mean_disclosed_bits": disclosed / trials,
            "mean_disclosure_rate": disclosed / (trials * n_bits),
            "mean_passes": passes / trials}


def _reconcile_row(d: np.ndarray, eps_hint: float, seed: int) -> ReconcileReport:
    # reconcile's passes on the difference row d, left holding the errors
    n = len(d)
    errors_before = int(np.count_nonzero(d))
    disclosed = 0

    def run_pass(order, block_size) -> None:
        # Blocks are disjoint and a block's bit is flipped only once its
        # bisection ends, so every parity of the pass is a parity of d as
        # the pass found it: one prefix xor answers them all, and the odd
        # blocks bisect in lockstep.
        nonlocal disclosed
        prefix = np.zeros(n + 1, np.uint8)
        np.bitwise_xor.accumulate(d[order], out=prefix[1:])
        lo = np.arange(0, n, block_size)
        hi = np.minimum(lo + block_size, n)
        disclosed += len(lo)
        odd = (prefix[hi] ^ prefix[lo]).astype(bool)
        lo, hi = lo[odd], hi[odd]
        while (active := hi - lo > 1).any():
            disclosed += int(np.count_nonzero(active))
            mid = lo + (hi - lo + 1) // 2
            left_odd = (prefix[mid] ^ prefix[lo]).astype(bool)
            hi = np.where(active & left_odd, mid, hi)
            lo = np.where(active & ~left_odd, mid, lo)
        d[order[lo]] ^= 1

    # clamped to n before rounding: 0.73/eps_hint is inf for subnormal hints
    k1 = min(n, max(2, round(min(_CASCADE_BLOCK_CONSTANT / eps_hint, n))))
    run_pass(np.arange(n), k1)
    run_pass(_pass_order(seed, 2, n), min(n, 2 * k1))
    passes = 2
    while d.any() and passes < MAX_PASSES:
        passes += 1
        run_pass(_pass_order(seed, passes, n), min(n, max(2, k1 >> (passes - 2))))

    errors_after = int(np.count_nonzero(d))
    return ReconcileReport(n=n, errors_before=errors_before, errors_after=errors_after,
                           disclosed_bits=disclosed, passes=passes, success=errors_after == 0)
