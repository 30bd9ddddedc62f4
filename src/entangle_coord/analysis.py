"""Information-theoretic companions to the coordination protocol.

Three tool families:

* binary entropy and the error-free string-length bound n < 1/H(eps) for a
  binary symmetric disagreement channel;
* an exact (non-sampling) search for the best non-interactive correlation
  distillation achievable by local Boolean post-processing of m-bit noisy
  substrings, certifying the 1 - 2*eps ceiling;
* a block-parity reconciliation simulator that measures how many parity bits
  actually leak while two noisy strings are being equalized.

NICD eligibility: distilled output bits must be fair, i.e. both parties'
functions are balanced (equal preimage sizes).  Unbalanced functions can buy
trivial "agreement" by collapsing toward a constant — a constant pair agrees
always and distills nothing — so they are excluded from the maximum; the
search still iterates every function pair and reports the full count in
search_size.  Under this rule the exact maximum correlation is 1 - 2*eps,
attained by matching dictator functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

    def to_dict(self) -> dict:
        return {
            "eps": self.eps,
            "entropy": self.entropy,
            "raw_bound": self.raw_bound,
            "max_error_free_length": self.max_error_free_length,
        }


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

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "eps": self.eps,
            "max_agreement": self.max_agreement,
            "max_correlation": self.max_correlation,
            "achiever": dict(self.achiever),
            "search_size": self.search_size,
        }


def _noise_weights(m: int, eps: float) -> list[float]:
    # P(a, b) for one (a, b) cell with Hamming distance d, a uniform:
    # every oracle recomputing these MUST use this exact expression so that
    # fsum totals agree bit-for-bit.
    inv = 1.0 / (1 << m)
    return [eps**d * (1.0 - eps) ** (m - d) * inv for d in range(m + 1)]


@lru_cache(maxsize=8)
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


def _pair_correlation(m: int, f_table: int, g_table: int, weights, dist) -> float:
    # exact expectation of (-1)^(f(a) xor g(b)) via one fsum over all cells
    size = 1 << m
    atoms = []
    for a in range(size):
        fa = (f_table >> a) & 1
        row = dist[a]
        for b in range(size):
            w = weights[row[b]]
            atoms.append(w if fa == (g_table >> b) & 1 else -w)
    return math.fsum(atoms)


def _describe_dictator(position: int) -> str:
    return f"matching dictator functions on substring position {position}"


def nicd_max_correlation(m: int, eps: float) -> NicdResult:
    """Best correlation of locally distilled fair bits from noisy substrings.

    The joint model: a is uniform on m-bit strings and b differs from a in
    each position independently with probability eps.  For m <= 3 every
    (f, g) pair is enumerated and each balanced pair is scored exactly; for
    m = 4 every f is enumerated and the best response g is constructed
    pointwise (sign of the conditional expectation), which never exceeds the
    balanced ceiling.  No sampling anywhere.
    """
    if not 1 <= m <= 4:
        raise ValueError("substring length m must lie in 1..4")
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"eps {eps!r} outside [0, 0.5]")
    size = 1 << m
    weights = _noise_weights(m, eps)
    dist = _distance_table(m)
    half = size // 2

    if m <= 3:
        n_tables = 1 << size
        balanced = [t for t in range(n_tables) if t.bit_count() == half]
        best = -2.0
        best_pair = (balanced[0], balanced[0])
        for f_table in balanced:
            for g_table in balanced:
                corr = _pair_correlation(m, f_table, g_table, weights, dist)
                if corr > best:
                    best = corr
                    best_pair = (f_table, g_table)
        search_size = n_tables * n_tables
    else:
        # sign tables for every balanced f, scored against the cell matrix
        u = np.empty((size, size))
        for a in range(size):
            for b in range(size):
                u[a, b] = weights[dist[a][b]]
        tables = [t for t in range(1 << size) if t.bit_count() == half]
        signs = np.empty((len(tables), size))
        for row, t in enumerate(tables):
            for a in range(size):
                signs[row, a] = -1.0 if (t >> a) & 1 else 1.0
        w = signs @ u  # w[row, b] = E[(-1)^f(a) ; b]
        scores = np.abs(w).sum(axis=1)
        best_row = int(np.argmax(scores))
        best = float(scores[best_row])
        # the best response g takes the majority sign of each column
        score_of = {t: float(scores[i]) for i, t in enumerate(tables)}

        def response(row: int) -> int:
            g_table = 0
            for b in range(size):
                if w[row, b] < 0.0:
                    g_table |= 1 << b
            return g_table

        best_pair = (tables[best_row], response(best_row))
        search_size = 1 << size

    # prefer reporting a dictator pair whenever one ties the maximum
    achiever = None
    for position in range(m):
        table = _dictator_table(m, position)
        if m <= 3:
            corr = _pair_correlation(m, table, table, weights, dist)
        else:
            corr = score_of[table]
        if abs(corr - best) <= 1e-12:
            best = corr
            best_pair = (table, table)
            achiever = {
                "f_table": table,
                "g_table": table,
                "description": _describe_dictator(position),
            }
            break
    if achiever is None:
        achiever = {
            "f_table": best_pair[0],
            "g_table": best_pair[1],
            "description": "exhaustive search maximum (no dictator tie)",
        }

    return NicdResult(
        m=m,
        eps=eps,
        max_agreement=(1.0 + best) / 2.0,
        max_correlation=best,
        achiever=achiever,
        search_size=search_size,
    )


def nicd_no_improvement_certificate(m: int, eps_list) -> list[dict]:
    """Row-per-eps certificate that local distillation cannot beat 1 - 2*eps.

    Only m <= 3 is accepted: the certificate's claim is an exhaustive
    enumeration of every function pair, which the m = 4 best-response search
    does not perform.
    """
    if not 1 <= m <= 3:
        raise ValueError("fully exhaustive certification supports m in 1..3 only")
    rows = []
    for eps in eps_list:
        result = nicd_max_correlation(m, eps)
        ceiling = 1.0 - 2.0 * eps
        margin = ceiling - result.max_correlation
        if margin < -1e-9:
            raise ValueError(
                f"distillation ceiling violated at m={m}, eps={eps}: "
                f"{result.max_correlation} > {ceiling}"
            )
        rows.append(
            {
                "m": m,
                "eps": eps,
                "max_correlation": result.max_correlation,
                "ceiling": ceiling,
                "margin": margin,
                "achiever": result.achiever["description"],
                "search_size": result.search_size,
            }
        )
    return rows


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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "errors_before": self.errors_before,
            "errors_after": self.errors_after,
            "disclosed_bits": self.disclosed_bits,
            "passes": self.passes,
            "success": self.success,
        }


def _check_bit_string(name: str, value: str) -> None:
    if not value or value.strip("01"):  # a character other than 0 and 1 is left
        raise ValueError(f"{name} must be a non-empty bit string")


def _pass_order(seed: int, pass_number: int, n: int) -> np.ndarray:
    perm, _ = shuffle(derive_seed(seed, pass_number), n)
    return np.array(perm)


def reconcile(
    alice: str, bob: str, eps_hint: float, seed: int
) -> tuple[ReconcileReport, str, str]:
    """Block-parity reconciliation of bob's string toward alice's.

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
    of the difference vector a ^ b, the only thing the passes depend on.
    """
    _check_bit_string("alice", alice)
    _check_bit_string("bob", bob)
    if len(alice) != len(bob):
        raise ValueError("strings must have equal length")
    if not 0.0 < eps_hint <= 0.5:
        raise ValueError(f"eps_hint {eps_hint!r} outside (0, 0.5]")
    n = len(alice)
    a = np.frombuffer(alice.encode("ascii"), np.uint8) - 48
    d = a ^ (np.frombuffer(bob.encode("ascii"), np.uint8) - 48)
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
    report = ReconcileReport(
        n=n,
        errors_before=errors_before,
        errors_after=errors_after,
        disclosed_bits=disclosed,
        passes=passes,
        success=errors_after == 0,
    )
    return report, alice, ((a ^ d) + 48).tobytes().decode("ascii")
