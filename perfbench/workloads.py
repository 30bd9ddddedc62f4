"""The benchmark's workloads: fixed lists of `entangle-coord` invocations.

A workload is a list of invocations that is run in the order given, once per
round.  Every invocation that takes a seed gets the benchmark's workload seed
as its `--seed`, so one round is a deterministic function of that seed and
every later round must reproduce the first byte for byte.

Each invocation carries the number of trials it completes (for
`trials_per_s`) and a check of the invariants its output must hold exactly,
whatever the seed.  Why each workload exists, and which layer it loads, is
written down in README.md next to this file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

#: The seed whose stdout digests are frozen in digests.json.
DEFAULT_SEED = 0
#: A seed no tuning is done on; a later change checks its claim on it too.
HOLDOUT_SEED = 7919


class CheckFailed(Exception):
    """An invocation's output broke one of the workload's invariants."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Invocation:
    args: tuple[str, ...]  # CLI arguments, without --seed
    seeded: bool
    trials: int  # protocol, attack or reconcile trials it completes
    check: Callable[[dict], None]  # raises CheckFailed

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--seed", str(seed)] if self.seeded else list(self.args)


def _histogram_total(results: dict, trials: int) -> None:
    _require(results["trials"] == trials, "trials echoed")
    _require(sum(results["action_number_histogram"].values()) == trials,
             "histogram counts sum to trials")


def _run_check(bits: int, trials: int, zero_noise: bool, agents: int = 2):
    def check(env: dict) -> None:
        r = env["results"]
        _histogram_total(r, trials)
        _require(len(r["per_bit_disagreement"]) == bits, "one disagreement rate per bit")
        if zero_noise:
            _require(r["agreement_rate"] == 1.0, "zero-noise agreement_rate == 1.0")
            _require(all(d == 0.0 for d in r["per_bit_disagreement"]),
                     "zero-noise per-bit disagreement == 0")
        if trials <= 10:
            _require(len(r["records"]) == trials, "one record per trial")
            if agents > 2:
                _require(all(len(rec["bits"]) == agents for rec in r["records"]),
                         "one bit string per agent")
    return check


def _transcripts(r: dict, attacker: str, bits: int, trials: int) -> None:
    _require(r["trials"] == trials and r["n_bits"] == bits, "sizes echoed")
    for key in (attacker, "alice_bits", "bob_bits"):
        rows = r[key]
        _require(len(rows) == trials and all(len(s) == bits for s in rows),
                 f"{key}: one transcript of n_bits per trial")


def _ghz_check(bits: int, trials: int):
    def check(env: dict) -> None:
        r = env["results"]
        _transcripts(r, "eve_bits", bits, trials)
        _require(r["eavesdrop_success_rate"] == 1.0, "GHZ eavesdrop success == 1.0")
        _require(r["agreement_rate"] == 1.0, "GHZ agreement == 1.0")
        _require(r["conditional_stats"]["remainder_separable_rate"] == 1.0,
                 "remainder separable after the first measurement")
    return check


def _w_check(bits: int, trials: int):
    def check(env: dict) -> None:
        r = env["results"]
        _transcripts(r, "eve_bits", bits, trials)
        stats = r["conditional_stats"]
        _require(stats["both_one_given_eve_zero"] == 1.0, "eve 0 implies alice = bob = 1")
        _require(stats["disagree_given_eve_one"] == 1.0, "eve 1 implies alice != bob")
    return check


def _biseparable_check(bits: int, trials: int):
    def check(env: dict) -> None:
        r = env["results"]
        _transcripts(r, "eve_bits", bits, trials)
        _require(r["conditional_stats"]["eve_one_rate"] == 1.0, "eve holds |1>")
        _require(r["agreement_rate"] == 0.0, "anti-correlated pair never agrees")
    return check


def _wolf_check(bits: int, trials: int):
    def check(env: dict) -> None:
        r = env["results"]
        _transcripts(r, "wolf_bits", bits, trials)
        stats = r["conditional_stats"]
        _require(r["eavesdrop_success_rate"] == 1.0, "wolf success == 1.0")
        _require(r["agreement_rate"] == 1.0, "wolf leaves agreement intact")
        _require(stats["wolf_matches_alice_rate"] == 1.0, "wolf tracks alice")
        _require(abs(stats["ghz_fidelity"] - 1.0) <= 1e-12, "wolf triple is GHZ")
    return check


def _reconcile_check(bits: int, trials: int):
    def check(env: dict) -> None:
        r = env["results"]
        _require(r["trials"] == trials and r["n"] == bits, "sizes echoed")
        _require(0.0 <= r["success_rate"] <= 1.0, "success rate in [0, 1]")
        _require(2.0 <= r["mean_passes"] <= 16.0, "between 2 and MAX_PASSES passes")
        _require(r["mean_disclosed_bits"] > 0.0, "first pass discloses block parities")
    return check


def _nicd_check(m: int, eps: float):
    def check(env: dict) -> None:
        r = env["results"]
        _require(abs(r["max_correlation"] - (1.0 - 2.0 * eps)) <= 1e-9,
                 "1 - 2*eps ceiling attained")
        _require(r["search_size"] == 1 << (1 << m), "search covers every f")
    return check


def _bound_check(steps: int):
    def check(env: dict) -> None:
        rows = env["results"]
        _require(len(rows) == steps, "one row per grid point")
        for row in rows:
            n, raw = row["max_error_free_length"], row["raw_bound"]
            _require(n == math.ceil(raw) - 1, "floor strictly below 1/H(eps)")
    return check


def _run(bits: int, trials: int, *extra: str, agents: int = 2, zero_noise: bool = True):
    args = ("run", "--bits", str(bits), "--trials", str(trials), *extra)
    if agents != 2:
        args += ("--agents", str(agents))
    return Invocation(args, True, trials, _run_check(bits, trials, zero_noise, agents))


def _attack(kind: str, bits: int, trials: int, check, *extra: str):
    args = ("attack", kind, "--bits", str(bits), "--trials", str(trials), *extra)
    return Invocation(args, True, trials, check(bits, trials))


def _reconcile(bits: int, eps: float, trials: int):
    args = ("reconcile", "--bits", str(bits), "--eps", str(eps), "--trials", str(trials))
    return Invocation(args, True, trials, _reconcile_check(bits, trials))


WORKLOADS: dict[str, list[Invocation]] = {
    # Many short protocol trials: per-trial Python overhead in protocol,
    # seeding and the small-register list kernels of qsim.
    "coord-mc": [
        _run(1, 30000),
        _run(8, 8000, "--eps", "0.05", "--theta-b", "0.3", zero_noise=False),
        _run(8, 3000, agents=4),
    ],
    # A few trials on 16- to 20-qubit registers: qsim's measurement kernel.
    # The 20-qubit call peaks near 0.95 GB RSS, the largest of the benchmark.
    "wide-ghz": [
        _run(1, 2, agents=16),
        _run(1, 1, agents=18),
        _run(1, 1, agents=20),
    ],
    # Every attack kind, with MB-sized per-trial transcripts to render.
    "eavesdrop": [
        _attack("ghz", 8, 1200, _ghz_check, "--eve-first"),
        _attack("ghz", 8, 1200, _ghz_check),
        _attack("w", 1, 60000, _w_check),
        _attack("biseparable", 4, 4000, _biseparable_check),
        _attack("wolf", 8, 3000, _wolf_check),
    ],
    # Few reconcile trials on long strings, plus the exact searches.
    "keygen": [
        _reconcile(2048, 0.05, 40),
        _reconcile(4096, 0.002, 20),
        Invocation(("nicd", "--m", "4", "--eps", "0.1"), False, 0, _nicd_check(4, 0.1)),
        Invocation(("bound", "--grid", "0.0001:0.5:25"), False, 0, _bound_check(25)),
    ],
}
