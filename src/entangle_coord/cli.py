"""Command-line front end: every scenario as a subcommand, reports on stdout.

Output contract: a single JSON envelope (or, with --format csv, the primary
table flattened to CSV) on standard output; diagnostics on standard error
only.  Identical invocations produce byte-identical output — the envelope
carries no timestamps and every map is built in a fixed key order.  Exit
codes: 0 success, 2 argument error, 1 internal invariant violation.

The master seed comes from --seed, else from the ENTANGLE_COORD_SEED
environment variable, else 0.  Per-trial seeds are derived with the package's
published mixing function, so trial results do not depend on evaluation
order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from importlib import resources

from . import __version__
from .adversary import (
    biseparable_attack,
    eve_ghz_attack,
    eve_w_attack,
    wolf_cnot_attack,
)
from .analysis import bound_table, nicd_max_correlation, reconcile
from .protocol import NoiseModel, action_number_counts, bit_strings, run_batch
from .seeding import derive_seed

_SCHEMA_FILE = "report_envelope_v1.json"


# ----------------------------------------------------------------- plumbing


def load_schema() -> dict:
    """The JSON schema every envelope printed by this tool conforms to."""
    path = resources.files("entangle_coord").joinpath(f"schema/{_SCHEMA_FILE}")
    return json.loads(path.read_text("utf-8"))


def validate_envelope(envelope: dict) -> None:
    """Raise if the envelope does not conform to the shipped schema."""
    import jsonschema  # an extra, not a runtime dependency

    jsonschema.validate(envelope, load_schema())


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is None:
        raw = os.environ.get("ENTANGLE_COORD_SEED")
        if raw is None:
            return 0
        try:
            flag_value = int(raw)
        except ValueError:
            raise ValueError(
                f"ENTANGLE_COORD_SEED must be an integer, got {raw!r}"
            ) from None
    if flag_value < 0:
        raise ValueError("master seed must be non-negative")
    if flag_value >> 64:
        raise ValueError(f"master seed must be below 2**64, got {flag_value}")
    return flag_value


def _envelope(command: str, parameters: dict, seed: int, results) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "results": results,
        "version": __version__,
    }


# -------------------------------------------------------------- subcommands


def _cmd_run(args: argparse.Namespace) -> dict:
    seed = _resolve_seed(args.seed)
    noise = NoiseModel(
        flip_prob=args.eps,
        misalign_alice=args.theta_a,
        misalign_bob=args.theta_b,
    )
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    batch = run_batch(args.agents, args.bits, noise, args.trials, seed)
    slot_agrees = (batch.bits == batch.bits[0]).all(axis=0)  # (trials, bits)
    agree_count = int(slot_agrees.all(axis=1).sum())
    disagree = (~slot_agrees).sum(axis=0).tolist()
    results = {
        "trials": args.trials,
        "agreement_rate": agree_count / args.trials,
        "action_number_histogram": {
            str(number): count for number, count in action_number_counts(batch.bits[0])
        },
        "per_bit_disagreement": [d / args.trials for d in disagree],
    }
    if args.trials <= 10:
        results["records"] = [rec.to_dict() for rec in batch.records()]
    parameters = {
        "bits": args.bits,
        "eps": args.eps,
        "theta_a": args.theta_a,
        "theta_b": args.theta_b,
        "trials": args.trials,
        "agents": args.agents,
        "seed": seed,
        "format": args.format,
    }
    return _envelope("run", parameters, seed, results)


def _cmd_attack(args: argparse.Namespace) -> dict:
    seed = _resolve_seed(args.seed)
    if args.eve_first and args.kind != "ghz":
        raise ValueError("--eve-first applies to the ghz attack only")
    if args.target_bit is not None and args.kind != "wolf":
        raise ValueError("--target-bit applies to the wolf attack only")
    parameters = {
        "kind": args.kind,
        "bits": args.bits,
        "trials": args.trials,
        "seed": seed,
        "format": args.format,
    }
    if args.kind == "ghz":
        parameters["eve_first"] = args.eve_first
        report = eve_ghz_attack(args.bits, args.trials, args.eve_first, seed)
    elif args.kind == "w":
        report = eve_w_attack(args.bits, args.trials, seed)
    elif args.kind == "biseparable":
        report = biseparable_attack(args.bits, args.trials, seed)
    else:
        target = 0 if args.target_bit is None else args.target_bit
        parameters["target_bit"] = target
        report = wolf_cnot_attack(args.bits, args.trials, target, seed)
    return _envelope("attack", parameters, seed, report.to_dict())


def _parse_eps_list(text: str) -> list[float]:
    try:
        return [float(piece) for piece in text.split(",")]
    except ValueError:
        raise ValueError(f"--eps expects comma-separated numbers, got {text!r}") from None


def _parse_grid(text: str) -> list[float]:
    import numpy as np

    pieces = text.split(":")
    if len(pieces) != 3:
        raise ValueError(f"--grid expects LO:HI:STEPS, got {text!r}")
    try:
        lo, hi, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
    except ValueError:
        raise ValueError(f"--grid expects LO:HI:STEPS numbers, got {text!r}") from None
    if steps < 1:
        raise ValueError("--grid STEPS must be at least 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("--grid LO and HI must be finite")
    if not 0.0 < lo <= hi:
        raise ValueError("--grid requires 0 < LO <= HI")
    return [float(e) for e in np.geomspace(lo, hi, steps)]


def _cmd_bound(args: argparse.Namespace) -> dict:
    if args.eps is not None:
        eps_values = _parse_eps_list(args.eps)
        parameters = {"eps": eps_values, "format": args.format}
    else:
        eps_values = _parse_grid(args.grid)
        parameters = {"grid": args.grid, "eps": eps_values, "format": args.format}
    rows = bound_table(eps_values)
    return _envelope("bound", parameters, 0, [row.to_dict() for row in rows])


def _cmd_nicd(args: argparse.Namespace) -> dict:
    result = nicd_max_correlation(args.m, args.eps)
    parameters = {"m": args.m, "eps": args.eps, "format": args.format}
    return _envelope("nicd", parameters, 0, result.to_dict())


def _cmd_reconcile(args: argparse.Namespace) -> dict:
    seed = _resolve_seed(args.seed)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    noise = NoiseModel(flip_prob=args.eps)
    # one protocol run per trial supplies the noisy string pair
    batch = run_batch(2, args.bits, noise, args.trials, seed)
    alice, bob = (bit_strings(agent_bits) for agent_bits in batch.bits)
    successes = 0
    total_disclosed = 0
    total_passes = 0
    for seed_t, alice_bits, bob_bits in zip(batch.seeds.tolist(), alice, bob):
        report, _, _ = reconcile(alice_bits, bob_bits, args.eps, derive_seed(seed_t, 1))
        successes += report.success
        total_disclosed += report.disclosed_bits
        total_passes += report.passes
    results = {
        "trials": args.trials,
        "n": args.bits,
        "eps": args.eps,
        "success_rate": successes / args.trials,
        "mean_disclosed_bits": total_disclosed / args.trials,
        "mean_disclosure_rate": total_disclosed / (args.trials * args.bits),
        "mean_passes": total_passes / args.trials,
    }
    parameters = {
        "bits": args.bits,
        "eps": args.eps,
        "trials": args.trials,
        "seed": seed,
        "format": args.format,
    }
    return _envelope("reconcile", parameters, seed, results)


# ------------------------------------------------------------- CSV flatten


def _csv_run(envelope: dict) -> tuple[list[str], list[list]]:
    trials = envelope["results"]["trials"]
    rows = [
        [number, count, count / trials]
        for number, count in envelope["results"]["action_number_histogram"].items()
    ]
    return ["action_number", "count", "frequency"], rows


def _csv_attack(envelope: dict) -> tuple[list[str], list[list]]:
    r = envelope["results"]
    row = [r["kind"], r["n_bits"], r["trials"], r["eavesdrop_success_rate"],
           r["agreement_rate"]]
    return ["kind", "n_bits", "trials", "eavesdrop_success_rate",
            "agreement_rate"], [row]


def _csv_bound(envelope: dict) -> tuple[list[str], list[list]]:
    header = ["eps", "entropy", "raw_bound", "max_error_free_length"]
    return header, [[row[k] for k in header] for row in envelope["results"]]


def _csv_nicd(envelope: dict) -> tuple[list[str], list[list]]:
    r = envelope["results"]
    row = [r["m"], r["eps"], r["max_agreement"], r["max_correlation"],
           r["achiever"]["description"], r["search_size"]]
    return ["m", "eps", "max_agreement", "max_correlation", "achiever",
            "search_size"], [row]


def _csv_reconcile(envelope: dict) -> tuple[list[str], list[list]]:
    header = ["n", "eps", "trials", "success_rate", "mean_disclosed_bits",
              "mean_disclosure_rate", "mean_passes"]
    r = envelope["results"]
    return header, [[r[k] for k in header]]


_CSV_BUILDERS = {
    "run": _csv_run,
    "attack": _csv_attack,
    "bound": _csv_bound,
    "nicd": _csv_nicd,
    "reconcile": _csv_reconcile,
}


def render(envelope: dict, fmt: str) -> str:
    """The exact text a command prints: JSON envelope or flattened CSV."""
    if fmt == "json":
        return json.dumps(envelope, indent=2) + "\n"
    header, rows = _CSV_BUILDERS[envelope["command"]](envelope)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# ------------------------------------------------------------------ parser


def _add_common(sub: argparse.ArgumentParser, seeded: bool) -> None:
    if seeded:
        sub.add_argument("--seed", type=int, default=None,
                         help="master seed (default: ENTANGLE_COORD_SEED or 0)")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entangle-coord",
        description="Entanglement-coordinated action selection: protocol runs, "
                    "attacks, bounds, distillation search, reconciliation.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="two-party or multi-agent protocol runs")
    run.add_argument("--bits", type=int, default=1, help="string length n")
    run.add_argument("--eps", type=float, default=0.0, help="per-bit flip probability")
    run.add_argument("--theta-a", type=float, default=0.0,
                     help="alice basis misalignment (radians)")
    run.add_argument("--theta-b", type=float, default=0.0,
                     help="misalignment of every other agent (radians)")
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--agents", type=int, default=2)
    _add_common(run, seeded=True)
    run.set_defaults(handler=_cmd_run)

    attack = commands.add_parser("attack", help="adversary scenarios")
    attack.add_argument("kind", choices=("ghz", "w", "biseparable", "wolf"))
    attack.add_argument("--bits", type=int, default=1)
    attack.add_argument("--trials", type=int, default=1)
    attack.add_argument("--eve-first", action="store_true",
                        help="eve measures before the honest parties (ghz only)")
    attack.add_argument("--target-bit", type=int, choices=(0, 1), default=None,
                        help="ancilla preparation bit (wolf only, default 0)")
    _add_common(attack, seeded=True)
    attack.set_defaults(handler=_cmd_attack)

    bound = commands.add_parser("bound", help="error-free length bound table")
    group = bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", default=None,
                       help="comma-separated disagreement probabilities")
    group.add_argument("--grid", default=None,
                       help="LO:HI:STEPS logarithmic grid of probabilities")
    _add_common(bound, seeded=False)
    bound.set_defaults(handler=_cmd_bound)

    nicd = commands.add_parser(
        "nicd", help="exact search for the best local distillation pair")
    nicd.add_argument("--m", type=int, required=True, help="substring length (1..4)")
    nicd.add_argument("--eps", type=float, required=True,
                      help="per-bit disagreement probability")
    _add_common(nicd, seeded=False)
    nicd.set_defaults(handler=_cmd_nicd)

    rec = commands.add_parser(
        "reconcile", help="parity reconciliation over protocol-generated strings")
    rec.add_argument("--bits", type=int, default=64)
    rec.add_argument("--eps", type=float, default=0.01)
    rec.add_argument("--trials", type=int, default=1)
    _add_common(rec, seeded=True)
    rec.set_defaults(handler=_cmd_reconcile)

    return parser


#: Every flag whose value is a number or a list of numbers.
_NUMERIC_FLAGS = frozenset({
    "--bits", "--trials", "--seed", "--eps", "--theta-a", "--theta-b", "--agents",
    "--m", "--grid", "--target-bit",
})


def _is_numeric_flag(token: str) -> bool:
    # the flag itself, or an abbreviation argparse may expand to it
    return token.startswith("--") and len(token) > 2 and any(
        flag.startswith(token) for flag in _NUMERIC_FLAGS)


def _attach_negative_values(argv: list[str]) -> list[str]:
    # argparse takes a token such as -1e+20 or -inf for an option, so a value
    # that starts with a single "-" is attached to its numeric flag instead.
    out: list[str] = []
    for token in argv:
        if out and _is_numeric_flag(out[-1]) and token[:1] == "-" and token[1:2] != "-":
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:  # argparse already reported; fold into our codes
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        envelope = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is an internal invariant failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    sys.stdout.write(render(envelope, args.format))
    return 0


def entry() -> None:
    raise SystemExit(main(None))


if __name__ == "__main__":
    entry()
