"""Command-line front end: every scenario as a subcommand, reports on stdout.

Output contract: a single JSON envelope (or, with --format csv, the primary
table flattened to CSV) on standard output; diagnostics on standard error
only.  The JSON text is json.dumps(envelope, indent=2) plus a newline,
written piece by piece as it is built; bit strings held as
protocol.BitRows (the attack transcripts) are written straight from their
bits by protocol.row_text.  Identical invocations produce byte-identical
output — the envelope carries no timestamps and every map is built in a
fixed key order.  Exit codes: 0 success, 2 argument error, 1 internal
invariant violation.

The master seed comes from --seed, else from the ENTANGLE_COORD_SEED
environment variable, else 0, written as str() writes the integer.  Per-trial
seeds are derived with the package's published mixing function, so trial
results do not depend on evaluation order.  The commands parse, delegate to
the package and print; no engine decision lives here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
# adversary and analysis are imported inside the commands that call them, so a
# launch loads (and, without bytecode caches, compiles) only what it runs
from .protocol import BitRows, NoiseModel, RunSummary, row_text
from .seeding import check_seed

# ----------------------------------------------------------------- plumbing


def validate_envelope(envelope: dict) -> None:
    """Raise jsonschema.ValidationError unless the envelope fits the shipped schema.

    An attack envelope's results are then built into an AttackReport, which
    parses each transcript whole with BitRows.from_strings: one string per
    trial, of n_bits characters 0 and 1 (jsonschema took seconds to check
    10^5 items one by one).  The test suite checks the schema itself against
    its metaschema, once.
    """
    from importlib import resources  # imported here: it loads tempfile and shutil

    import jsonschema  # an extra, not a runtime dependency

    schema = resources.files("entangle_coord").joinpath("schema/report_envelope_v1.json")
    jsonschema.Draft202012Validator(json.loads(schema.read_text("utf-8"))).validate(envelope)
    if envelope["command"] == "attack":
        from .adversary import AttackReport

        try:
            AttackReport(**envelope["results"])
        except (TypeError, ValueError) as exc:
            raise jsonschema.ValidationError(f"results: {exc}") from None


def _plain_int(text: str) -> int | None:
    # text's integer if str() spells it as text, so that no two spellings
    # alias one number ("1_000", " 7", "007", "\u0663"), else None
    try:
        value = int(text)
    except ValueError:
        return None
    return value if str(value) == text else None


def _resolve_seed(flag_value: str | None) -> int:
    # --seed's text, else ENTANGLE_COORD_SEED, else 0
    source, text = ("--seed", flag_value) if flag_value is not None else (
        "ENTANGLE_COORD_SEED", os.environ.get("ENTANGLE_COORD_SEED", "0"))
    if (seed := _plain_int(text)) is None:
        raise ValueError(f"{source} must be an integer in plain decimal, got {text!r}")
    return check_seed(seed, "master seed")


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
    # Action numbers print in decimal, and CPython refuses int-to-str
    # conversions beyond sys.get_int_max_str_digits() digits (0: no limit).
    # Up to 3 bits per digit always fit, so a raised limit costs no 10**digits.
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits and args.bits > 3 * digits and args.bits > (
            most := (10**digits).bit_length() - 1):
        raise ValueError(f"--bits {args.bits} exceeds {most}: its action numbers would "
                         f"pass Python's limit of {digits} digits for printing an integer")
    results = RunSummary.of_trials(args.agents, args.bits, noise, args.trials, seed).to_dict()
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
    from .adversary import biseparable_attack, eve_ghz_attack, eve_w_attack, wolf_cnot_attack

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
        lo, hi = float(pieces[0]), float(pieces[1])
    except ValueError:
        raise ValueError(f"--grid expects LO:HI:STEPS numbers, got {text!r}") from None
    if (steps := _plain_int(pieces[2])) is None:
        raise ValueError(f"--grid STEPS must be an integer in plain decimal, got {text!r}")
    if steps < 1:
        raise ValueError("--grid STEPS must be at least 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("--grid LO and HI must be finite")
    if not 0.0 < lo <= hi:
        raise ValueError("--grid requires 0 < LO <= HI")
    return [float(e) for e in np.geomspace(lo, hi, steps)]


def _cmd_bound(args: argparse.Namespace) -> dict:
    from .analysis import bound_table

    if args.eps is not None:
        eps_values = _parse_eps_list(args.eps)
        parameters = {"eps": eps_values, "format": args.format}
    else:
        eps_values = _parse_grid(args.grid)
        parameters = {"grid": args.grid, "eps": eps_values, "format": args.format}
    rows = bound_table(eps_values)
    return _envelope("bound", parameters, 0, [row.to_dict() for row in rows])


def _cmd_nicd(args: argparse.Namespace) -> dict:
    from .analysis import nicd_max_correlation

    result = nicd_max_correlation(args.m, args.eps)
    parameters = {"m": args.m, "eps": args.eps, "format": args.format}
    return _envelope("nicd", parameters, 0, result.to_dict())


def _cmd_reconcile(args: argparse.Namespace) -> dict:
    from .analysis import reconcile_trials

    seed = _resolve_seed(args.seed)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    results = reconcile_trials(args.bits, args.eps, args.trials, seed)
    parameters = {
        "bits": args.bits,
        "eps": args.eps,
        "trials": args.trials,
        "seed": seed,
        "format": args.format,
    }
    return _envelope("reconcile", parameters, seed, results)


# ------------------------------------------------------------- CSV flatten


#: The columns of each command's CSV table, as README § Command line lists them.
_CSV_COLUMNS = {
    "run": ["action_number", "count", "frequency"],
    "attack": ["kind", "n_bits", "trials", "eavesdrop_success_rate", "agreement_rate"],
    "bound": ["eps", "entropy", "raw_bound", "max_error_free_length"],
    "nicd": ["m", "eps", "max_agreement", "max_correlation", "achiever", "search_size"],
    "reconcile": ["n", "eps", "trials", "success_rate", "mean_disclosed_bits",
                  "mean_disclosure_rate", "mean_passes"],
}


def _csv_rows(command: str, results) -> list[list]:
    # The rows under _CSV_COLUMNS[command]: run's are its histogram entries,
    # bound's results are a list of rows, and every other command's one row.
    if command == "run":
        trials = results["trials"]
        return [[number, count, count / trials]
                for number, count in results["action_number_histogram"].items()]
    if command == "nicd":  # the achiever column is the achiever's description
        results = {**results, "achiever": results["achiever"]["description"]}
    columns = _CSV_COLUMNS[command]
    return [[row[c] for c in columns]
            for row in (results if isinstance(results, list) else [results])]


#: A piece of per-trial transcript text holds about this many characters.
RENDER_BLOCK = 1 << 16


def _json_pieces(value, indent: str):
    # The text of json.dumps(value, indent=2) piece by piece, for a value
    # that starts on a line indented by `indent`.
    if not isinstance(value, (dict, list, tuple, BitRows)) or not len(value):
        # a string, number, None or empty container (json.dumps cannot write BitRows)
        yield "[]" if type(value) is BitRows else json.dumps(value)
        return
    inner = indent + "  "
    if isinstance(value, dict):
        opening = "{\n" + inner
        for key, item in value.items():
            yield opening + encode_basestring_ascii(key) + ": "
            yield from _json_pieces(item, inner)
            opening = ",\n" + inner
        yield "\n" + indent + "}"
        return
    separator = ",\n" + inner
    yield "[\n" + inner
    if isinstance(value, BitRows):  # per-trial transcripts: text straight from the bits
        # about RENDER_BLOCK characters to a piece; bit strings need no escaping
        lead = (separator + '"').encode("ascii")
        rows = max(1, RENDER_BLOCK // (len(lead) + value.bits.shape[1] + 1))
        for start in range(0, len(value), rows):
            text = row_text(value.bits[start : start + rows], lead, b'"')
            yield text if start else text[len(separator) :]
    elif set(map(type, value)) == {str}:  # e.g. a record's tokens: escaped in C
        yield separator.join(map(encode_basestring_ascii, value))
    else:
        for index, item in enumerate(value):
            if index:
                yield separator
            yield from _json_pieces(item, inner)
    yield "\n" + indent + "]"


def render(envelope: dict, fmt: str, out) -> None:
    """Write the exact text a command prints to `out`: JSON envelope or flattened CSV.

    The JSON text is json.dumps(envelope, indent=2) plus a newline, written
    piece by piece as it is built, so it is never held whole.
    """
    if fmt == "json":
        for piece in _json_pieces(envelope, ""):
            out.write(piece)
        out.write("\n")
        return
    import csv  # only --format csv needs these
    import io

    command = envelope["command"]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS[command])
    writer.writerows(_csv_rows(command, envelope["results"]))
    out.write(buffer.getvalue())


# ------------------------------------------------------------------ parser


def _add_common(sub: argparse.ArgumentParser, seeded: bool) -> None:
    if seeded:
        sub.add_argument("--seed", default=None,
                         help="master seed (default: ENTANGLE_COORD_SEED or 0)")
    sub.add_argument("--format", choices=("json", "csv"), default="json",
                     help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entangle-coord",
        description="Entanglement-coordinated action selection: protocol runs, "
                    "attacks, bounds, distillation search, reconciliation.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    # every parser has allow_abbrev=False: no prefix of an option stands for it

    run = commands.add_parser("run", allow_abbrev=False,
                              help="two-party or multi-agent protocol runs")
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

    attack = commands.add_parser("attack", allow_abbrev=False, help="adversary scenarios")
    attack.add_argument("kind", choices=("ghz", "w", "biseparable", "wolf"))
    attack.add_argument("--bits", type=int, default=1)
    attack.add_argument("--trials", type=int, default=1)
    attack.add_argument("--eve-first", action="store_true",
                        help="eve measures before the honest parties (ghz only)")
    attack.add_argument("--target-bit", type=int, default=None, metavar="{0,1}",
                        help="ancilla preparation bit (wolf only, default 0)")
    _add_common(attack, seeded=True)
    attack.set_defaults(handler=_cmd_attack)

    bound = commands.add_parser("bound", allow_abbrev=False,
                                help="error-free length bound table")
    group = bound.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", default=None,
                       help="comma-separated disagreement probabilities")
    group.add_argument("--grid", default=None,
                       help="LO:HI:STEPS logarithmic grid of probabilities")
    _add_common(bound, seeded=False)
    bound.set_defaults(handler=_cmd_bound)

    nicd = commands.add_parser(
        "nicd", allow_abbrev=False, help="exact search for the best local distillation pair")
    nicd.add_argument("--m", type=int, required=True, help="substring length (1..4)")
    nicd.add_argument("--eps", type=float, required=True,
                      help="per-bit disagreement probability")
    _add_common(nicd, seeded=False)
    nicd.set_defaults(handler=_cmd_nicd)

    rec = commands.add_parser("reconcile", allow_abbrev=False,
                              help="parity reconciliation over protocol-generated strings")
    rec.add_argument("--bits", type=int, default=64)
    rec.add_argument("--eps", type=float, default=0.01)
    rec.add_argument("--trials", type=int, default=1)
    _add_common(rec, seeded=True)
    rec.set_defaults(handler=_cmd_reconcile)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    # argparse takes a token such as -1e+20 or -inf for an option, so a value
    # that starts with a single "-" is attached to the long option before it,
    # unless that option already holds its value ("--eps=0.1").
    out: list[str] = []
    for token in argv:
        if (out and out[-1][:2] == "--" and len(out[-1]) > 2 and "=" not in out[-1]
                and token[:1] == "-" and token[1:2] != "-"):
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
    render(envelope, args.format, sys.stdout)
    return 0


def entry() -> None:
    raise SystemExit(main(None))


if __name__ == "__main__":
    entry()
