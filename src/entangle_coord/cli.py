"""Command-line front end: every scenario as a subcommand, reports on stdout.

Output contract: a single JSON envelope (or, with --format csv, the primary
table flattened to CSV) on standard output; diagnostics on standard error
only.  The JSON text is json.dumps(envelope, indent=2) plus a newline,
written piece by piece as it is built; bit strings held as
protocol.BitRows (the attack transcripts) are written straight from their
bits by protocol.row_text.  Identical invocations produce byte-identical
output — the envelope carries no timestamps and every map is built in a
fixed key order.  Exit codes: 0 success, 2 argument error, 1 internal
invariant violation or a standard output that closed early.

The master seed comes from --seed, else from the ENTANGLE_COORD_SEED
environment variable, else 0; it and every other number has one plain ASCII
spelling (_SPELLINGS).  Per-trial seeds come from the package's published
mixing function, so trial results do not depend on evaluation order.  The
commands parse, delegate and print; no engine decision lives here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from . import __version__
# adversary and analysis are imported inside the commands that call them, so a
# launch loads (and, without bytecode caches, compiles) only what it runs
from .protocol import BitRows, NoiseModel, RunSummary, _chunks, row_text
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


#: each kind of number on the command line: its name in the error line, and its
#: one spelling, in ASCII ("1_000", " 7", "+7", "\u0663" and "Infinity" are none)
_SPELLINGS = {
    int: ("an integer", "0|-?[1-9][0-9]*"),
    float: ("a number", r"-?(0|[1-9][0-9]*)(\.[0-9]+)?(e[-+]?[0-9]+)?|-?inf|nan"),
}


def _plain(kind: type, text: str, source: str):
    # text as a kind (int or float) if it has that kind's spelling and is not
    # a zero written with "-" (a second envelope for one run) or a nonzero
    # literal that rounds to 0 (1e-400); else a ValueError naming source
    name, spelling = _SPELLINGS[kind]
    if re.fullmatch(spelling, text):
        most = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        if kind is int and 0 < most < len(text.lstrip("-")):  # int() would refuse it
            raise ValueError(f"{source} has more digits than Python reads as an integer ({most})")
        if (value := kind(text)) or re.fullmatch("[0.]+(e.*)?", text):
            return value
    raise ValueError(f"{source} must be {name} in plain decimal, got {text!r}")


def _resolve_seed(flag_value: str | None) -> int:
    # --seed's text, else ENTANGLE_COORD_SEED, else 0
    source, text = ("--seed", flag_value) if flag_value is not None else (
        "ENTANGLE_COORD_SEED", os.environ.get("ENTANGLE_COORD_SEED", "0"))
    return check_seed(_plain(int, text, source), "master seed")


def _read(args: argparse.Namespace) -> dict:
    # the envelope's parameters: the command's options in _COMMANDS, each read by _plain
    # as its kind, in order; then the master seed if the command takes --seed, and the format
    _, _, seeded, options = _COMMANDS[args.command]
    parameters = {}
    for flag, kind, _, _ in options:
        name = flag[2:].replace("-", "_")
        parameters[name] = _plain(kind, getattr(args, name), flag)
    if seeded:
        parameters["seed"] = _resolve_seed(args.seed)
    return {**parameters, "format": args.format}


def _envelope(command: str, parameters: dict, results) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "seed": parameters.get("seed", 0),
        "results": results,
        "version": __version__,
    }


# -------------------------------------------------------------- subcommands


def _cmd_run(args: argparse.Namespace) -> dict:
    parameters = _read(args)
    bits, eps, theta_a, theta_b, trials, agents, seed, _ = parameters.values()
    noise = NoiseModel(flip_prob=eps, misalign_alice=theta_a, misalign_bob=theta_b)
    # Action numbers print in decimal, and CPython refuses int-to-str
    # conversions beyond sys.get_int_max_str_digits() digits (0: no limit).
    # Up to 3 bits per digit always fit, so a raised limit costs no 10**digits.
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits and bits > 3 * digits and bits > (most := (10**digits).bit_length() - 1):
        raise ValueError(f"--bits {bits} exceeds {most}: its action numbers would "
                         f"pass Python's limit of {digits} digits for printing an integer")
    results = RunSummary.of_trials(agents, bits, noise, trials, seed).to_dict()
    return _envelope("run", parameters, results)


def _cmd_attack(args: argparse.Namespace) -> dict:
    from .adversary import biseparable_attack, eve_ghz_attack, eve_w_attack, wolf_cnot_attack

    parameters = {"kind": args.kind, **_read(args)}
    _, bits, trials, seed, _ = parameters.values()
    if args.eve_first and args.kind != "ghz":
        raise ValueError("--eve-first applies to the ghz attack only")
    if args.target_bit is not None and args.kind != "wolf":
        raise ValueError("--target-bit applies to the wolf attack only")
    if args.kind == "ghz":
        parameters["eve_first"] = args.eve_first
        report = eve_ghz_attack(bits, trials, args.eve_first, seed)
    elif args.kind == "w":
        report = eve_w_attack(bits, trials, seed)
    elif args.kind == "biseparable":
        report = biseparable_attack(bits, trials, seed)
    else:
        target = 0 if args.target_bit is None else _plain(int, args.target_bit, "--target-bit")
        parameters["target_bit"] = target
        report = wolf_cnot_attack(bits, trials, target, seed)
    return _envelope("attack", parameters, report.to_dict())


def _parse_grid(text: str) -> dict:
    # bound's parameters: the grid as read, repr(LO):repr(HI):STEPS, and its eps values
    import numpy as np

    pieces = text.split(":")
    if len(pieces) != 3:
        raise ValueError(f"--grid expects LO:HI:STEPS, got {text!r}")
    lo, hi = _plain(float, pieces[0], "--grid LO"), _plain(float, pieces[1], "--grid HI")
    if (steps := _plain(int, pieces[2], "--grid STEPS")) < 1:
        raise ValueError("--grid STEPS must be at least 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("--grid LO and HI must be finite")
    if not 0.0 < lo <= hi:
        raise ValueError("--grid requires 0 < LO <= HI")
    return {"grid": f"{lo!r}:{hi!r}:{steps}", "eps": np.geomspace(lo, hi, steps).tolist()}


def _cmd_bound(args: argparse.Namespace) -> dict:
    from .analysis import bound_table

    if args.eps is not None:
        parameters = {"eps": [_plain(float, piece, "--eps") for piece in args.eps.split(",")]}
    else:
        parameters = _parse_grid(args.grid)
    parameters.update(_read(args))
    rows = bound_table(parameters["eps"])
    return _envelope("bound", parameters, [row.to_dict() for row in rows])


def _cmd_nicd(args: argparse.Namespace) -> dict:
    from .analysis import nicd_max_correlation

    parameters = _read(args)
    result = nicd_max_correlation(parameters["m"], parameters["eps"])
    return _envelope("nicd", parameters, result.to_dict())


def _cmd_reconcile(args: argparse.Namespace) -> dict:
    from .analysis import reconcile_trials

    parameters = _read(args)
    results = reconcile_trials(*(parameters[name] for name in ("bits", "eps", "trials", "seed")))
    return _envelope("reconcile", parameters, results)


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
        # one piece per _chunks block of rows; bit strings need no escaping
        lead = (separator + '"').encode("ascii")
        for part in _chunks(*value.bits.shape):
            text = row_text(value.bits[part], lead, b'"')
            yield text if part.start else text[len(separator) :]
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


#: Each command: its handler, its help, whether it takes --seed, and its options in
#: the order its envelope prints them, as (flag, kind, default text or None for a
#: required option, help).  build_parser declares these and _read reads exactly them.
#: By hand instead: attack's kind, --eve-first and --target-bit (each printed for one
#: kind only) and bound's --eps | --grid (read as a list of eps values).
_COMMANDS = {
    "run": (_cmd_run, "two-party or multi-agent protocol runs", True, (
        ("--bits", int, "1", "string length n"),
        ("--eps", float, "0.0", "per-bit flip probability"),
        ("--theta-a", float, "0.0", "alice basis misalignment (radians)"),
        ("--theta-b", float, "0.0", "misalignment of every other agent (radians)"),
        ("--trials", int, "1", None),
        ("--agents", int, "2", None),
    )),
    "attack": (_cmd_attack, "adversary scenarios", True,
               (("--bits", int, "1", None), ("--trials", int, "1", None))),
    "bound": (_cmd_bound, "error-free length bound table", False, ()),
    "nicd": (_cmd_nicd, "exact search for the best local distillation pair", False, (
        ("--m", int, None, "substring length (1..4)"),
        ("--eps", float, None, "per-bit disagreement probability"),
    )),
    "reconcile": (_cmd_reconcile, "parity reconciliation over protocol-generated strings", True, (
        ("--bits", int, "64", None),
        ("--eps", float, "0.01", None),
        ("--trials", int, "1", None),
    )),
}


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
    subs = {}
    for command, (_, about, _, options) in _COMMANDS.items():
        sub = subs[command] = commands.add_parser(command, allow_abbrev=False, help=about)
        for flag, _, default, text in options:
            sub.add_argument(flag, default=default, required=default is None, help=text)

    # by hand, between the table's options and --seed/--format, where --help lists them
    attack = subs["attack"]
    attack.add_argument("kind", choices=("ghz", "w", "biseparable", "wolf"))
    attack.add_argument("--eve-first", action="store_true",
                        help="eve measures before the honest parties (ghz only)")
    attack.add_argument("--target-bit", default=None, metavar="{0,1}",
                        help="ancilla preparation bit (wolf only, default 0)")
    group = subs["bound"].add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", default=None,
                       help="comma-separated disagreement probabilities")
    group.add_argument("--grid", default=None,
                       help="LO:HI:STEPS logarithmic grid of probabilities")

    for command, (handler, _, seeded, _) in _COMMANDS.items():
        sub = subs[command]
        if seeded:
            sub.add_argument("--seed", default=None,
                             help="master seed (default: ENTANGLE_COORD_SEED or 0)")
        sub.add_argument("--format", choices=("json", "csv"), default="json",
                         help="output format (default json)")
        sub.set_defaults(handler=handler)
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
    except SystemExit as exc:  # argparse already reported; its codes 0 and 2 are ours
        return exc.code
    try:
        render(args.handler(args), args.format, sys.stdout)
        sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout: say so once, and nothing at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed before the report was written", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is an internal invariant failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main(None))


if __name__ == "__main__":
    entry()
