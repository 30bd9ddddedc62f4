import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import operator
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entangle_coord import adversary, analysis, cli, protocol
from entangle_coord.adversary import AttackReport, BitRows
from entangle_coord.qsim import QUBIT_CAP

import sequential_reference as ref
from test_golden import CASES


def invoke(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ------------------------------------------------------------ happy paths


def test_run_zero_noise_agreement(capsys):
    code, out, err = invoke(
        ["run", "--bits", "8", "--trials", "20", "--seed", "1"], capsys)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["results"]["agreement_rate"] == 1.0
    assert payload["results"]["per_bit_disagreement"] == [0.0] * 8
    assert payload["seed"] == 1


def test_run_histogram_balanced(capsys):
    code, out, _ = invoke(
        ["run", "--bits", "1", "--trials", "1000", "--seed", "7"], capsys)
    assert code == 0
    hist = json.loads(out)["results"]["action_number_histogram"]
    assert set(hist) <= {"0", "1"}
    # 4 sigma for 1000 fair draws
    assert abs(hist.get("0", 0) / 1000 - 0.5) < 0.064


def test_run_records_only_for_small_trial_counts(capsys):
    _, out, _ = invoke(["run", "--bits", "1", "--trials", "3", "--seed", "2"], capsys)
    assert len(json.loads(out)["results"]["records"]) == 3
    _, out, _ = invoke(["run", "--bits", "1", "--trials", "11", "--seed", "2"], capsys)
    assert "records" not in json.loads(out)["results"]


def test_run_parameters_include_defaults(capsys):
    _, out, _ = invoke(["run", "--seed", "4"], capsys)
    params = json.loads(out)["parameters"]
    assert params == {
        "bits": 1,
        "eps": 0.0,
        "theta_a": 0.0,
        "theta_b": 0.0,
        "trials": 1,
        "agents": 2,
        "seed": 4,
        "format": "json",
    }


def test_run_multiagent_zero_noise(capsys):
    code, out, _ = invoke(
        ["run", "--bits", "2", "--trials", "30", "--agents", "4", "--seed", "6"],
        capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["agreement_rate"] == 1.0
    assert results["per_bit_disagreement"] == [0.0, 0.0]


def test_run_csv_table(capsys):
    code, out, _ = invoke(
        ["run", "--bits", "2", "--trials", "40", "--seed", "3",
         "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["action_number", "count", "frequency"]
    counts = [int(r[1]) for r in rows[1:]]
    assert sum(counts) == 40
    freqs = [float(r[2]) for r in rows[1:]]
    assert sum(freqs) == pytest.approx(1.0)


def test_attack_ghz_report(capsys):
    code, out, _ = invoke(
        ["attack", "ghz", "--bits", "3", "--trials", "25", "--seed", "5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["eavesdrop_success_rate"] == 1.0
    assert payload["results"]["conditional_stats"]["eve_first"] is False
    assert payload["parameters"]["eve_first"] is False
    assert "eve_bits" in payload["results"]


def test_attack_wolf_report(capsys):
    code, out, _ = invoke(
        ["attack", "wolf", "--bits", "2", "--trials", "10", "--target-bit", "0",
         "--seed", "3"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["conditional_stats"]["ghz_fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert results["wolf_bits"] == results["alice_bits"]


def test_attack_csv_row(capsys):
    code, out, _ = invoke(
        ["attack", "w", "--bits", "1", "--trials", "50", "--seed", "6",
         "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["kind", "n_bits", "trials", "eavesdrop_success_rate",
                       "agreement_rate"]
    assert rows[1][0] == "W"
    assert int(rows[1][2]) == 50


def test_bound_table_values(capsys):
    code, out, _ = invoke(["bound", "--eps", "0.0001,0.01,0.5"], capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    assert [r["max_error_free_length"] for r in rows] == [678, 12, 0]
    assert json.loads(out)["seed"] == 0


def test_bound_grid_is_logarithmic(capsys):
    code, out, _ = invoke(["bound", "--grid", "0.0001:0.1:4"], capsys)
    assert code == 0
    eps = [r["eps"] for r in json.loads(out)["results"]]
    assert len(eps) == 4
    assert eps[0] == pytest.approx(1e-4)
    assert eps[-1] == pytest.approx(0.1)
    ratios = [b / a for a, b in zip(eps, eps[1:])]
    for r in ratios:
        assert r == pytest.approx(ratios[0], rel=1e-9)


@pytest.mark.parametrize("grid,spelled", [("0.1:0.2:3", "1e-1:0.20:3"),
                                          ("0.0001:0.5:25", "1e-4:5e-1:25")])
def test_one_grid_spelled_two_ways_prints_one_envelope(grid, spelled, capsys):
    # the grid is echoed as read, repr(LO):repr(HI):STEPS, not as typed
    code, out, err = invoke(["bound", "--grid", grid], capsys)
    assert (code, err) == (0, "") and json.loads(out)["parameters"]["grid"] == grid
    assert invoke(["bound", "--grid", spelled], capsys) == (code, out, err)


def test_bound_csv_columns(capsys):
    _, out, _ = invoke(["bound", "--eps", "0.01", "--format", "csv"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["eps", "entropy", "raw_bound", "max_error_free_length"]
    assert rows[1][3] == "12"


def test_nicd_report(capsys):
    code, out, _ = invoke(["nicd", "--m", "3", "--eps", "0.1"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["max_correlation"] == pytest.approx(0.8, abs=1e-9)
    assert "dictator" in results["achiever"]["description"]


def test_nicd_noiseless(capsys):
    _, out, _ = invoke(["nicd", "--m", "1", "--eps", "0.0"], capsys)
    assert json.loads(out)["results"]["max_correlation"] == 1.0


def test_reconcile_aggregates(capsys):
    code, out, _ = invoke(
        ["reconcile", "--bits", "32", "--eps", "0.02", "--trials", "20",
         "--seed", "9"], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert results["trials"] == 20
    assert 0.0 <= results["success_rate"] <= 1.0
    assert results["mean_disclosed_bits"] > 0
    assert results["mean_disclosure_rate"] == pytest.approx(
        results["mean_disclosed_bits"] / 32)


# ------------------------------------------------------------- seed wiring


def test_environment_seed_used_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv("ENTANGLE_COORD_SEED", "71")
    _, out, _ = invoke(["run", "--bits", "1", "--trials", "2"], capsys)
    assert json.loads(out)["seed"] == 71


def test_flag_beats_environment_seed(capsys, monkeypatch):
    monkeypatch.setenv("ENTANGLE_COORD_SEED", "71")
    _, out, _ = invoke(["run", "--bits", "1", "--trials", "2", "--seed", "3"], capsys)
    assert json.loads(out)["seed"] == 3


def test_default_seed_is_zero(capsys):
    _, out, _ = invoke(["run", "--bits", "1", "--trials", "2"], capsys)
    assert json.loads(out)["seed"] == 0


def test_invalid_environment_seed_is_an_argument_error(capsys, monkeypatch):
    monkeypatch.setenv("ENTANGLE_COORD_SEED", "not-a-number")
    code, out, err = invoke(["run", "--bits", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "ENTANGLE_COORD_SEED" in err


def test_seed_of_2_to_the_64_is_rejected_not_aliased(capsys, monkeypatch):
    # 2**64 used to print the results of seed 0 under the unreduced seed
    for command in (["run", "--bits", "8", "--trials", "5"],
                    ["reconcile", "--bits", "16", "--trials", "2"]):
        code, out, err = invoke([*command, "--seed", str(2**64)], capsys)
        assert (code, out) == (2, "")
        assert "2**64" in err
        monkeypatch.setenv("ENTANGLE_COORD_SEED", str(2**64))
        code, out, err = invoke(command, capsys)
        assert (code, out) == (2, "")
        assert "2**64" in err
        monkeypatch.delenv("ENTANGLE_COORD_SEED")


def test_largest_seed_is_accepted(capsys, monkeypatch):
    code, out, err = invoke(["run", "--bits", "8", "--trials", "5", "--seed", str(2**64 - 1)],
                            capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["seed"] == 2**64 - 1
    monkeypatch.setenv("ENTANGLE_COORD_SEED", str(2**64 - 1))
    code, env_out, _ = invoke(["run", "--bits", "8", "--trials", "5"], capsys)
    assert code == 0
    assert env_out == out


@pytest.mark.parametrize("argv,message", [
    (["run", "--bits", "0"], "n_bits must be at least 1"),
    (["run", "--agents", "1"], "need at least 2 agents"),
    (["run", "--agents", "21"], "num_qubits=21 exceeds QUBIT_CAP=20"),
    (["run", "--eps", "0.6"], "flip_prob must lie in [0, 0.5]"),
    (["run", "--theta-b", "nan"], "misalignment angles must be finite"),
    (["run", "--trials", "0"], "trials must be at least 1"),
    (["run", "--seed", "-1"], "master seed must be non-negative"),
    (["reconcile", "--bits", "0"], "n_bits must be at least 1"),
    (["reconcile", "--eps", "0.6"], "flip_prob must lie in [0, 0.5]"),
    (["reconcile", "--eps", "0"], "eps_hint 0.0 outside (0, 0.5]"),
    (["run", "--bits", "14285"], "--bits 14285 exceeds 14284: its action numbers would pass "
                                 "Python's limit of 4300 digits for printing an integer"),
    (["run", "--bits", "-1"], "n_bits must be at least 1"),
    (["reconcile", "--bits", "-1"], "n_bits must be at least 1"),
    # of two bad values, the first in the order the envelope echoes them is reported
    (["run", "--trials", "x", "--eps", "y"], "--eps must be a number in plain decimal, got 'y'"),
    (["reconcile", "--trials", "x", "--eps", "y"],
     "--eps must be a number in plain decimal, got 'y'"),
])
def test_invalid_protocol_inputs_keep_their_messages(argv, message, capsys):
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_reconcile_checks_the_eps_hint_before_any_trial(monkeypatch, capsys):
    def no_trials(*args):
        raise AssertionError("trials ran before the eps hint was checked")

    monkeypatch.setattr(protocol, "_run_chunk", no_trials)
    code, out, err = invoke(["reconcile", "--eps", "0", "--trials", "1000000000"], capsys)
    assert (code, out, err) == (2, "", "error: eps_hint 0.0 outside (0, 0.5]\n")


# -------------------------------------------------------------- exit codes


@pytest.mark.parametrize("argv", [
    ["run", "--bits", "0", "--seed", "1"],
    ["run", "--trials", "0", "--seed", "1"],
    ["run", "--eps", "1.5", "--seed", "1"],
    ["run", "--agents", "1", "--seed", "1"],
    ["run", "--seed", "-4"],
    ["attack", "w", "--target-bit", "1", "--seed", "1"],
    ["attack", "wolf", "--eve-first", "--seed", "1"],
    ["attack", "biseparable", "--eve-first", "--seed", "1"],
    ["bound", "--eps", "0.7"],
    ["bound", "--eps", "0.0"],
    ["bound", "--eps", "abc"],
    ["bound", "--eps", "0.1,,0.2"],
    ["bound", "--eps", "0.1,"],
    ["bound", "--eps", ",0.1"],
    ["bound", "--grid", "0:0.1:5"],
    ["bound", "--grid", "0.1:0.01:5"],
    ["bound", "--grid", "0.1:0.2"],
    ["bound", "--grid", "0.001:0.5:0"],
    ["bound", "--eps", "1e-320"],
    ["bound", "--grid", "1e-320:0.5:3"],
    ["bound", "--grid", "0.1:inf:1"],
    ["bound", "--grid", "inf:inf:3"],
    ["nicd", "--m", "5", "--eps", "0.1"],
    ["nicd", "--m", "2", "--eps", "0.6"],
    ["reconcile", "--eps", "0.0", "--seed", "1"],
    ["reconcile", "--trials", "0", "--seed", "1"],
])
def test_domain_errors_exit_2(argv, capsys):
    code, out, err = invoke(argv, capsys)
    assert code == 2
    assert out == ""
    assert err != ""


def test_run_bits_stop_where_action_numbers_stop_printing(capsys):
    # CPython prints an int of at most sys.get_int_max_str_digits() digits,
    # 4300 by default: below 2**14284 every action number fits (one bit more
    # is refused, see test_invalid_protocol_inputs_keep_their_messages).
    code, out, err = invoke(["run", "--bits", "14284", "--trials", "11"], capsys)
    assert (code, err) == (0, "")
    assert max(map(len, json.loads(out)["results"]["action_number_histogram"])) <= 4300
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit, so no check
    try:
        code, _, err = invoke(["run", "--bits", "14285"], capsys)
    finally:
        sys.set_int_max_str_digits(previous)
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv,message", [
    (["bound", "--eps", "1e-320"], "eps 1e-320 too small: 1/H(eps) overflows a float"),
    (["bound", "--grid", "1e-320:0.5:3"], "eps 1e-320 too small: 1/H(eps) overflows a float"),
    (["bound", "--grid", "0.1:inf:1"], "--grid LO and HI must be finite"),
    (["bound", "--grid", "inf:inf:3"], "--grid LO and HI must be finite"),
    (["bound", "--grid", "x:0.5:3"], "--grid LO must be a number in plain decimal, got 'x'"),
])
def test_bound_extreme_inputs_print_only_the_error(argv, message, capsys):
    # a numpy RuntimeWarning on the way would turn into exit code 1 here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


_SEEDED = [["run"], ["reconcile"],
           *(["attack", kind] for kind in ("ghz", "w", "biseparable", "wolf"))]

_QUIET = protocol.NoiseModel()
# the library call behind each command of _SEEDED, with the command's defaults
_LIBRARY_CALLS = {
    "run": lambda bits=1, trials=1: protocol.RunSummary.of_trials(2, bits, _QUIET, trials, 0),
    "reconcile": lambda bits=64, trials=1: analysis.reconcile_trials(bits, 0.01, trials, 0),
    "ghz": lambda bits=1, trials=1: adversary.eve_ghz_attack(bits, trials, False, 0),
    "w": lambda bits=1, trials=1: adversary.eve_w_attack(bits, trials, 0),
    "biseparable": lambda bits=1, trials=1: adversary.biseparable_attack(bits, trials, 0),
    "wolf": lambda bits=1, trials=1: adversary.wolf_cnot_attack(bits, trials, 0, 0),
}


@pytest.mark.parametrize("command", _SEEDED, ids=" ".join)
@pytest.mark.parametrize("flag", ["--bits", "--trials"])
@pytest.mark.parametrize("value", [0, -1])
def test_bad_batch_shapes_print_the_library_message(command, flag, value, capsys):
    # the command line adds no check of its own: each command prints the
    # ValueError of its library call, and every trial count below 1 reads alike
    with pytest.raises(ValueError) as raised:
        _LIBRARY_CALLS[command[-1]](**{flag[2:]: value})
    message = str(raised.value)
    assert message == {"--bits": "n_bits must be at least 1",
                       "--trials": "trials must be at least 1"}[flag]
    assert invoke([*command, flag, str(value)], capsys) == (2, "", f"error: {message}\n")


def _eps_outside(zero_allowed):
    """NaN and floats outside [0, 0.5], or outside (0, 0.5] unless `zero_allowed`."""
    below = st.floats(max_value=-5e-324) if zero_allowed else st.floats(max_value=0.0)
    return below | st.floats(min_value=0.5, exclude_min=True) | st.just(math.nan)


def _flag(commands, flag, values):
    # `--flag=value` or `--flag value`: a value like -1e+20 is never an option
    def argv(command, value, attached):
        return [*command, f"{flag}={value!r}"] if attached else [*command, flag, repr(value)]

    return st.builds(argv, st.sampled_from(commands), values, st.booleans())


_OUT_OF_DOMAIN_ARGV = st.one_of(
    _flag(_SEEDED, "--bits", st.integers(max_value=0)),
    _flag(_SEEDED, "--trials", st.integers(max_value=0)),
    _flag(_SEEDED, "--seed", st.integers(max_value=-1) | st.integers(min_value=2**64)),
    _flag([["run"]], "--eps", _eps_outside(zero_allowed=True)),
    _flag([["run"]], "--theta-a", st.sampled_from([math.nan, math.inf, -math.inf])),
    _flag([["run"]], "--theta-b", st.sampled_from([math.nan, math.inf, -math.inf])),
    _flag([["run"]], "--agents", st.integers(max_value=1) | st.integers(min_value=QUBIT_CAP + 1)),
    _flag([["reconcile"], ["bound"]], "--eps", _eps_outside(zero_allowed=False)),
    _flag([["nicd", "--eps=0.1"]], "--m", st.integers(max_value=0) | st.integers(min_value=5)),
    _flag([["nicd", "--m=2"]], "--eps", _eps_outside(zero_allowed=True)),
)


@settings(max_examples=200, deadline=None)
@given(argv=_OUT_OF_DOMAIN_ARGV)
def test_out_of_domain_numbers_exit_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")


@pytest.mark.parametrize("flags,message", [
    (["run", "--eps", "-1e+20"], "flip_prob must lie in [0, 0.5]"),
    (["run", "--eps", "-5e-324"], "flip_prob must lie in [0, 0.5]"),
    (["reconcile", "--eps", "-1e-3"], "flip_prob must lie in [0, 0.5]"),
    (["run", "--theta-b", "-inf"], "misalignment angles must be finite"),
    (["nicd", "--m", "2", "--eps", "-1e-3"], "eps -0.001 outside [0, 0.5]"),
    (["bound", "--eps", "-1e-3,0.1"], "eps -0.001 outside (0, 0.5]"),
    (["bound", "--grid", "-1e-3:0.1:3"], "--grid requires 0 < LO <= HI"),
    (["reconcile", "--seed", "-1"], "master seed must be non-negative"),
    (["run", "--bits", "-1"], "n_bits must be at least 1"),
    (["reconcile", "--trials", "-1"], "trials must be at least 1"),
    (["run", "--agents", "-1"], "need at least 2 agents"),
    (["nicd", "--eps", "0.1", "--m", "-1"], "substring length m must lie in 1..4"),
    (["run", "--theta-a", "-inf"], "misalignment angles must be finite"),
    (["attack", "wolf", "--target-bit", "-1"], "target_bit must be 0 or 1"),
])
def test_negative_exponent_values_given_apart_get_the_domain_error(flags, message, capsys):
    # these used to be read as options: exit 2 with argparse's usage text
    attached = [*flags[:-2], f"{flags[-2]}={flags[-1]}"]
    for argv in (flags, attached):
        assert invoke(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    [],
    ["run", "--bits"],
    ["run", "--bits", "--trials", "3"],
    ["attack"],
    ["attack", "quantum"],
    ["bound"],
    ["nicd", "--m", "2"],
    ["run", "--format", "yaml"],
    # no prefix of an option stands for it
    ["run", "--bit", "3", "--tri", "2", "--se", "4", "--form", "csv"],
    ["run", "--ep", "-1e+20"],
])
def test_usage_errors_exit_2(argv, capsys):
    code, _, _ = invoke(argv, capsys)
    assert code == 2


def test_unexpected_failure_exits_1(capsys, monkeypatch):
    def boom(_):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(analysis, "bound_table", boom)
    code, out, err = invoke(["bound", "--eps", "0.01"], capsys)
    assert code == 1
    assert out == ""
    assert "wires crossed" in err


def test_a_stdout_closed_early_gets_one_error_line():
    # the reader takes 10 bytes of a report of about 400 KB and closes the pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "entangle_coord.cli", "attack", "w", "--bits", "64",
         "--trials", "2000"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == "error: standard output closed before the report was written\n"


def test_help_and_version_exit_0(capsys):
    assert invoke(["--help"], capsys)[0] == 0
    code, out, _ = invoke(["--version"], capsys)
    assert code == 0


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_with_a_dash_led_value_exit_2(flag, capsys):
    # a value that starts with one "-" attaches to the long option before it,
    # and neither of these takes a value
    code, out, err = invoke([flag, "-x"], capsys)
    assert (code, out) == (2, "")
    assert "ignored explicit argument '-x'" in err


# spellings that int() reads but str() does not write: an underscore, a
# space, a leading zero, a plus sign and ARABIC-INDIC DIGIT THREE
_SPOILED = ["1_000", " 7", "007", "+7", "\u0663"]

# the commands that read each integer option
_INTEGER_OPTIONS = {
    "--bits": _SEEDED,
    "--trials": _SEEDED,
    "--agents": [["run"]],
    "--m": [["nicd", "--eps", "0.1"]],
    "--target-bit": [["attack", "wolf"]],
}


@pytest.mark.parametrize("where", ["--seed", "ENTANGLE_COORD_SEED", "--grid", *_INTEGER_OPTIONS])
@pytest.mark.parametrize("text", _SPOILED)
def test_seeds_and_grid_steps_have_one_spelling(where, text, monkeypatch, capsys):
    # and every other integer option
    if where == "--seed":
        argvs = [["reconcile", "--bits", "16", "--seed", text]]
    elif where == "ENTANGLE_COORD_SEED":
        monkeypatch.setenv("ENTANGLE_COORD_SEED", text)
        argvs = [["run", "--bits", "2"]]
    elif where == "--grid":
        argvs = [["bound", "--grid", f"0.1:0.2:{text}"]]
    else:
        argvs = [[*command, where, text] for command in _INTEGER_OPTIONS[where]]
    for argv in argvs:
        code, out, err = invoke(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {where}") and err.count("\n") == 1


# spellings that float() reads but the command line refuses: an underscore, a
# space, a plus sign, ARABIC-INDIC and FULLWIDTH digits, a nonzero literal that
# rounds to 0, a zero written with "-", and float()'s names for inf and nan
_SPOILED_REALS = ["0.0_5", " 0.05", "+0.05", "\u0660.\u0660\u0665", "\uff10.\uff10\uff15",
                  "1e-400", "-0.0", "Infinity", "NaN"]

# a command line for each real, with {} where the spoiled text goes; its option is argv[-2]
_REAL_OPTIONS = [
    ["run", "--eps", "{}"],
    ["run", "--theta-a", "{}"],
    ["run", "--theta-b", "{}"],
    ["reconcile", "--eps", "{}"],
    ["nicd", "--m", "2", "--eps", "{}"],
    ["bound", "--eps", "0.1,{}"],
    ["bound", "--grid", "{}:0.5:3"],
    ["bound", "--grid", "0.01:{}:3"],
]


@pytest.mark.parametrize("argv", _REAL_OPTIONS, ids=" ".join)
@pytest.mark.parametrize("text", _SPOILED_REALS)
def test_every_real_has_one_spelling(argv, text, capsys):
    code, out, err = invoke([*argv[:-1], argv[-1].format(text)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {argv[-2]} ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--bits", "--seed"])
def test_integers_past_python_digit_limit_get_one_short_line(flag, capsys):
    # int() refuses a decimal of more than sys.get_int_max_str_digits() digits
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = invoke(["run", flag, "1" * 4301], capsys)
    finally:
        sys.set_int_max_str_digits(previous)
    assert (code, out) == (2, "")
    assert err == f"error: {flag} has more digits than Python reads as an integer (4300)\n"
    assert len(err.encode()) < 200


# values refused before any trial runs, or small enough to run at once: a
# large --trials or --bits could run for hours or allocate gigabytes
_SMALL_OR_REFUSED = ["", "x", "-0", "1e-320", "nan", "-inf", "0", "1", "2", "3"]


@st.composite
def _spoiled_argv(draw):
    # One to three edits of a golden command line: drop or duplicate a token,
    # or swap it with its neighbour, and then replace values.  A swap across
    # the line could hand --bits the value of --trials.
    argv = list(draw(st.sampled_from(CASES)))
    edits = draw(st.lists(st.sampled_from(["drop", "duplicate", "swap", "replace"]),
                          min_size=1, max_size=3))
    for edit in sorted(edits, key="replace".__eq__):
        if len(argv) < 2:
            break
        i = draw(st.integers(0, len(argv) - 2 if edit == "swap" else len(argv) - 1))
        if edit == "drop":
            del argv[i]
        elif edit == "duplicate":
            argv.insert(i, argv[i])
        elif edit == "swap":
            argv[i : i + 2] = argv[i + 1], argv[i]
        else:  # 2**64 only as a seed, which it is refused as
            seed = [str(2**64)] if i and argv[i - 1] == "--seed" else []
            argv[i] = draw(st.sampled_from(_SMALL_OR_REFUSED + seed))
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_spoiled_argv())
def test_every_spoiled_command_line_is_answered(argv):
    out, err = io.StringIO(), io.StringIO()
    # a numpy RuntimeWarning on the way would turn into exit code 1 here
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    text = err.getvalue()
    assert code in (0, 2), (argv, text)
    if code == 0:
        assert text == "", argv
    else:
        assert out.getvalue() == "", argv
        one_line = text.startswith("error: ") and text.count("\n") == 1
        usage = text.startswith("usage: ") and text.count(": error: ") == 1
        assert one_line or usage, (argv, text)


# ------------------------------------------------------ schema + determinism


DETERMINISTIC_INVOCATIONS = [
    ["run", "--bits", "2", "--trials", "25", "--eps", "0.05", "--seed", "11"],
    ["run", "--bits", "1", "--trials", "4", "--agents", "3", "--seed", "2"],
    ["run", "--bits", "2", "--trials", "10", "--seed", "3", "--format", "csv"],
    ["run", "--bits", "1", "--trials", "5", "--theta-a", "0.3", "--theta-b", "0.9",
     "--seed", "12"],
    ["attack", "ghz", "--bits", "3", "--trials", "40", "--seed", "5"],
    ["attack", "ghz", "--bits", "3", "--trials", "40", "--eve-first", "--seed", "5"],
    ["attack", "w", "--bits", "2", "--trials", "60", "--seed", "6"],
    ["attack", "biseparable", "--bits", "2", "--trials", "60", "--seed", "7"],
    ["attack", "wolf", "--bits", "2", "--trials", "30", "--target-bit", "1",
     "--seed", "8"],
    ["bound", "--eps", "0.001,0.01,0.3"],
    ["bound", "--grid", "0.0001:0.5:7", "--format", "csv"],
    ["nicd", "--m", "3", "--eps", "0.25"],
    ["reconcile", "--bits", "32", "--eps", "0.02", "--trials", "10", "--seed", "9"],
]


@pytest.mark.parametrize("argv", DETERMINISTIC_INVOCATIONS,
                         ids=[" ".join(a) for a in DETERMINISTIC_INVOCATIONS])
def test_identical_invocations_are_byte_identical(argv, capsys):
    first = invoke(argv, capsys)
    second = invoke(argv, capsys)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    assert first[2] == second[2] == ""


@pytest.mark.parametrize("argv", [a for a in DETERMINISTIC_INVOCATIONS
                                  if "csv" not in a],
                         ids=[" ".join(a) for a in DETERMINISTIC_INVOCATIONS
                              if "csv" not in a])
def test_json_outputs_validate_against_shipped_schema(argv, capsys):
    _, out, _ = invoke(argv, capsys)
    cli.validate_envelope(json.loads(out))


# every finite angle the command line takes: "-0.0" is refused (see
# _SPOILED_REALS), so -0.0 + 0.0 gives 0.0 instead
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)

_VALID_ARGV = st.one_of(
    st.builds(
        lambda bits, trials, agents, eps, theta_a, theta_b, seed: [
            "run", "--bits", str(bits), "--trials", str(trials), "--agents", str(agents),
            "--eps", repr(eps), f"--theta-a={theta_a!r}", f"--theta-b={theta_b!r}",
            "--seed", str(seed)],
        st.integers(1, 12), st.integers(1, 12), st.integers(2, 6), st.floats(0.0, 0.5),
        _FINITE, _FINITE, st.integers(0, 2**64 - 1)),
    st.builds(
        lambda bits, eps, trials, seed: ["reconcile", "--bits", str(bits), "--eps", repr(eps),
                                         "--trials", str(trials), "--seed", str(seed)],
        st.integers(1, 64), st.floats(0.0, 0.5, exclude_min=True), st.integers(1, 5),
        st.integers(0, 2**64 - 1)),
    st.lists(st.floats(1e-300, 0.5), min_size=1, max_size=5).map(
        lambda eps: ["bound", "--eps", ",".join(map(repr, eps))]),
    st.builds(lambda a, b, steps: ["bound", "--grid", f"{min(a, b)!r}:{max(a, b)!r}:{steps}"],
              st.floats(1e-300, 0.5), st.floats(1e-300, 0.5), st.integers(1, 20)),
    st.builds(lambda m, eps: ["nicd", "--m", str(m), "--eps", repr(eps)],
              st.integers(1, 4), st.floats(0.0, 0.5)),
)


@settings(max_examples=60, deadline=None)
@given(argv=_VALID_ARGV)
def test_run_reconcile_bound_and_nicd_envelopes_match_the_schema(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, "")
    envelope = json.loads(out.getvalue())
    assert envelope["command"] == argv[0]
    cli.validate_envelope(envelope)


def test_schema_rejects_malformed_envelopes(capsys):
    _, out, _ = invoke(["nicd", "--m", "1", "--eps", "0.1"], capsys)
    envelope = json.loads(out)
    del envelope["seed"]
    with pytest.raises(jsonschema.ValidationError):
        cli.validate_envelope(envelope)
    envelope = json.loads(out)
    envelope["command"] = "meddle"
    with pytest.raises(jsonschema.ValidationError):
        cli.validate_envelope(envelope)
    envelope = json.loads(out)
    envelope["extra"] = 1
    with pytest.raises(jsonschema.ValidationError):
        cli.validate_envelope(envelope)


_SCHEMA = json.loads((pathlib.Path(cli.__file__).parent / "schema"
                      / "report_envelope_v1.json").read_text("utf-8"))
_GOLDEN_JSON = sorted((pathlib.Path(__file__).parent / "data" / "golden").glob("*.json"))


def test_shipped_schema_is_a_draft_2020_12_schema():
    # cli.validate_envelope does not check the schema itself
    jsonschema.Draft202012Validator.check_schema(_SCHEMA)
    assert _SCHEMA["$id"] == "entangle-coord/report_envelope_v1"


def test_schema_rejects_a_renamed_result_key(capsys):
    # `nicd --m 2 --eps 0.1 | sed s/search_size/x/` once passed validation
    _, out, _ = invoke(["nicd", "--m", "2", "--eps", "0.1"], capsys)
    cli.validate_envelope(json.loads(out))
    with pytest.raises(jsonschema.ValidationError):
        cli.validate_envelope(json.loads(out.replace("search_size", "x")))


@pytest.mark.parametrize("path", [p for p in _GOLDEN_JSON if p.stem.startswith("attack")],
                         ids=lambda path: path.stem)
def test_attack_transcripts_are_checked_as_whole_arrays(path):
    envelope = json.loads(path.read_text("utf-8"))
    cli.validate_envelope(envelope)
    report = envelope["results"]
    for key in ("eve_bits", "wolf_bits", "alice_bits", "bob_bits"):
        if key not in report:
            continue
        rows = report[key]
        for bad in (
            [int(rows[0], 2), *rows[1:]],  # a number
            [*rows[:-1], True],
            [*rows[:-1], rows[-1][:-1] + "2"],  # a character other than 0 and 1
            [*rows[:-1], rows[-1][:-1] + "é"],
            [rows[0] + "0", *rows[1:]],  # a wrong length
            [*rows[:-1], rows[-1][:-1]],
            rows[:-1],  # a wrong count
            [*rows, rows[0]],
        ):
            report[key] = bad
            with pytest.raises(jsonschema.ValidationError, match=key):
                cli.validate_envelope(envelope)
        report[key] = rows


# maps keyed by data, whose entries may be dropped but whose keys must match a pattern
_DATA_KEYED = ("action_number_histogram", "pairwise_agree")


def _keys(node, path=()):
    """(path, key) for every key at any depth.

    Every item of a list is visited.  A data-keyed map holds every entry to
    one pattern and subschema, so only its first and last entries are.
    """
    if isinstance(node, list):
        for index, item in enumerate(node):
            yield from _keys(item, (*path, index))
    elif isinstance(node, dict):
        keys = list(node)
        if path and path[-1] in _DATA_KEYED:
            keys = keys[:1] + keys[1:][-1:]
        for key in keys:
            yield path, key
            yield from _keys(node[key], (*path, key))


@pytest.mark.parametrize("path", _GOLDEN_JSON, ids=lambda path: path.stem)
def test_dropping_any_parameter_or_result_key_fails_validation(path):
    # or any other key at any depth, or renaming it with a character before or after
    text = path.read_text("utf-8")
    cli.validate_envelope(json.loads(text))
    for parents, key in _keys(json.loads(text)):
        # `bound --eps` envelopes have no grid, and a data-keyed map any entries
        may_drop = ((parents, key) == (("parameters",), "grid")
                    or bool(parents) and parents[-1] in _DATA_KEYED)
        for renamed in ([] if may_drop else [None]) + [f"x{key}", f"{key}x"]:
            envelope = json.loads(text)
            target = functools.reduce(operator.getitem, parents, envelope)
            value = target.pop(key)
            if renamed is not None:
                target[renamed] = value
            with pytest.raises(jsonschema.ValidationError):
                cli.validate_envelope(envelope)


def _properties(*path):
    node = _SCHEMA["$defs"]
    for key in path:
        node = node[key]
    return list(node["properties"])


def test_each_results_subschema_lists_its_result_type_fields_in_order():
    def names(cls):
        return [field.name for field in dataclasses.fields(cls)]

    assert _properties("run", "properties", "results") == names(protocol.RunSummary)
    assert _properties("RunRecord") == list(protocol.RunRecord._fields)
    assert _properties("MultiRunRecord") == list(protocol.MultiRunRecord._fields)
    assert _properties("AttackReport") == names(AttackReport)
    assert _properties("BoundRow") == names(analysis.BoundRow)
    assert _properties("NicdResult") == names(analysis.NicdResult)
    # the reconcile aggregates have no result type: a golden file's keys
    reconcile = json.loads(next(p for p in _GOLDEN_JSON if p.stem.startswith("reconcile"))
                           .read_text("utf-8"))
    assert _properties("reconcile", "properties", "results") == list(reconcile["results"])


# one argv per results layout, with the library call whose layout it prints
_LIBRARY_RESULTS = [
    (["run", "--bits", "3", "--trials", "4", "--eps", "0.2", "--theta-b", "1.5", "--seed", "5"],
     lambda: protocol.RunSummary.of_trials(
         2, 3, protocol.NoiseModel(0.2, misalign_bob=1.5), 4, 5).to_dict()),
    (["run", "--bits", "2", "--trials", "10", "--agents", "3", "--theta-a", "0.4", "--seed", "6"],
     lambda: protocol.RunSummary.of_trials(
         3, 2, protocol.NoiseModel(misalign_alice=0.4), 10, 6).to_dict()),
    (["attack", "ghz", "--bits", "3", "--trials", "4", "--eve-first", "--seed", "7"],
     lambda: adversary.eve_ghz_attack(3, 4, True, 7).to_dict()),
    (["attack", "w", "--bits", "3", "--trials", "4", "--seed", "7"],
     lambda: adversary.eve_w_attack(3, 4, 7).to_dict()),
    (["attack", "biseparable", "--bits", "3", "--trials", "4", "--seed", "7"],
     lambda: adversary.biseparable_attack(3, 4, 7).to_dict()),
    (["attack", "wolf", "--bits", "3", "--trials", "4", "--target-bit", "1", "--seed", "7"],
     lambda: adversary.wolf_cnot_attack(3, 4, 1, 7).to_dict()),
    (["bound", "--grid", "0.001:0.5:6"],
     lambda: [row.to_dict() for row in analysis.bound_table(np.geomspace(0.001, 0.5, 6))]),
    (["nicd", "--m", "2", "--eps", "0.1"],
     lambda: analysis.nicd_max_correlation(2, 0.1).to_dict()),
    (["reconcile", "--bits", "64", "--eps", "0.05", "--trials", "3", "--seed", "9"],
     lambda: analysis.reconcile_trials(64, 0.05, 3, 9)),
]


@pytest.mark.parametrize("argv,layout", _LIBRARY_RESULTS,
                         ids=[" ".join(argv) for argv, _ in _LIBRARY_RESULTS])
def test_every_command_prints_its_library_results_layout(argv, layout, capsys):
    code, out, err = invoke(argv, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["results"] == json.loads(json.dumps(layout(), default=list))


def test_readme_command_line_examples_run(capsys):
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (commands,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    lines = commands.splitlines()
    assert len(lines) == 11
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "entangle-coord"
        code, out, err = invoke(argv, capsys)
        assert (code, err) == (0, ""), line
        if "--format" not in argv:
            cli.validate_envelope(json.loads(out))
    (envelope,) = re.findall(r"```json\n(.*?)```", section, re.S)
    _, out, _ = invoke(["nicd", "--m", "2", "--eps", "0.1"], capsys)
    assert json.loads(envelope) == json.loads(out)
    # the CSV column table
    columns = re.findall(r"^\| `(\w+)` +\| `([\w,]+)` +\|$", section, re.M)
    assert {command: row.split(",") for command, row in columns} == cli._CSV_COLUMNS


def test_subprocess_invocation_matches_in_process(capsys):
    argv = ["bound", "--eps", "0.01,0.25"]
    _, expected, _ = invoke(argv, capsys)
    proc = subprocess.run(
        [sys.executable, "-m", "entangle_coord.cli", *argv],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == expected
    cli.validate_envelope(json.loads(proc.stdout))


def _peak(argv, capsys) -> int:
    # the tracemalloc peak of one invocation, output included
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    return peak


def _run_peak(trials: int, capsys) -> int:
    return _peak(["run", "--bits", "1", "--trials", str(trials)], capsys)


def test_run_memory_does_not_grow_with_the_trials(capsys):
    # run sums one chunk of trials at a time; 2**13 trials fill one chunk
    _run_peak(2**13, capsys)  # warm caches outside the measurement
    assert _run_peak(2**20, capsys) <= _run_peak(2**13, capsys) + (64 << 10)


def _reconcile_peak(trials: int, capsys) -> int:
    return _peak(["reconcile", "--bits", "512", "--eps", "0.001", "--trials", str(trials)],
                 capsys)


def test_reconcile_memory_does_not_grow_with_the_trials(capsys):
    # reconcile holds one chunk of 16 trials at a time; holding all 384
    # trials' bits and strings took about 370 KiB more
    _reconcile_peak(16, capsys)  # warm caches outside the measurement
    assert _reconcile_peak(384, capsys) <= _reconcile_peak(16, capsys) + (256 << 10)


@st.composite
def _reconcile_cases(draw):
    # trial counts on both sides of the chunk edges, at lanes = 8192 // bits
    bits = draw(st.integers(1, 12) | st.sampled_from([64, 512]))
    lanes = 8192 // bits
    trials = draw(st.sampled_from([lanes - 1, lanes, lanes + 1, 2 * lanes + 1]))
    eps = draw(st.floats(0.0, 0.5, exclude_min=True))
    return bits, eps, trials, draw(st.integers(0, 2**64 - 1))


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@settings(max_examples=8, deadline=None)
@given(case=_reconcile_cases())
# keygen's shapes in perfbench: 4 lanes per chunk at 2048 bits, 2 at 4096,
# each with one trial past a chunk edge
@example(case=(2048, 0.05, 5, 0))
@example(case=(4096, 0.002, 3, 7919))
def test_reconcile_output_equals_the_sequential_reference(case):
    bits, eps, trials, master = case
    envelope = ref.reconcile_envelope(bits, eps, trials, master)
    argv = ["reconcile", "--bits", str(bits), "--eps", repr(eps), "--trials", str(trials),
            "--seed", str(master)]
    envelope["parameters"]["format"] = "json"
    assert _stdout(argv) == json.dumps(envelope, indent=2) + "\n"
    columns = ["n", "eps", "trials", "success_rate", "mean_disclosed_bits",
               "mean_disclosure_rate", "mean_passes"]
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerows([columns, [envelope["results"][column] for column in columns]])
    assert _stdout(argv + ["--format", "csv"]) == table.getvalue()


# each command, and the entangle_coord modules it must not load
_COMMAND_MODULES = [
    (["--version"], {"adversary", "analysis"}),
    (["run", "--bits", "2", "--trials", "3"], {"adversary", "analysis"}),
    (["attack", "w", "--bits", "2", "--trials", "3"], {"analysis"}),
    (["reconcile", "--bits", "16", "--trials", "2"], {"adversary"}),
    (["nicd", "--m", "2", "--eps", "0.1"], {"adversary"}),
    (["bound", "--eps", "0.01"], {"adversary"}),
]
_LOADED_MODULES = """
import contextlib, io, sys
from entangle_coord import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""
# standard modules that only cli.validate_envelope and --format csv need;
# argparse itself imports shutil, so it cannot be left out
_DEFERRED_STDLIB = {"importlib.resources", "csv", "tempfile"}


def _loaded_modules(argv, *flags, env=None) -> set[str]:
    proc = subprocess.run([sys.executable, *flags, "-c", _LOADED_MODULES, *argv],
                          capture_output=True, text=True, timeout=60, env=env)
    code, *loaded = proc.stdout.split()
    assert (code, proc.stderr) == ("0", "")
    return set(loaded)


@pytest.mark.parametrize("argv, absent", _COMMAND_MODULES,
                         ids=[argv[0] for argv, _ in _COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_calls(argv, absent):
    loaded = _loaded_modules(argv)
    assert {"entangle_coord.protocol", "entangle_coord.seeding"} <= loaded
    assert not {f"entangle_coord.{name}" for name in absent} & loaded
    if argv[0] in ("--version", "run", "attack"):
        # without site, whose .pth files may import any module at start-up,
        # and with the package and numpy found from their own directories
        path = os.pathsep.join(str(pathlib.Path(module.__file__).parents[1])
                               for module in (cli, np))
        loaded = _loaded_modules(argv, "-S", env={**os.environ, "PYTHONPATH": path})
        assert not _DEFERRED_STDLIB & loaded


# ----------------------------------------------------------------- renderer

# strings with non-ASCII, quote, backslash and control characters, and a lone
# surrogate, which the ASCII escaper writes as \ud800
_TEXT = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t\r", "é€😀", "\ud800"])
_SCALARS = (
    st.none() | st.booleans() | _TEXT
    | st.integers() | st.sampled_from([2**63, 2**64 + 5, -(2**63) - 1, 10**30])
    | st.floats() | st.sampled_from([-0.0, 5e-324, 1e308])
)
_EMPTY = st.sampled_from([[], (), {}])
_ENVELOPE_SHAPED = st.dictionaries(_TEXT, st.recursive(
    _SCALARS | _EMPTY,
    lambda inner: (
        st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=5)
        | st.lists(_TEXT, max_size=12) | st.lists(_TEXT, max_size=12).map(tuple)
    ),
    max_leaves=40,
), max_size=6)


@settings(max_examples=150, deadline=None)
@given(envelope=_ENVELOPE_SHAPED, block=st.integers(1, 80))
def test_render_writes_exactly_what_json_dumps_gives(envelope, block):
    # short blocks put their boundaries inside small trees
    out = io.StringIO()
    with mock.patch.object(protocol, "BATCH_SLOTS", block):
        cli.render(envelope, "json", out)
    assert out.getvalue() == json.dumps(envelope, indent=2) + "\n"


class _CharCounter:
    """A text sink that keeps nothing but the number of characters written."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


def test_render_never_holds_the_whole_text():
    args = cli.build_parser().parse_args(["attack", "w", "--bits", "2", "--trials", "20000"])
    envelope = args.handler(args)
    sink = _CharCounter()
    tracemalloc.start()
    try:
        cli.render(envelope, "json", sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = json.dumps(envelope, indent=2, default=list) + "\n"
    assert sink.chars == len(expected)
    assert peak < 2 * sink.chars
    out = io.StringIO()
    cli.render(envelope, "json", out)
    assert out.getvalue() == expected


def test_attack_transcripts_render_without_a_string_per_trial():
    # built and rendered: the transcripts cost bytes per slot, not objects
    trials = 2**18
    sink = _CharCounter()
    tracemalloc.start()
    try:
        args = cli.build_parser().parse_args(
            ["attack", "w", "--bits", "1", "--trials", str(trials)])
        cli.render(args.handler(args), "json", sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 3 * len('    "0",\n') * trials
    assert peak < 16 * trials


# (trials, n_bits): no trial, one slot, rows crossing BATCH_SLOTS block
# boundaries, one row longer than a block, and small shapes for small patched blocks
_BIT_SHAPES = st.sampled_from(
    [(0, 3), (1, 1), (protocol.BATCH_SLOTS // 3 + 5, 5), (2, protocol.BATCH_SLOTS + 3)]
) | st.tuples(st.integers(1, 40), st.integers(1, 70))


@st.composite
def _bit_rows_and_strings(draw):
    shape = draw(_BIT_SHAPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.integers(0, 2, shape, dtype=np.uint8)
    return BitRows(bits), ["".join(map(str, row)) for row in bits.tolist()]


def _pair_lists(items):
    return [value for value, _ in items], [plain for _, plain in items]


def _pair_dicts(items):
    return ({key: value for key, (value, _) in items.items()},
            {key: plain for key, (_, plain) in items.items()})


# (tree, the same tree with plain string lists in place of BitRows)
_BIT_TREES = st.dictionaries(_TEXT, st.recursive(
    _bit_rows_and_strings() | (_SCALARS | _EMPTY).map(lambda value: (value, value)),
    lambda inner: (st.lists(inner, max_size=4).map(_pair_lists)
                   | st.dictionaries(_TEXT, inner, max_size=4).map(_pair_dicts)),
    max_leaves=6,
), max_size=4).map(_pair_dicts)


@settings(max_examples=60, deadline=None)
@given(trees=_BIT_TREES, block=st.just(protocol.BATCH_SLOTS) | st.integers(1, 80))
def test_render_writes_bit_rows_as_json_dumps_writes_their_strings(trees, block):
    tree, plain = trees
    out = io.StringIO()
    with mock.patch.object(protocol, "BATCH_SLOTS", block):
        cli.render(tree, "json", out)
    text, expected = out.getvalue(), json.dumps(plain, indent=2) + "\n"
    # where the texts part, not a diff: pytest's diff of such texts takes minutes
    assert len(os.path.commonprefix([text, expected])) == len(text) == len(expected)
