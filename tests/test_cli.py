import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import warnings

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_coord import cli
from entangle_coord.qsim import QUBIT_CAP


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("ENTANGLE_COORD_SEED", raising=False)


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
    (["run", "--trials", "0"], "--trials must be at least 1"),
    (["run", "--seed", "-1"], "master seed must be non-negative"),
    (["reconcile", "--bits", "0"], "n_bits must be at least 1"),
    (["reconcile", "--eps", "0.6"], "flip_prob must lie in [0, 0.5]"),
    (["reconcile", "--eps", "0"], "eps_hint 0.0 outside (0, 0.5]"),
])
def test_invalid_protocol_inputs_keep_their_messages(argv, message, capsys):
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("argv,message", [
    (["bound", "--eps", "1e-320"], "eps 1e-320 too small: 1/H(eps) overflows a float"),
    (["bound", "--grid", "1e-320:0.5:3"], "eps 1e-320 too small: 1/H(eps) overflows a float"),
    (["bound", "--grid", "0.1:inf:1"], "--grid LO and HI must be finite"),
    (["bound", "--grid", "inf:inf:3"], "--grid LO and HI must be finite"),
])
def test_bound_extreme_inputs_print_only_the_error(argv, message, capsys):
    # a numpy RuntimeWarning on the way would turn into exit code 1 here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


_SEEDED = [["run"], ["reconcile"],
           *(["attack", kind] for kind in ("ghz", "w", "biseparable", "wolf"))]


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
    (["run", "--ep", "-1e+20"], "flip_prob must lie in [0, 0.5]"),
    (["reconcile", "--eps", "-1e-3"], "flip_prob must lie in [0, 0.5]"),
    (["run", "--theta-b", "-inf"], "misalignment angles must be finite"),
    (["nicd", "--m", "2", "--eps", "-1e-3"], "eps -0.001 outside [0, 0.5]"),
    (["bound", "--eps", "-1e-3,0.1"], "eps -0.001 outside (0, 0.5]"),
    (["bound", "--grid", "-1e-3:0.1:3"], "--grid requires 0 < LO <= HI"),
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
])
def test_usage_errors_exit_2(argv, capsys):
    code, _, _ = invoke(argv, capsys)
    assert code == 2


def test_unexpected_failure_exits_1(capsys, monkeypatch):
    def boom(_):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "bound_table", boom)
    code, out, err = invoke(["bound", "--eps", "0.01"], capsys)
    assert code == 1
    assert out == ""
    assert "wires crossed" in err


def test_help_and_version_exit_0(capsys):
    assert invoke(["--help"], capsys)[0] == 0
    code, out, _ = invoke(["--version"], capsys)
    assert code == 0


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


_VALID_ARGV = st.one_of(
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
def test_reconcile_bound_and_nicd_envelopes_match_the_schema(argv):
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


def test_subprocess_invocation_matches_in_process(capsys):
    argv = ["bound", "--eps", "0.01,0.25"]
    _, expected, _ = invoke(argv, capsys)
    proc = subprocess.run(
        [sys.executable, "-m", "entangle_coord.cli", *argv],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == expected
    cli.validate_envelope(json.loads(proc.stdout))
