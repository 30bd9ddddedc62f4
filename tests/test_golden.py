"""Frozen golden corpus: every listed invocation prints exactly these bytes.

Criterion 12 only checks that one build repeats itself; this corpus pins the
output across builds, so an engine rewrite that changes a single draw, float
or key order fails here.  The files in tests/data/golden/ were written by
running this module as a script on a build whose output was accepted:

    PYTHONPATH=src python tests/test_golden.py --freeze

Never refreeze to make a failing comparison pass; a difference is a change in
behaviour and has to be explained, not overwritten.
"""

import os
import re
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from entangle_coord import cli
from test_acceptance import CLI_MATRIX

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

CASES = [
    *CLI_MATRIX,
    ["run", "--bits", "1", "--eps", "0.05", "--theta-a", "0.2", "--theta-b", "0.3",
     "--trials", "2000", "--seed", "2"],
    ["run", "--bits", "8", "--agents", "4", "--trials", "300", "--seed", "3"],
    # the records path with k > 2
    ["run", "--bits", "3", "--agents", "5", "--eps", "0.1", "--theta-b", "1.1",
     "--trials", "7", "--seed", "4"],
    # action numbers above 2**63, and the histogram's numeric key order
    ["run", "--bits", "70", "--trials", "12", "--seed", "5"],
    ["run", "--bits", "1", "--agents", "12", "--trials", "3", "--seed", "6"],
    # the records path with k = 2, misaligned on both sides and noisy
    ["run", "--bits", "2", "--eps", "0.2", "--theta-a", "0.4", "--theta-b", "-0.7",
     "--trials", "9", "--seed", "8"],
    ["run", "--bits", "4", "--agents", "3", "--trials", "40", "--seed", "10",
     "--format", "csv"],
    ["reconcile", "--bits", "512", "--eps", "0.05", "--trials", "5", "--seed", "9"],
    ["bound", "--grid", "0.0001:0.5:25"],
    # the GHZ attack with the honest parties measuring first
    ["attack", "ghz", "--bits", "4", "--trials", "25", "--seed", "12"],
    # the wolf attack with its default ancilla bit 0
    ["attack", "wolf", "--bits", "3", "--trials", "15", "--seed", "13"],
    # the W attack with several slots per trial
    ["attack", "w", "--bits", "6", "--trials", "30", "--seed", "14"],
    # the exact NICD value at m = 3 and m = 4; at eps 0.005 a BLAS-reduced
    # m = 4 value used to depend on the OpenBLAS kernel
    ["nicd", "--m", "3", "--eps", "0.1"],
    ["nicd", "--m", "4", "--eps", "0.1"],
    ["nicd", "--m", "4", "--eps", "0.005"],
    # the achiever column of the NICD CSV table
    ["nicd", "--m", "2", "--eps", "0.1", "--format", "csv"],
    # run aggregates summed over several chunks: 8 chunks with a histogram
    # counted per action number (2**3 <= BATCH_SLOTS), and 3 chunks with
    # one merged from each chunk's counts (2**14 > BATCH_SLOTS)
    ["run", "--bits", "3", "--eps", "0.05", "--theta-b", "0.3", "--trials", "20000",
     "--seed", "17"],
    ["run", "--bits", "14", "--agents", "3", "--trials", "1500", "--seed", "19"],
]


def golden_path(argv) -> Path:
    suffix = ".csv" if "csv" in argv else ".json"
    return GOLDEN_DIR / (re.sub(r"[^A-Za-z0-9.]+", "_", " ".join(argv)) + suffix)


def test_case_files_are_distinct():
    assert len({golden_path(argv) for argv in CASES}) == len(CASES)


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) for a in CASES])
def test_output_is_byte_equal_to_golden(argv, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.encode("utf-8") == golden_path(argv).read_bytes()


def _freeze() -> None:
    os.environ.pop("ENTANGLE_COORD_SEED", None)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for argv in CASES:
        buffer = StringIO()
        with redirect_stdout(buffer):
            assert cli.main(argv) == 0, argv
        golden_path(argv).write_bytes(buffer.getvalue().encode("utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --freeze")
    _freeze()
