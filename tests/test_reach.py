"""Every function in src/ is reached by a command, or has a stated reason not to be.

The golden invocations of tests/test_golden.py, one `--format csv`
invocation of each command and `--version` run through cli.main under a
profile hook, which records every function body entered.  The functions of
the package that none of them enters must be exactly the keys of UNREACHED,
each with one reason from REASONS.  So a new function that no command
reaches fails here until a golden invocation reaches it or it gets a
reason, and an entry fails once a command reaches it or its function is
gone.  Functions are named by their qualified names, found from the code
objects of each module's source (Python 3.10 code objects carry no
co_qualname).
"""

import contextlib
import importlib
import inspect
import io
import sys
from pathlib import Path

import entangle_coord
from entangle_coord import cli
from test_golden import CASES

README = "documented in README.md"
ACCEPTANCE = "imported by tests/test_acceptance.py"
VALIDATE = "cli.validate_envelope support"
TRACER = "looked up by name in perfbench/tracing.py"
REFERENCE = "used by tests/sequential_reference.py"
SCRIPT = "the entangle-coord console script in pyproject.toml"
REASONS = {README, ACCEPTANCE, VALIDATE, TRACER, REFERENCE, SCRIPT}

UNREACHED = {
    "analysis.reconcile": README,
    "cli.entry": SCRIPT,
    "cli.validate_envelope": README,
    "protocol.BitRows.__eq__": README,
    "protocol.BitRows.__getitem__": README,
    "protocol.BitRows.__iter__": README,
    "protocol.BitRows.from_strings": VALIDATE,
    "protocol.StateRegistry.__init__": REFERENCE,
    "protocol.StateRegistry.measure": TRACER,
    "protocol.StateRegistry.rotate": TRACER,
    "protocol.StateRegistry.state": REFERENCE,  # the reference's registry, read by its tests
    "protocol._one_trial": README,  # the body of run_protocol and run_multiagent
    "protocol.iter_runs": README,
    "protocol.run_multiagent": README,
    "protocol.run_protocol": README,
    "qsim.PureState.__init__": README,
    "qsim.apply_y_rotation": ACCEPTANCE,
    "qsim.measure_qubit": TRACER,
    "qsim.measurement_probabilities": REFERENCE,
    "seeding.SplitMix64.__init__": ACCEPTANCE,
    "seeding.SplitMix64.next_uint64": TRACER,
    "seeding.SplitMix64.random": ACCEPTANCE,
    "seeding.SplitMix64.randrange": TRACER,
}


def _functions() -> dict:
    # (file, first line, name) of each function's code object -> "module.qualname";
    # lambdas and comprehensions ("<lambda>", "<listcomp>", ...) are parts of
    # the function around them
    found = {}

    def walk(code, prefix: str) -> None:
        for const in code.co_consts:
            if inspect.iscode(const) and not const.co_name.startswith("<"):
                name = prefix + const.co_name
                if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                    found[const.co_filename, const.co_firstlineno, const.co_name] = name
                    walk(const, name + ".<locals>.")
                else:
                    walk(const, name + ".")

    for path in sorted(Path(entangle_coord.__file__).parent.glob("*.py")):
        module = importlib.import_module(
            "entangle_coord" + ("" if path.stem == "__init__" else "." + path.stem))
        code = compile(Path(module.__file__).read_text("utf-8"), module.__file__, "exec")
        walk(code, path.stem + ".")
    return found


def _invocations() -> list:
    commands = dict.fromkeys(argv[0] for argv in CASES)
    csv = [[*next(argv for argv in CASES if argv[0] == command), "--format", "csv"]
           for command in commands]
    return [*CASES, *csv, ["--version"]]


def test_every_function_no_command_reaches_has_a_reason():
    functions = _functions()
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for argv in _invocations():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    finally:
        sys.setprofile(previous)
    unreached = {name for key, name in functions.items() if key not in entered}
    assert set(UNREACHED.values()) <= REASONS
    no_reason = sorted(unreached - set(UNREACHED))
    assert not no_reason, f"no command reaches these and no reason keeps them: {no_reason}"
    stale = sorted(set(UNREACHED) - unreached)
    assert not stale, f"allow-listed, but reached by a command or gone: {stale}"
