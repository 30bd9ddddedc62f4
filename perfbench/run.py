"""Benchmark of the `entangle-coord` command line, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload coord-mc --seed 0 --seconds 20 --trace 0

With `--trace 0` the workload's invocations run as real `entangle-coord`
subprocesses, one at a time, in rounds until `--seconds` are used (at least
two rounds).  Every invocation is checked: exit code 0, empty stderr, an
envelope that passes `cli.validate_envelope`, the workload's exact
invariants, and byte-identical stdout (against digests.json on the default
seed, against the first round otherwise).  Set-up time is the median of
several `entangle-coord --version` launches.

With `--trace 1` the same invocations run in this process through
`cli.main`, alternating untraced and traced passes, and the layer metrics
come from the spans and counts of tracing.py.  Exact counts must repeat in
every traced pass.

A readable report goes to stdout first; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, instrument
from workloads import DEFAULT_SEED, HOLDOUT_SEED, WORKLOADS, CheckFailed, Invocation

SETUP_LAUNCHES = 7
MIN_ROUNDS = 2  # the second round checks the first byte for byte
MIN_TRACED_PASSES = 2  # exact counts must repeat across traced passes
BENCH_DIR = Path(__file__).resolve().parent
LAYER_MODULES = ("seeding", "qsim", "protocol", "adversary", "analysis", "cli")


def _fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


# ------------------------------------------------------------ subprocesses


def _launch(argv: list[str], env: dict) -> tuple[float, float, int, bytes, bytes]:
    """Run one invocation; return (wall s, peak RSS MB, exit code, stdout, stderr).

    The wall time and peak RSS are the invocation's own, taken by spawn.py
    from wait4's rusage: RUSAGE_CHILDREN would be a running maximum over
    every child so far.
    """
    read_fd, write_fd = os.pipe()
    cmd = [sys.executable, "-I", "-S", str(BENCH_DIR / "spawn.py"), str(write_fd),
           sys.executable, "-m", "entangle_coord.cli", *argv]
    try:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, pass_fds=(write_fd,))
    finally:
        os.close(write_fd)
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    with os.fdopen(read_fd) as report, selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            for key, _ in selector.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
        proc.wait()
        wall, maxrss_kb, code = report.read().split()
    out, err = (b"".join(chunks[s]) for s in (proc.stdout, proc.stderr))
    return float(wall), int(maxrss_kb) / 1024.0, int(code), out, err


class Gate:
    """The correctness check every invocation passes through."""

    def __init__(self, workload: str, seed: int, validate_envelope) -> None:
        self.validate = validate_envelope
        self.attempted = 0
        self.failed = 0
        if seed == DEFAULT_SEED:
            frozen = json.loads((BENCH_DIR / "digests.json").read_text("utf-8"))
            self.expected = list(frozen[workload])
        else:  # the first output of each invocation is the reference
            self.expected = [None] * len(WORKLOADS[workload])

    def check(self, index: int, inv: Invocation, code: int, out: bytes, err: bytes) -> None:
        self.attempted += 1
        try:
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            if err:
                raise CheckFailed(f"stderr not empty: {err[:200]!r}")
            envelope = json.loads(out)
            self.validate(envelope)
            inv.check(envelope)
            digest = hashlib.sha256(out).hexdigest()
            if self.expected[index] is None:
                self.expected[index] = digest
            elif digest != self.expected[index]:
                raise CheckFailed(f"stdout digest {digest} != {self.expected[index]}")
        except (CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.fail(f"{' '.join(inv.args)}: {exc}")

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)


def _child_env(root: Path) -> dict:
    # A fixed hash seed removes one source of run-to-run variation in
    # dict and set layout; the output does not depend on it.
    env = {k: v for k, v in os.environ.items() if k != "ENTANGLE_COORD_SEED"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _measure_setup(env: dict, version: str, gate: Gate) -> list[float]:
    """Wall times of `entangle-coord --version`: interpreter plus package import."""
    expected = f"entangle-coord {version}\n".encode()
    walls = []
    for launch in range(SETUP_LAUNCHES + 1):  # the first one writes bytecode caches
        wall, _, code, out, err = _launch(["--version"], env)
        gate.attempted += 1
        if code != 0 or err or out != expected:
            gate.fail(f"--version: exit {code}, stdout {out!r}, stderr {err!r}")
        if launch:
            walls.append(wall)
    return walls


def run_end_to_end(workload: str, seed: int, seconds: float, root: Path, gate: Gate,
                   version: str) -> tuple[dict, list[str]]:
    invocations = WORKLOADS[workload]
    env = _child_env(root)
    setup = _measure_setup(env, version, gate)
    walls = [[] for _ in invocations]
    rss = [0.0] * len(invocations)
    sizes = [0] * len(invocations)
    rounds: list[float] = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + rounds[-1] <= seconds:
        round_wall = 0.0
        for i, inv in enumerate(invocations):
            wall, peak, code, out, err = _launch(inv.argv(seed), env)
            gate.check(i, inv, code, out, err)
            walls[i].append(wall)
            rss[i] = max(rss[i], peak)
            sizes[i] = len(out)
            round_wall += wall
        rounds.append(round_wall)

    trials = sum(inv.trials for inv in invocations)
    metrics = {
        "wall_s": (statistics.median(rounds), "s"),
        "trials_per_s": (statistics.median(trials / w for w in rounds), "1/s"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    lines = [f"{len(rounds)} rounds of {len(invocations)} invocations; "
             f"a round completes {trials} trials"]
    lines.append(f"{'invocation':<58} {'median s':>9} {'peak MB':>8} {'stdout B':>9}")
    for inv, w, peak, size in zip(invocations, walls, rss, sizes):
        lines.append(f"{' '.join(inv.argv(seed)):<58} {statistics.median(w):9.3f} "
                     f"{peak:8.1f} {size:9d}")
    lines.append(f"wall_s per round: median {statistics.median(rounds):.4f} s, "
                 f"n={len(rounds)}, {_tail(rounds)}")
    lines.append(f"setup_s: median of {len(setup)} --version launches, "
                 f"min {min(setup):.4f} s, max {max(setup):.4f} s")
    return metrics, lines


def _tail(samples: list[float]) -> str:
    # The highest percentile with at least ten samples beyond it; only
    # meaningful once it lies above the median.
    n = len(samples)
    if n < 21:
        return "no percentile above the median has 10 samples beyond it"
    rank = n - 10  # 1-based rank of the sample with ten beyond it
    return f"p{100 * rank // n} {sorted(samples)[rank - 1]:.4f} s"


# ------------------------------------------------------------- traced run


def _import_layers(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    import importlib

    return {name: importlib.import_module(f"entangle_coord.{name}") for name in LAYER_MODULES}


def _clear_caches(modules: dict) -> None:
    # Every CLI invocation is a fresh process that builds these caches again,
    # so each in-process invocation starts without them too.
    for module in modules.values():
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _in_process_pass(modules: dict, invocations: list, seed: int, gate: Gate,
                     tracer: Tracer | None) -> tuple[float, int]:
    """One pass over the workload through cli.main; returns (wall s, stdout bytes)."""
    cli = modules["cli"]
    wall = 0.0
    stdout_bytes = 0
    for i, inv in enumerate(invocations):
        _clear_caches(modules)
        out, err = io.StringIO(), io.StringIO()
        patches = instrument(tracer, modules) if tracer else contextlib.nullcontext()
        with patches, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(inv.argv(seed))
            wall += time.perf_counter() - start
        data = out.getvalue().encode("utf-8")
        stdout_bytes += len(data)
        gate.check(i, inv, code, data, err.getvalue().encode("utf-8"))
    return wall, stdout_bytes


def _layer_metrics(tracer: Tracer, stdout_bytes: int) -> dict:
    c = tracer.counts
    t = tracer.total

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    trials = c["protocol.trials"]
    return {
        "protocol.trials": (trials, "count"),
        "protocol.self_s": (tracer.self_time("protocol."), "s"),
        "protocol.trials_per_s": (ratio(trials, t("protocol.")), "1/s"),
        "protocol.measurements_per_trial": (ratio(c["protocol.measurements"], trials),
                                            "1/trial"),
        "seeding.draws": (tracer.draws, "count"),
        "seeding.draws_per_trial": (ratio(tracer.draws, trials + c["adversary.trials"]),
                                    "1/trial"),
        "seeding.derive_calls": (c["seeding.derive_calls"], "count"),
        "seeding.randrange_reject_frac": (ratio(c["seeding.randrange_rejects"],
                                                c["seeding.randrange_draws"]), "ratio"),
        "qsim.measure_calls.small": (c["qsim.measure_calls.small"], "count"),
        "qsim.measure_calls.wide": (c["qsim.measure_calls.wide"], "count"),
        "qsim.measure_s.small": (t("qsim.measure.small"), "s"),
        "qsim.measure_s.wide": (t("qsim.measure.wide"), "s"),
        "qsim.rotate_calls": (c["qsim.rotate_calls"], "count"),
        "qsim.is_product_calls": (c["qsim.is_product_calls"], "count"),
        "qsim.degenerate_skips": (c["qsim.degenerate_skips"], "count"),
        "qsim.bytes_moved_computed": (c["qsim.bytes_moved_computed"], "B"),
        "adversary.slots": (c["adversary.slots"], "count"),
        "adversary.self_s": (tracer.self_time("adversary."), "s"),
        "adversary.slots_per_s": (ratio(c["adversary.slots"], t("adversary.")), "1/s"),
        "analysis.reconcile_s": (t("analysis.reconcile"), "s"),
        "analysis.reconcile_bits_per_s": (ratio(c["analysis.reconciled_bits"],
                                                t("analysis.reconcile")), "bits/s"),
        "analysis.disclosed_bits": (c["analysis.disclosed_bits"], "count"),
        "analysis.mean_passes": (ratio(c["analysis.passes"], c["analysis.reconcile_calls"]),
                                 "count"),
        "analysis.nicd_s": (t("analysis.nicd"), "s"),
        "cli.parse_s": (t("cli.parse"), "s"),
        "cli.render_s": (t("cli.render"), "s"),
        "cli.render_mb_per_s": (ratio(stdout_bytes / 1e6, t("cli.render")), "MB/s"),
        "cli.stdout_bytes": (stdout_bytes, "B"),
    }


def _exact_counts(tracer: Tracer, stdout_bytes: int) -> dict:
    return {**tracer.counts, "seeding.draws": tracer.draws, "cli.stdout_bytes": stdout_bytes}


def run_traced(workload: str, seed: int, seconds: float, modules: dict,
               gate: Gate) -> tuple[dict, list[str]]:
    invocations = WORKLOADS[workload]
    untraced: list[float] = []
    traced: list[tuple[float, Tracer, int]] = []
    start = time.perf_counter()
    while (len(traced) < MIN_TRACED_PASSES
           or time.perf_counter() - start + untraced[-1] + traced[-1][0] <= seconds):
        untraced.append(_in_process_pass(modules, invocations, seed, gate, None)[0])
        for _ in range(MIN_TRACED_PASSES if not traced else 1):
            tracer = Tracer()
            wall, stdout_bytes = _in_process_pass(modules, invocations, seed, gate, tracer)
            traced.append((wall, tracer, stdout_bytes))

    reference = _exact_counts(traced[0][1], traced[0][2])
    repeats = all(_exact_counts(tr, size) == reference for _, tr, size in traced[1:])
    gate.attempted += 1  # the exact-count self-check
    if not repeats:
        gate.fail("exact counts differ between traced passes")

    per_pass = [_layer_metrics(tr, size) for _, tr, size in traced]
    # Counts repeat exactly, so they stay whole; times are medians.
    metrics = {}
    for name, (first, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        metrics[name] = (first if isinstance(first, int) else statistics.median(values), unit)
    traced_wall = statistics.median(w for w, _, _ in traced)
    metrics["trace.overhead_frac"] = (traced_wall / statistics.median(untraced) - 1.0, "ratio")

    lines = [f"{len(untraced)} untraced and {len(traced)} traced in-process passes; "
             f"exact counts repeat: {repeats}",
             f"{'span':<34} {'count':>9} {'total s':>10} {'self s':>10}"]
    for name, (count, total, own) in sorted(traced[0][1].spans.items()):
        lines.append(f"{name:<34} {count:9d} {total:10.4f} {own:10.4f}")
    lines.append("counts: " + json.dumps(reference, sort_keys=True))
    return metrics, lines


# ----------------------------------------------------------------- context


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit(root: Path) -> str | None:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:  # not a git checkout, or the ref is packed
        return None


def _l3_bytes() -> int | None:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10, check=True).stdout
        return int(out.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return None


def _max_qubits(invocations: list[Invocation]) -> int:
    def qubits(args: tuple) -> int:
        if "--agents" in args:
            return int(args[args.index("--agents") + 1])
        return 3 if args[0] == "attack" else 2
    return max(qubits(inv.args) for inv in invocations)


def _context(workload: str, seed: int, trace: int, root: Path, numpy_version: str) -> dict:
    l3 = _l3_bytes()
    state_bytes = 16 << _max_qubits(WORKLOADS[workload])
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "holdout_seed": HOLDOUT_SEED,
        "trace": trace,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "l3_bytes": l3,
        "largest_state_bytes": state_bytes,
        "largest_state_fits_l3": None if l3 is None else state_bytes <= l3,
        "invocations": [" ".join(inv.argv(seed)) for inv in WORKLOADS[workload]],
    }


# -------------------------------------------------------------------- main


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not 0 <= args.seed < 1 << 63:
        _fail_setup("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        _fail_setup("--seconds must be positive")

    # One CPU for this process and every child: the benchmark runs one
    # invocation at a time, and a fixed CPU measures steadier than a
    # migrating one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd()
    if not (root / "src" / "entangle_coord" / "cli.py").is_file():
        _fail_setup(f"no entangle_coord sources under {root / 'src'}; "
                    "run from the root of a source checkout")
    modules = _import_layers(root)
    import numpy

    gate = Gate(args.workload, args.seed, modules["cli"].validate_envelope)
    context = _context(args.workload, args.seed, args.trace, root, numpy.__version__)
    print("context " + json.dumps(context))
    if args.trace:
        metrics, lines = run_traced(args.workload, args.seed, args.seconds, modules, gate)
    else:
        metrics, lines = run_end_to_end(args.workload, args.seed, args.seconds, root, gate,
                                        modules["cli"].__version__)
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    print(f"{'failed_frac':<34} {gate.failed / gate.attempted:>16.6g} ratio "
          f"({gate.failed} of {gate.attempted} invocations)")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
