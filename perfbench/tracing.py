"""In-process tracing of the package's layers, from outside the package.

`instrument(tracer)` replaces, for the duration of a `with` block, the public
entry points of each module with wrappers that record spans and counts.  It
patches the attribute each caller actually looks up: a function imported by
name into another module (`derive_seed` into four modules, the drivers into
`cli`) is replaced in every namespace that holds it, and `SplitMix64` and
`StateRegistry` methods are replaced on their classes.  No source file of the
package changes.

Spans are aggregated in memory by name as [count, total seconds, self
seconds]; self time is a span's duration minus the time of the spans it
encloses.  Draws are counted, not timed, so their cost stays in the self
time of whoever drew.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

#: Register sizes are reported in two classes; no workload uses 5..11 qubits.
SMALL_MAX_QUBITS = 4
WIDE_MIN_QUBITS = 12
_AMP_BYTES = 16  # one complex128 amplitude


class Tracer:
    """Aggregated spans plus event counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.draws = 0  # SplitMix64 outputs, read by the measurement wrappers
        self._stack = [0.0]  # child time accumulated by each open span

    def enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def exit(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        self._stack[-1] += elapsed
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - child

    def span(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(args, result)` may record counts."""

        def wrapper(*args, **kwargs):
            start = self.enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(name, start)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def total(self, prefix: str) -> float:
        """Summed duration of the spans whose name starts with `prefix`."""
        return sum((rec[1] for name, rec in self.spans.items() if name.startswith(prefix)), 0.0)

    def self_time(self, prefix: str) -> float:
        return sum((rec[2] for name, rec in self.spans.items() if name.startswith(prefix)), 0.0)


def _size_class(n: int) -> str | None:
    if n <= SMALL_MAX_QUBITS:
        return "small"
    if n >= WIDE_MIN_QUBITS:
        return "wide"
    return None


def _measure_wrapper(tracer: Tracer, fn, qubits_of, caller: str):
    # One Born-rule measurement: time it by register size, count it for the
    # calling layer, count it as degenerate when it consumed no draw, and add
    # two computed passes over the amplitudes (probability sum, collapse).
    counts = tracer.counts

    def wrapper(*args):
        n = qubits_of(args)
        cls = _size_class(n)
        draws = tracer.draws
        start = tracer.enter()
        try:
            return fn(*args)
        finally:
            tracer.exit(f"qsim.measure.{cls or 'other'}", start)
            counts[f"qsim.measure_calls.{cls or 'other'}"] += 1
            counts[f"{caller}.measurements"] += 1
            counts["qsim.degenerate_skips"] += tracer.draws == draws
            counts["qsim.bytes_moved_computed"] += 2 * _AMP_BYTES << n

    return wrapper


def _registry_qubits(args) -> int:
    registry, index = args[0], args[1]
    return registry._sizes[index]


@contextlib.contextmanager
def instrument(tracer: Tracer, modules: dict):
    """Patch the package's layer boundaries to report into `tracer`.

    `modules` maps the short module names (seeding, qsim, protocol,
    adversary, analysis, cli) to the imported modules.  Every patched
    attribute is restored on exit.
    """
    saved: list[tuple[object, str, object]] = []

    def patch(owners, name: str, make):
        original = getattr(owners[0], name)
        wrapper = make(original)
        for owner in owners:
            if getattr(owner, name, None) is original:
                saved.append((owner, name, original))
                setattr(owner, name, wrapper)

    try:
        _patch_layers(tracer, modules, patch)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _patch_layers(tracer: Tracer, modules: dict, patch) -> None:
    seeding, qsim, protocol = modules["seeding"], modules["qsim"], modules["protocol"]
    adversary, analysis, cli = modules["adversary"], modules["analysis"], modules["cli"]
    counts = tracer.counts

    # seeding: counts only
    def count_derive(fn):
        def derive_seed(master, index):
            counts["seeding.derive_calls"] += 1
            return fn(master, index)
        return derive_seed

    def count_draw(fn):
        def next_uint64(self):
            tracer.draws += 1
            return fn(self)
        return next_uint64

    def count_randrange(fn):
        def randrange(self, n):
            before = tracer.draws
            value = fn(self, n)
            used = tracer.draws - before
            counts["seeding.randrange_draws"] += used
            counts["seeding.randrange_rejects"] += max(0, used - 1)
            return value
        return randrange

    patch([seeding, protocol, adversary, analysis, cli], "derive_seed", count_derive)
    patch([seeding.SplitMix64], "next_uint64", count_draw)
    patch([seeding.SplitMix64], "randrange", count_randrange)

    # qsim, reached by protocol through StateRegistry ...
    registry = protocol.StateRegistry
    patch([registry], "measure",
          lambda fn: _measure_wrapper(tracer, fn, _registry_qubits, "protocol"))

    def rotate_wrapper(fn):
        def rotate(self, index, position, theta):
            start = tracer.enter()
            try:
                return fn(self, index, position, theta)
            finally:
                tracer.exit("qsim.rotate", start)
                counts["qsim.rotate_calls"] += 1
                counts["qsim.bytes_moved_computed"] += 2 * _AMP_BYTES << self._sizes[index]
        return rotate

    patch([registry], "rotate", rotate_wrapper)

    # ... and by adversary through the public operators
    patch([qsim], "measure_qubit",
          lambda fn: _measure_wrapper(tracer, fn, lambda args: args[0].num_qubits,
                                      "adversary"))

    def is_product_after(args, result):
        counts["qsim.is_product_calls"] += 1
        counts["qsim.bytes_moved_computed"] += _AMP_BYTES << args[0].num_qubits

    def cnot_after(args, result):
        counts["qsim.bytes_moved_computed"] += 2 * _AMP_BYTES << args[0].num_qubits

    patch([qsim], "is_product", lambda fn: tracer.span("qsim.is_product", fn, is_product_after))
    patch([qsim], "apply_cnot", lambda fn: tracer.span("qsim.apply_cnot", fn, cnot_after))

    # protocol: one span per trial
    def trial_after(args, result):
        counts["protocol.trials"] += 1

    for name in ("run_protocol", "run_multiagent"):
        patch([protocol, cli], name, lambda fn, name=name: tracer.span(
            f"protocol.{name}", fn, trial_after))

    # adversary: one span per attack, slots = bits x trials
    def attack_after(args, report):
        counts["adversary.trials"] += report.trials
        counts["adversary.slots"] += report.trials * report.n_bits

    for name in ("eve_ghz_attack", "eve_w_attack", "biseparable_attack", "wolf_cnot_attack"):
        patch([adversary, cli], name, lambda fn, name=name: tracer.span(
            f"adversary.{name}", fn, attack_after))

    # analysis
    def reconcile_after(args, result):
        report = result[0]
        counts["analysis.reconcile_calls"] += 1
        counts["analysis.reconciled_bits"] += report.n
        counts["analysis.disclosed_bits"] += report.disclosed_bits
        counts["analysis.passes"] += report.passes

    patch([analysis, cli], "reconcile",
          lambda fn: tracer.span("analysis.reconcile", fn, reconcile_after))
    patch([analysis, cli], "nicd_max_correlation",
          lambda fn: tracer.span("analysis.nicd", fn))
    patch([analysis, cli], "bound_table", lambda fn: tracer.span("analysis.bound", fn))

    # cli: parsing (parser construction and parse_args) and rendering
    def build_parser_wrapper(fn):
        traced = tracer.span("cli.parse", fn)

        def build_parser():
            parser = traced()
            parser.parse_args = tracer.span("cli.parse", parser.parse_args)
            return parser
        return build_parser

    patch([cli], "build_parser", build_parser_wrapper)
    patch([cli], "render", lambda fn: tracer.span("cli.render", fn))
    patch([cli], "main", lambda fn: tracer.span("cli.main", fn))
