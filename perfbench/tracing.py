"""Spans recorded around the calls into each ``qkd_sift`` layer.

The traced run wraps module-level references from outside the package: the
references ``protocol``, ``stats`` and ``cli`` call through, plus the entry
points the workloads call.  Nothing under ``src/`` changes, and every
reference is restored when :func:`installed` exits, so untraced ops in the
same process run the original code.

A span records name, start, end, parent, thread and op id, and the CPU time
of its thread at start and end: on the thread pool a span's wall time also
counts the time its thread waited for the interpreter lock.  Spans opened on a
pool thread with no open span of their own take as parent the innermost open
span of the main thread, which is the ``coverage_trials`` call blocked in
``pool.map``.  The adversary's ``behavior`` runs once per emitted round, so it
is not given spans: its calls and time are added to the open session span of
the calling thread.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator

from summary import median, self_time

SESSION_SPANS = ("protocol.run_estimation", "protocol.run_actual", "protocol.run_virtual")
LAW_BUILD_SPANS = ("quantum_core.channel_branches", "quantum_core.qubit_channel_branches")

# quantum_core functions that protocol calls through its module namespace,
# all of them only while building a round law.
_QUANTUM_CORE = (
    "channel_branches",
    "qubit_channel_branches",
    "filter_branches",
    "prob_phase_error",
    "pair_outcome_probs",
    "qubit_outcome_probs",
)
_HASHING = ("random_bits", "toeplitz_hash", "random_prime", "poly_hash")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("quantum_core.law_builds", "count"),
    ("quantum_core.warmup_law_builds", "count"),
    ("quantum_core.law_build_ms", "ms"),
    ("adversary.behavior_calls", "count"),
    ("adversary.behavior_us_per_call", "us"),
    ("adversary.behavior_share", "ratio"),
    ("protocol.emitted_rounds", "count"),
    ("protocol.detected_rounds", "count"),
    ("protocol.detected_ratio", "ratio"),
    ("protocol.estimation_us_per_detected_round", "us"),
    ("protocol.actual_us_per_detected_round", "us"),
    ("protocol.virtual_us_per_detected_round", "us"),
    ("protocol.bytes_per_emitted_round", "B"),
    ("protocol.serialize_ms", "ms"),
    ("protocol.postprocess_self_ms", "ms"),
    ("stats.coverage_trials_self_ms", "ms"),
    ("stats.coverage_report_ms", "ms"),
    ("stats.pool_busy_ratio", "ratio"),
    ("stats.pool_cpu_ratio", "ratio"),
    ("stats.enumerate_bias_ms.per_basis_k11", "ms"),
    ("stats.enumerate_bias_ms.detected_k10", "ms"),
    ("stats.enumerate_bias_peak_mib", "MiB"),
    ("finite_key.pipeline_us", "us"),
    ("hashing.toeplitz_ms", "ms"),
    ("hashing.poly_hash_ms", "ms"),
    ("hashing.random_prime_ms", "ms"),
    ("cli.load_config_ms", "ms"),
    ("cli.render_report_ms", "ms"),
    ("cli.write_ms", "ms"),
    ("cli.artifact_bytes", "B"),
    ("trace.untraced_op_p50_ms", "ms"),
    ("trace.traced_op_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

# Counts that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "quantum_core.law_builds",
    "quantum_core.warmup_law_builds",
    "adversary.behavior_calls",
    "protocol.emitted_rounds",
    "protocol.detected_rounds",
    "cli.artifact_bytes",
)


@dataclass
class Span:
    id: int
    name: str
    op: Any
    parent: int | None
    thread: int
    start: float
    cpu_start: float  # time.thread_time(): CPU time of the span's thread
    end: float = 0.0
    cpu_end: float = 0.0
    behavior_calls: int = 0
    behavior_s: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; :meth:`write` saves them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Any = None
        self._ids = itertools.count()
        self._main = threading.main_thread().ident
        # Open spans per thread ident; each thread only touches its own list.
        self._stacks: dict[int, list[Span]] = {self._main: []}

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Callable[[Span, Any, tuple], None] | None = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``; ``on_result`` reads counts off the result."""
        stacks = self._stacks
        main = stacks[self._main]

        def traced(*args: Any, **kwargs: Any) -> Any:
            ident = threading.get_ident()
            stack = stacks.setdefault(ident, [])
            outer = stack[-1] if stack else (main[-1] if main else None)
            span = Span(
                next(self._ids),
                name,
                self.op,
                outer.id if outer else None,
                ident,
                time.perf_counter(),
                time.thread_time(),
            )
            stack.append(span)
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu_end = time.thread_time()
                span.end = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(span, result, args)
            return result

        return traced

    def wrap_strategy(self, strategy: Any) -> Any:
        """The same strategy, with ``behavior`` calls added to the open span."""
        inner = strategy.behavior
        stacks = self._stacks
        get_ident = threading.get_ident
        clock = time.perf_counter

        def behavior(prefix: Any, rng: Any) -> Any:
            t0 = clock()
            op = inner(prefix, rng)
            t1 = clock()
            stack = stacks.get(get_ident())
            if stack:
                span = stack[-1]
                span.behavior_calls += 1
                span.behavior_s += t1 - t0
            return op

        return type(strategy)(label=strategy.label, behavior=behavior)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class _ModuleProxy:
    """Stands in for a module reference; listed functions are replaced."""

    def __init__(self, module: Any, replaced: dict[str, Callable]) -> None:
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def _count_estimation(span: Span, run: Any, args: tuple) -> None:
    span.attrs["emitted"] = len(run.transcript.rounds)
    span.attrs["detected"] = len(run.per_round)


def _count_session(span: Span, out: Any, args: tuple) -> None:
    transcript = out[0]
    span.attrs["emitted"] = len(transcript.rounds)
    span.attrs["detected"] = transcript.n_detected


def _label_bias(span: Span, report: Any, args: tuple) -> None:
    span.attrs["rule"] = type(args[0]).__name__


def _count_bytes(span: Span, text: str, args: tuple) -> None:
    # json.dumps escapes non-ASCII by default and CSV holds numbers, so
    # characters equal bytes.
    span.attrs["bytes"] = len(text)


@contextlib.contextmanager
def installed(tracer: Tracer, workload: Any) -> Iterator[None]:
    """Wrap the layer boundaries for the duration of the block."""
    from qkd_sift import cli, protocol, stats

    w = tracer.wrap
    targets: list[tuple[Any, str, Any]] = [
        (protocol, fn, w(getattr(protocol, fn), f"quantum_core.{fn}")) for fn in _QUANTUM_CORE
    ]
    targets += [
        (
            protocol,
            "finite_key",
            _ModuleProxy(
                protocol.finite_key,
                {"pipeline": w(protocol.finite_key.pipeline, "finite_key.pipeline")},
            ),
        ),
        (
            protocol,
            "hashing",
            _ModuleProxy(
                protocol.hashing,
                {fn: w(getattr(protocol.hashing, fn), f"hashing.{fn}") for fn in _HASHING},
            ),
        ),
        (protocol, "postprocess", w(protocol.postprocess, "protocol.postprocess")),
        (stats, "run_estimation", w(stats.run_estimation, "protocol.run_estimation", _count_estimation)),
        (stats, "coverage_trials", w(stats.coverage_trials, "stats.coverage_trials")),
        (stats, "coverage_report", w(stats.coverage_report, "stats.coverage_report")),
        (stats, "enumerate_bias", w(stats.enumerate_bias, "stats.enumerate_bias", _label_bias)),
        (cli, "main", w(cli.main, "cli.main")),
        (cli, "load_config", w(cli.load_config, "cli.load_config")),
        (cli, "run_actual", w(cli.run_actual, "protocol.run_actual", _count_session)),
        (cli, "run_virtual", w(cli.run_virtual, "protocol.run_virtual", _count_session)),
        (cli, "transcript_to_json", w(cli.transcript_to_json, "protocol.transcript_to_json")),
        (cli, "sifted_to_json", w(cli.sifted_to_json, "protocol.sifted_to_json")),
        (cli, "render_report", w(cli.render_report, "cli.render_report", _count_bytes)),
        (cli, "emit_report", w(cli.emit_report, "cli.emit_report")),
    ]
    make_strategy = cli.make_strategy
    targets.append((cli, "make_strategy", lambda cfg: tracer.wrap_strategy(make_strategy(cfg))))
    if workload.strategy is not None:
        targets.append((workload, "strategy", tracer.wrap_strategy(workload.strategy)))

    saved = []
    try:
        for obj, attr, new in targets:
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


def layer_metrics(
    spans: list[Span],
    ops: list[int],
    untraced_ms: list[float],
    traced_ms: list[float],
    extras: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics from the spans of traced ops ``ops``.

    Counts come from the first traced op alone, so they repeat exactly for a
    given seed however many ops fit in the run.  Times are medians over the
    traced ops of each op's total; rates divide totals over all traced ops.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def own(s: Span) -> float:
        kids = [(c.start, c.end) for c in children.get(s.id, ())]
        return self_time(s.start, s.end, kids, s.behavior_s)

    by_op: dict[Any, list[Span]] = {}
    for s in spans:
        by_op.setdefault(s.op, []).append(s)

    def named(op: Any, *names: str) -> list[Span]:
        return [s for s in by_op.get(op, ()) if s.name in names]

    def per_op_ms(measure: Callable[[Any], float]) -> float:
        return median([1e3 * measure(op) for op in ops])

    def total(op: Any, *names: str) -> float:
        return sum(s.end - s.start for s in named(op, *names))

    def self_total(op: Any, *names: str) -> float:
        return sum(own(s) for s in named(op, *names))

    def bias_ms(rule: str) -> float:
        return per_op_ms(
            lambda op: sum(
                s.end - s.start for s in named(op, "stats.enumerate_bias") if s.attrs.get("rule") == rule
            )
        )

    traced = [s for op in ops for s in by_op.get(op, ())]
    sessions = [s for s in traced if s.name in SESSION_SPANS]
    behavior_calls = sum(s.behavior_calls for s in sessions)
    behavior_s = sum(s.behavior_s for s in sessions)
    session_s = sum(s.end - s.start for s in sessions)

    def us_per_detected(name: str) -> float:
        picked = [s for s in sessions if s.name == name]
        detected = sum(s.attrs.get("detected", 0) for s in picked)
        return 1e6 * sum(own(s) for s in picked) / detected if detected else 0.0

    # Capacity of each coverage_trials call: its wall time times the number
    # of threads its run_estimation children ran on.
    pools = [(s, children.get(s.id, [])) for s in traced if s.name == "stats.coverage_trials"]
    pool_wall = sum((s.end - s.start) * max(1, len({c.thread for c in kids})) for s, kids in pools)
    pool_runs = [c for _, kids in pools for c in kids]
    pool_busy = sum(c.end - c.start for c in pool_runs)
    pool_cpu = sum(c.cpu_end - c.cpu_start for c in pool_runs)

    first = ops[0] if ops else None
    first_sessions = named(first, *SESSION_SPANS)
    emitted = sum(s.attrs.get("emitted", 0) for s in first_sessions)
    detected = sum(s.attrs.get("detected", 0) for s in first_sessions)
    untraced_p50 = median(untraced_ms)
    traced_p50 = median(traced_ms)

    values = {
        "quantum_core.law_builds": len(named(first, *LAW_BUILD_SPANS)),
        "quantum_core.warmup_law_builds": len(named("warmup", *LAW_BUILD_SPANS)),
        "quantum_core.law_build_ms": per_op_ms(
            lambda op: sum(s.end - s.start for s in by_op.get(op, ()) if s.name.startswith("quantum_core."))
        ),
        "adversary.behavior_calls": sum(s.behavior_calls for s in first_sessions),
        "adversary.behavior_us_per_call": 1e6 * behavior_s / behavior_calls if behavior_calls else 0.0,
        "adversary.behavior_share": behavior_s / session_s if session_s else 0.0,
        "protocol.emitted_rounds": emitted,
        "protocol.detected_rounds": detected,
        "protocol.detected_ratio": detected / emitted if emitted else 0.0,
        "protocol.estimation_us_per_detected_round": us_per_detected("protocol.run_estimation"),
        "protocol.actual_us_per_detected_round": us_per_detected("protocol.run_actual"),
        "protocol.virtual_us_per_detected_round": us_per_detected("protocol.run_virtual"),
        "protocol.bytes_per_emitted_round": extras.get("protocol.bytes_per_emitted_round", 0.0),
        "protocol.serialize_ms": per_op_ms(
            lambda op: total(op, "protocol.transcript_to_json", "protocol.sifted_to_json")
        ),
        "protocol.postprocess_self_ms": per_op_ms(lambda op: self_total(op, "protocol.postprocess")),
        "stats.coverage_trials_self_ms": per_op_ms(lambda op: self_total(op, "stats.coverage_trials")),
        "stats.coverage_report_ms": per_op_ms(lambda op: total(op, "stats.coverage_report")),
        "stats.pool_busy_ratio": pool_busy / pool_wall if pool_wall else 0.0,
        "stats.pool_cpu_ratio": pool_cpu / pool_wall if pool_wall else 0.0,
        "stats.enumerate_bias_ms.per_basis_k11": bias_ms("CountPerBasis"),
        "stats.enumerate_bias_ms.detected_k10": bias_ms("CountDetected"),
        "stats.enumerate_bias_peak_mib": extras.get("stats.enumerate_bias_peak_mib", 0.0),
        "finite_key.pipeline_us": 1e3 * per_op_ms(lambda op: total(op, "finite_key.pipeline")),
        "hashing.toeplitz_ms": per_op_ms(lambda op: total(op, "hashing.toeplitz_hash")),
        "hashing.poly_hash_ms": per_op_ms(lambda op: total(op, "hashing.poly_hash")),
        "hashing.random_prime_ms": per_op_ms(lambda op: total(op, "hashing.random_prime")),
        "cli.load_config_ms": per_op_ms(lambda op: total(op, "cli.load_config")),
        "cli.render_report_ms": per_op_ms(lambda op: total(op, "cli.render_report")),
        "cli.write_ms": per_op_ms(lambda op: self_total(op, "cli.emit_report")),
        "cli.artifact_bytes": sum(s.attrs.get("bytes", 0) for s in named(first, "cli.render_report")),
        "trace.untraced_op_p50_ms": untraced_p50,
        "trace.traced_op_p50_ms": traced_p50,
        "trace.overhead_ratio": traced_p50 / untraced_p50 if untraced_p50 else 0.0,
    }
    return values
