"""Benchmark of the qkd-sift simulator: four closed-loop workloads, one client.

Run from the root of a checkout::

    python3 perfbench/run.py --workload coverage-adaptive --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):

- ``coverage-adaptive``: ``stats.coverage_trials`` + ``coverage_report``,
  32 trials x n = 2000 under ``AdaptiveBasisTracker(window=16)``, one thread;
- ``coverage-lossy``: ``qkd-sift run`` in coverage mode, 32 trials x n = 2000,
  ``Depolarizing(p=0.15, p_loss=0.9)``, timed at ``QKD_SIFT_THREADS=1``
  (at ``min(2, nproc)`` in the traced run, so that the pool is measured) and
  replayed once at the other thread count to check the artifact bytes;
- ``session-artifact``: ``qkd-sift run`` in actual and in virtual mode at
  n = 1e5 with ``eta_det = 0.8``, then the actual artifact's sifted strings
  are decoded and distilled with ``postprocess``;
- ``bias-exact``: ``stats.enumerate_bias`` for ``CountPerBasis(2, 2)`` at
  k = 11 and ``CountDetected(10)`` at k = 10.

The workload runs in a child process (``child.py``) so that its set-up time
and peak RSS are its own.  With ``--trace 0`` the report gives the
end-to-end metrics, measured with tracing off:

- ``setup_s``: process start to the first timed op, the median over
  ``SETUP_SAMPLES`` processes (the measured one and set-up-only probes);
- ``detected_rounds_per_s``: detected rounds of the ops that passed their
  checks, per second of timed wall time (``bias-exact`` counts the rounds of
  the enumerated terminating sessions, all of them detected);
- ``op_p50_ms`` and ``op_tail_ms``: median op time and the highest
  percentile with ten samples beyond it (the report names which, and the
  sample count; with ten samples or fewer it is the slowest op, marked
  unresolved);
- ``peak_rss_mib``: ``ru_maxrss`` of the workload process.

Failed ops (raised, or failed an output check) are reported as
``ops_failed_ratio`` in the text report and as ``failed`` of ``attempted`` in
the result line; a run with a failed op reports ``"correct": false``.

With ``--trace 1`` the report gives the per-layer metrics of ``tracing.py``.
Machine facts and a pure-Python reference loop timed before and after the
workload go into the text report only, so host drift shows; they never
rescale a metric.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from summary import median, nproc, tail_percentile
from tracing import EXACT_COUNTS, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("coverage-adaptive", "coverage-lossy", "session-artifact", "bias-exact")
END_TO_END = (
    ("setup_s", "s"),
    ("detected_rounds_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 170.0


def reference_loop_ms() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return 1e3 * (time.perf_counter() - t0)


def host_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": model, "python": platform.python_version()}


def spawn(args: argparse.Namespace, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Run one workload process; return its set-up time and its result."""
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=scratch) as workdir:
        cmd = [
            sys.executable, str(CHILD),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
        ]
        if setup_only:
            cmd.append("--setup-only")
        env = {k: v for k, v in os.environ.items() if k != "QKD_SIFT_THREADS"}
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, bufsize=0)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
            line = proc.stdout.readline() if ready else b""
            setup_s = time.perf_counter() - t0
            if line.strip() != b"READY":
                raise RuntimeError(f"{args.workload}: workload process did not finish set-up")
            rest, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload}: workload process exited with {proc.returncode}")
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.decode().strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qkd_sift" / "__init__.py").is_file():
        print(f"perfbench: no qkd_sift source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    host = host_facts()
    ref_before = reference_loop_ms()
    start = time.perf_counter()
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                deadline = min(time.perf_counter() + SETUP_TIMEOUT_S, start + RUN_TIMEOUT_S)
                setups.append(spawn(args, True, deadline)[0])
        setup_s, res = spawn(args, False, start + RUN_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    ref_after = reference_loop_ms()
    if not res["op_ms"]:
        print(f"perfbench: no op completed: {res['reasons']}", file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"host: nproc={host['nproc']} cpu={host['cpu']!r} python={host['python']} "
        f"numpy={res['numpy']} reference_loop_ms before={ref_before:.1f} after={ref_after:.1f}"
    )
    ratio = res["failed"] / res["attempted"]
    print(f"ops_failed_ratio {ratio:g} ({res['failed']} of {res['attempted']} ops)")
    for reason in res["reasons"]:
        print(f"  failed: {reason}")

    if args.trace:
        values = res["per_layer"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            exact = " (exact count)" if name in EXACT_COUNTS else ""
            print(f"{name:<44} {values[name]!r} {unit}{exact}")
        print(
            f"tracing overhead: traced op p50 {values['trace.traced_op_p50_ms']:.1f} ms vs "
            f"untraced {values['trace.untraced_op_p50_ms']:.1f} ms "
            f"(x{values['trace.overhead_ratio']:.3f}, {len(res['op_ms'])} op pairs)"
        )
    else:
        tail = tail_percentile(res["op_ms"])
        values = {
            "setup_s": median(setups),
            "detected_rounds_per_s": res["rounds"] / res["timed_wall_s"],
            "op_p50_ms": median(res["op_ms"]),
            "op_tail_ms": tail.value,
            "peak_rss_mib": res["peak_rss_mib"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{name:<24} {values[name]!r} {unit}")
        which = (
            f"p{tail.percentile:.1f}" if tail.resolved
            else "maximum (unresolved: no percentile has ten ops beyond it)"
        )
        print(
            f"op_tail_ms is the {which} of {tail.samples} ops, {tail.beyond} above it; "
            f"setup_s is the median of {len(setups)} process starts: "
            + ", ".join(f"{s:.3f}" for s in setups)
        )
        print("op_ms: " + " ".join(f"{ms:.1f}" for ms in res["op_ms"]))
    print(
        json.dumps(
            {
                "correct": res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
