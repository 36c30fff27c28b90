"""One workload process: set up, time ops in a closed loop, report as JSON.

Started by ``run.py``, which owns ``--workdir`` and deletes it afterwards.
It prints ``READY`` when set-up ends, just before the first timed op, and one
JSON object as its last line.  With ``--setup-only`` it exits after
``READY``.  With ``--trace 1`` each op runs twice with the same seed, first
plain and then traced, so the tracing overhead is measured on identical
inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_package() -> None:
    """Import qkd_sift from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qkd_sift

    if not Path(qkd_sift.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"qkd_sift imported from {qkd_sift.__file__}, not from {src}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True, help="scratch directory the parent owns")
    args = parser.parse_args()

    _import_package()
    import numpy

    from summary import Tally, op_seed
    from tracing import Tracer, installed, layer_metrics
    from workloads import WORKLOADS, max_rss_mib

    workload = WORKLOADS[args.workload](Path(args.workdir), bool(args.trace))
    workload.setup()
    tracer = Tracer() if args.trace else None
    if tracer is None:
        workload.warm_up()
    else:
        tracer.op = "warmup"
        with installed(tracer, workload):
            workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    plain_ms: list[float] = []
    traced_ms: list[float] = []
    seeds: list[int] = []
    rounds = 0

    def timed(seed: int, into: list[float]) -> None:
        nonlocal rounds
        out = None

        def op() -> list[str]:
            nonlocal out
            t0 = time.perf_counter()
            out = workload.run(seed)
            into.append(1e3 * (time.perf_counter() - t0))
            return workload.check(out, seed)

        if tally.run(op) and into is plain_ms:
            rounds += workload.rounds(out)

    start = time.perf_counter()
    while not seeds or time.perf_counter() - start < args.seconds:
        seed = op_seed(args.seed, len(seeds))
        seeds.append(seed)
        timed(seed, plain_ms)
        if tracer is not None:
            tracer.op = len(seeds) - 1
            with installed(tracer, workload):
                timed(seed, traced_ms)
    wall = time.perf_counter() - start

    try:
        problems = workload.after()
    except Exception as exc:  # noqa: BLE001 - counted as a failed op, like any op
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        tally.fail(problems)

    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "op_ms": plain_ms,
        "timed_wall_s": wall,
        "rounds": rounds,
        "peak_rss_mib": max_rss_mib(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        extras = workload.extras(seeds[0])
        result["per_layer"] = layer_metrics(
            tracer.spans, list(range(len(seeds))), plain_ms, traced_ms, extras
        )
        tracer.write(str(ROOT / ".perfbench_work" / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
