"""Pure helpers shared by the benchmark's parent and workload processes.

Nothing here imports ``qkd_sift`` or NumPy, so the parent process stays small
and the helpers can be tested on their own.
"""

from __future__ import annotations

import os
import random
import statistics
from dataclasses import dataclass, field
from typing import Callable

# Samples that must lie strictly above a reported tail percentile.
TAIL_BEYOND = 10


def nproc() -> int:
    """Processors this process may run on, as ``nproc`` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def median(values: list[float]) -> float:
    """Median of a non-empty list; 0.0 for an empty one (layer not reached)."""
    return statistics.median(values) if values else 0.0


@dataclass(frozen=True)
class Tail:
    """A tail percentile, with the evidence behind it."""

    value: float
    percentile: float  # nearest-rank percentile the value sits at
    samples: int
    beyond: int  # samples strictly greater than ``value``
    resolved: bool  # False when fewer than TAIL_BEYOND + 1 samples exist


def tail_percentile(samples: list[float]) -> Tail:
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond it.

    With N samples the nearest-rank p-th percentile is the ceil(p*N/100)-th
    smallest sample, so the highest p that leaves ten samples above it is
    100*(N-10)/N, at rank N-10.  Ties at that rank lie on the percentile and
    do not count as beyond it.  With N <= 10 no percentile has ten samples
    beyond it; the slowest sample is reported with ``resolved=False`` so the
    caller can say that the tail is only the worst op seen.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    resolved = n > TAIL_BEYOND
    rank = n - TAIL_BEYOND if resolved else n
    value = ordered[rank - 1]
    beyond = sum(1 for x in ordered if x > value)
    return Tail(value, 100.0 * rank / n, n, beyond, resolved)


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Total length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: list[tuple[float, float]], leaf_time: float = 0.0
) -> float:
    """Span duration minus the union of its children's intervals.

    Children may overlap one another, as the concurrent ``run_estimation``
    spans of a thread pool do; the union counts each instant once.
    ``leaf_time`` is the summed duration of aggregated leaf calls made from the
    span's own thread, which never overlap each other or the span's children.
    """
    return max(0.0, (end - start) - union_length(children, start, end) - leaf_time)


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index`` of a run seeded with ``seed``; a 63-bit integer.

    String seeding of :class:`random.Random` hashes with SHA-512, so the value
    is the same in every process and on every host.
    """
    return random.Random(f"qkd-sift-bench/{seed}/{index}").getrandbits(63)


@dataclass
class Tally:
    """Attempted and failed ops; an op fails when it raises or fails a check."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def run(self, op: Callable[[], list[str]]) -> bool:
        """Run one op and its checks; ``op`` returns the checks that failed."""
        self.attempted += 1
        try:
            problems = op()
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.fail(problems)
            return False
        return True

    def fail(self, problems: list[str]) -> None:
        """Count one failure (also used when a later check fails an earlier op)."""
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append("; ".join(problems))
