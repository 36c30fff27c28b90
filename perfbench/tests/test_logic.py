"""Tests of the benchmark's own logic: run with ``python3 -m pytest perfbench/tests``."""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from run import END_TO_END, WORKLOADS
from summary import TAIL_BEYOND, Tally, op_seed, self_time, tail_percentile, union_length
from tracing import PER_LAYER, Tracer, layer_metrics

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# ---------------------------------------------------------------------------
# Self time with overlapping children


def test_union_merges_overlaps_and_clips_to_the_parent():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert union_length([(2, 3), (1, 5)], 0, 10) == 4  # nested
    assert union_length([(-5, -1), (11, 20)], 0, 10) == 0
    assert union_length([], 0, 10) == 0


def test_self_time_counts_overlapping_children_once():
    # Two pool threads whose spans overlap: [1, 6] covered once, not 3 + 3.
    assert self_time(0, 10, [(1, 4), (3, 6)]) == 5
    assert self_time(0, 10, [(1, 4), (3, 6)], leaf_time=1.5) == 3.5
    assert self_time(0, 10, [(0, 10), (2, 3)]) == 0


def test_traced_pool_spans_nest_under_the_blocked_caller():
    tracer = Tracer()
    tracer.op = 0

    def leaf(_: int) -> None:
        time.sleep(0.05)

    traced_leaf = tracer.wrap(leaf, "protocol.run_estimation")

    def pool_call() -> None:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(traced_leaf, range(4)))

    tracer.wrap(pool_call, "stats.coverage_trials")()
    parent = next(s for s in tracer.spans if s.name == "stats.coverage_trials")
    kids = [s for s in tracer.spans if s.name == "protocol.run_estimation"]
    assert len(kids) == 4
    assert all(k.parent == parent.id for k in kids)
    assert len({k.thread for k in kids}) == 2
    summed = sum(k.end - k.start for k in kids)
    covered = union_length([(k.start, k.end) for k in kids], parent.start, parent.end)
    assert covered < summed  # the children overlap
    values = layer_metrics(tracer.spans, [0], [1.0], [1.0], {})
    own = parent.end - parent.start - covered
    assert values["stats.coverage_trials_self_ms"] == pytest.approx(1e3 * own)
    assert 0.5 < values["stats.pool_busy_ratio"] <= 1.0
    # Sleeping threads use almost no CPU.
    assert values["stats.pool_cpu_ratio"] < 0.5


def test_behavior_calls_are_added_to_the_open_session_span():
    tracer = Tracer()
    tracer.op = 0

    class Strategy:
        def __init__(self, label, behavior):
            self.label, self.behavior = label, behavior

    strategy = tracer.wrap_strategy(Strategy("s", lambda prefix, rng: "op"))

    class Transcript:
        rounds = [0] * 7

    class Run:
        transcript = Transcript()
        per_round = [0] * 5

    def session() -> Run:
        for _ in range(7):
            strategy.behavior(None, None)
        return Run()

    from tracing import _count_estimation

    tracer.wrap(session, "protocol.run_estimation", _count_estimation)()
    strategy.behavior(None, None)  # outside any span: not counted
    values = layer_metrics(tracer.spans, [0], [1.0], [1.0], {})
    assert values["adversary.behavior_calls"] == 7
    assert values["protocol.emitted_rounds"] == 7
    assert values["protocol.detected_rounds"] == 5
    assert values["protocol.detected_ratio"] == 5 / 7


def test_threads_keep_separate_span_stacks():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def inner() -> None:
        barrier.wait(timeout=5)

    traced_inner = tracer.wrap(inner, "inner")
    threads = [threading.Thread(target=tracer.wrap(traced_inner, "outer")) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    outers = {s.id: s for s in tracer.spans if s.name == "outer"}
    for s in tracer.spans:
        if s.name == "inner":
            assert outers[s.parent].thread == s.thread


# ---------------------------------------------------------------------------
# Tail percentile selection


def test_tail_has_ten_samples_beyond_it():
    samples = [float(x) for x in range(50, 0, -1)]
    tail = tail_percentile(samples)
    assert tail.resolved
    assert tail.value == 40.0
    assert tail.beyond == TAIL_BEYOND
    assert tail.percentile == 80.0
    assert tail.samples == 50


def test_tail_with_exactly_eleven_samples_is_the_minimum_resolved():
    tail = tail_percentile([float(x) for x in range(11)])
    assert tail.resolved and tail.value == 0.0 and tail.beyond == 10
    assert tail.percentile == pytest.approx(100 / 11)


def test_tail_with_ten_samples_or_fewer_is_the_unresolved_maximum():
    tail = tail_percentile([3.0, 1.0, 2.0])
    assert not tail.resolved
    assert tail.value == 3.0 and tail.beyond == 0 and tail.percentile == 100.0
    with pytest.raises(ValueError):
        tail_percentile([])


def test_tail_ties_at_the_rank_are_not_beyond():
    tail = tail_percentile([1.0] * 5 + [2.0] * 15)
    assert tail.value == 2.0 and tail.beyond == 0


# ---------------------------------------------------------------------------
# Failure counting


def test_tally_counts_raised_and_failed_checks():
    tally = Tally()
    assert tally.run(lambda: [])
    assert not tally.run(lambda: ["n_detected 3 != 4"])

    def boom() -> list[str]:
        raise RuntimeError("qkd-sift run exited with 1")

    assert not tally.run(boom)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "RuntimeError" in tally.reasons[1]


def test_a_later_check_fails_an_op_that_passed():
    tally = Tally()
    tally.run(lambda: [])
    tally.fail(["artifact at 1 thread differs"])
    assert (tally.attempted, tally.failed) == (1, 1)


# ---------------------------------------------------------------------------
# Seeds and the metric contract


def test_op_seeds_depend_only_on_run_seed_and_index():
    assert op_seed(7, 3) == op_seed(7, 3)
    assert len({op_seed(7, i) for i in range(100)} | {op_seed(8, 0)}) == 101
    assert all(0 <= op_seed(s, i) < 2**63 for s in range(3) for i in range(3))


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads(BENCHMARK.read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
    values = layer_metrics([], [], [], [], {})
    assert list(values) == [name for name, _ in PER_LAYER]
    assert tuple(w["name"] for w in doc["workloads"]) == WORKLOADS
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
