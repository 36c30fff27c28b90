"""Martingale traces, coverage counting, and exact stopping-rule enumeration."""

import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import oracles
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkd_sift import protocol
from qkd_sift.adversary import (
    AdaptiveBasisTracker,
    Depolarizing,
    EveStrategy,
    IdentityLossy,
    InterceptResend,
    depolarizing_channel,
    make_strategy,
)
from qkd_sift.errors import DomainError, EnumerationTooLarge, MaxRoundsExceeded, TraceInconsistent
from qkd_sift.protocol import (
    Basis,
    CountDetected,
    CountPerBasis,
    ProtocolParams,
    derive_stream,
    replay_counter,
    run_estimation,
)
from qkd_sift.quantum_core import detection_povm
from qkd_sift.stats import (
    TrialStats,
    azuma_coverage,
    build_trace,
    coverage_report,
    coverage_trials,
    enumerate_bias,
    estimation_counts,
    martingale_drift,
    relation_check,
)

IDENTITY = make_strategy(IdentityLossy(0.0))
DEPOL = make_strategy(Depolarizing(0.2))


def _params(n=32, p_z=0.5, **kw):
    defaults = dict(
        p_z_a=p_z, p_x_a=1.0 - p_z, p_z_b=p_z, p_x_b=1.0 - p_z,
        n_det_ter=n, eps_s=1e-9, eps_c=1e-12, delta=0.05,
    )
    defaults.update(kw)
    return ProtocolParams(**defaults)


# -- traces -------------------------------------------------------------------


def test_trace_shape_and_start():
    run = run_estimation(_params(n=48), DEPOL, derive_stream(30, 0))
    trace = build_trace(run)
    assert trace.x_ph[0] == 0.0
    assert trace.x_xerr[0] == 0.0
    assert len(trace.x_ph) == len(trace.x_xerr) == 49
    assert trace.n_rounds == 48
    assert trace.lambda_ph[-1] == run.lambda_ph
    assert trace.lambda_xerr[-1] == run.lambda_xerr
    # endpoint identity: X_N = lambda_N - sum p
    assert trace.x_ph[-1] == pytest.approx(
        run.lambda_ph - math.fsum(trace.p_ph), abs=1e-9
    )


def test_trace_increments_are_bounded_exactly():
    run = run_estimation(
        _params(n=64), make_strategy(AdaptiveBasisTracker(window=4)), derive_stream(31, 0)
    )
    trace = build_trace(run)
    for x in (trace.x_ph, trace.x_xerr):
        assert float(np.abs(np.diff(x)).max()) <= 1.0


def test_trace_rejects_tampered_counters():
    run = run_estimation(_params(n=16), DEPOL, derive_stream(32, 0))
    bad = dataclasses.replace(run, lambda_ph=run.lambda_ph + 1)
    with pytest.raises(TraceInconsistent):
        build_trace(bad)


def test_trace_rejects_out_of_range_probabilities():
    run = run_estimation(_params(n=4), IDENTITY, derive_stream(33, 0))
    # q_z = 0.25, so t = 6 gives every round p_ph = 1.5
    bad = dataclasses.replace(run, t_phase=(6.0,))
    assert {r.p_ph for r in bad.per_round} == {1.5}
    with pytest.raises(TraceInconsistent, match="bounded-difference"):
        build_trace(bad)


def test_drift_needs_enough_equal_length_traces():
    run = run_estimation(_params(n=8), IDENTITY, derive_stream(34, 0))
    with pytest.raises(DomainError):
        martingale_drift([build_trace(run)] * 99)
    other = run_estimation(_params(n=9), IDENTITY, derive_stream(34, 1))
    with pytest.raises(DomainError):
        martingale_drift([build_trace(run)] * 100 + [build_trace(other)])


def test_drift_of_identity_traces_is_exactly_zero():
    # no errors and zero conditional probability: every increment is 0.0
    traces = [
        build_trace(run_estimation(_params(n=16), IDENTITY, derive_stream(35, i)))
        for i in range(100)
    ]
    drift = martingale_drift(traces)
    assert drift.n_traces == 100
    assert np.all(drift.mean_ph == 0.0)
    assert np.all(drift.stderr_ph == 0.0)
    assert np.all(drift.mean_xerr == 0.0)


def test_drift_of_noisy_traces_is_small():
    traces = [
        build_trace(run_estimation(_params(n=32), DEPOL, derive_stream(36, i)))
        for i in range(300)
    ]
    drift = martingale_drift(traces)
    # 4-sigma sanity on every round (the acceptance suite does this at scale)
    bad = np.abs(drift.mean_ph) > 4.0 * drift.stderr_ph + 1e-12
    assert bad.mean() < 0.05


# Every built-in strategy kind, and strategies that mint a fresh op every
# round: with four values the ops repeat by value, with random values they
# do not.
_COLUMN_STRATEGIES = {
    "identity": make_strategy(IdentityLossy(0.0)),
    "lossy": make_strategy(IdentityLossy(0.5)),
    "depolarizing": make_strategy(Depolarizing(0.04, p_loss=0.5)),
    "intercept-random": make_strategy(InterceptResend()),
    "intercept-always-x": make_strategy(InterceptResend(basis_policy="always_x")),
    "tracker-window-1": make_strategy(AdaptiveBasisTracker(1, 1.5)),
    "tracker-window-16": make_strategy(AdaptiveBasisTracker(16)),
    "fresh-four-values": EveStrategy(
        "fresh", lambda prefix, rng: depolarizing_channel(rng.choice((0.0, 0.2, 0.4, 0.6)))
    ),
    "fresh-distinct-values": EveStrategy(
        "fresh", lambda prefix, rng: depolarizing_channel(rng.random())
    ),
}


@pytest.mark.parametrize("p_z", (0.5, 0.7))
@pytest.mark.parametrize("name", _COLUMN_STRATEGIES)
def test_column_reductions_equal_the_per_round_reference(name, p_z):
    run = run_estimation(_params(n=300, p_z=p_z), _COLUMN_STRATEGIES[name], derive_stream(39, 0))
    assert estimation_counts(run) == oracles.estimation_counts_reference(run)
    assert relation_check(run) == oracles.relation_check_reference(run)
    got, want = build_trace(run), oracles.build_trace_reference(run)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype and np.array_equal(a, b), field.name


def test_relation_residual_is_zero_to_rounding():
    for strat in (DEPOL, make_strategy(AdaptiveBasisTracker())):
        run = run_estimation(_params(n=128, p_z=0.7), strat, derive_stream(37, 0))
        assert abs(relation_check(run)) < 1e-12


# -- coverage counting ---------------------------------------------------------


def test_coverage_report_counts_exactly():
    stats = TrialStats(
        n=10,
        lambda_ph=np.array([5, 1, 0, 3]),
        lambda_xerr=np.array([0, 0, 0, 0]),
        sum_p_ph=np.array([1.0, 0.5, 0.0, 2.9]),
        sum_p_xerr=np.array([0.2, 1.1, 0.09, 0.0]),
        n_z=np.zeros(4, dtype=np.int64),
        n_x=np.zeros(4, dtype=np.int64),
    )
    rep = coverage_report(stats, 0.1)  # threshold n*delta = 1.0
    # ph violations: 5-1=4 yes, 1-0.5 no, 0 no, 3-2.9 no -> 1
    # xerr violations: 0.2 no, 1.1-0 yes, 0.09 no, 0 no -> 1
    assert rep.trials == 4
    assert rep.violations_ph == 1
    assert rep.violations_xerr == 1
    assert rep.eta_claimed == pytest.approx(math.exp(-10 * 0.01 / 2.0), rel=1e-12)
    with pytest.raises(DomainError):
        coverage_report(stats, -0.1)


def test_coverage_trials_counters_are_consistent():
    params = _params(n=24)
    stats = coverage_trials(params, DEPOL, 20, random.Random(38))
    assert len(stats.lambda_ph) == 20
    assert stats.n == 24
    assert np.all(stats.n_z + stats.n_x <= 24)
    assert np.all(stats.lambda_ph <= stats.n_z)
    assert np.all(stats.lambda_xerr <= stats.n_x)
    with pytest.raises(DomainError):
        coverage_trials(params, DEPOL, 0, random.Random(38))


# A trial count is an integer: True once ran one trial, and 2.5, "3" or None
# died with a bare TypeError.
@pytest.mark.parametrize("trials", [True, np.True_, 2.5, 3.0, "3", None, 0, -1], ids=repr)
def test_coverage_trials_refuse_a_trial_count_that_is_no_integer(trials):
    for run in (coverage_trials, azuma_coverage):
        with pytest.raises(DomainError, match="trials must be an integer >= 1"):
            run(_params(n=8), DEPOL, trials, random.Random(38))


def test_coverage_trials_take_a_numpy_integer_trial_count():
    want = coverage_trials(_params(n=8), DEPOL, 3, random.Random(38))
    _assert_same_stats(coverage_trials(_params(n=8), DEPOL, np.int64(3), random.Random(38)), want, 3)


def test_coverage_trials_worker_count_does_not_change_results():
    params = _params(n=16)
    a = coverage_trials(params, DEPOL, 30, random.Random(39), workers=1)
    b = coverage_trials(params, DEPOL, 30, random.Random(39), workers=4)
    assert np.array_equal(a.lambda_ph, b.lambda_ph)
    assert np.array_equal(a.sum_p_ph, b.sum_p_ph)
    assert np.array_equal(a.n_x, b.n_x)


# -- coverage trials replayed in NumPy against the round loop -----------------------

_ORACLE_STRATEGIES = {
    "identity_lossy-0": IdentityLossy(0.0),
    "identity_lossy-0.9": IdentityLossy(0.9),
    "depolarizing-0": Depolarizing(0.15),
    "depolarizing-0.9": Depolarizing(0.15, p_loss=0.9),
    "intercept_resend-random": InterceptResend("random", q=0.4),
    "intercept_resend-always_z": InterceptResend("always_z"),
    "intercept_resend-always_x": InterceptResend("always_x"),
    # At n = 150 a window of 149 is full only for the last round, and one
    # of 150 or 600 never is.
    **{
        f"tracker-w{window}-g{gain:g}": AdaptiveBasisTracker(window, gain)
        for window in (1, 16, 149, 150, 600)
        for gain in (0.0, 0.5, 1.5)
    },
}


def _assert_same_stats(got: TrialStats, want: TrialStats, where) -> None:
    assert got.n == want.n, where
    for f in dataclasses.fields(TrialStats):
        if f.name != "n":
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (where, f.name)


@pytest.mark.parametrize("eta_det", [1.0, 0.8])
@pytest.mark.parametrize("name", sorted(_ORACLE_STRATEGIES))
def test_coverage_trials_replay_matches_the_round_loop(name, eta_det):
    strategy = make_strategy(_ORACLE_STRATEGIES[name])
    povm = detection_povm(eta_det)
    assert replay_counter(_params(), strategy, povm) is not None
    # The last four pairs reach the threshold test's p >= 1, p <= 0 and tie
    # branches in the basis draws.
    pairs = (
        (0.5, 0.5), (0.7, 0.6), (1.0, 0.5), (0.5, 0.0), (0.0, 1.0), (0.09999999999999999, 0.9),
    )
    for batch, (p_z_a, p_z_b) in itertools.product((1, 3, 7), pairs):
        params = _params(
            n=150, p_z_a=p_z_a, p_x_a=1.0 - p_z_a, p_z_b=p_z_b, p_x_b=1.0 - p_z_b,
            batch_size=batch,
        )
        got = coverage_trials(params, strategy, 6, random.Random(41), povm=povm)
        want = oracles.coverage_trials_reference(params, strategy, 6, random.Random(41), povm=povm)
        _assert_same_stats(got, want, (batch, p_z_a, p_z_b))


@pytest.mark.parametrize("eta_det", [1.0, 0.8])
@pytest.mark.parametrize(
    "cfg", [IdentityLossy(0.99), IdentityLossy(0.0), AdaptiveBasisTracker(3, 1.5)], ids=repr
)
def test_coverage_trials_replay_across_buffer_refills(cfg, eta_det, monkeypatch):
    # Buffers of 64 draws: every session spans many refills, with rounds cut
    # at the end of a buffer and carried into the next.
    monkeypatch.setattr(protocol, "_REPLAY_CHUNK", 64)
    strategy = make_strategy(cfg)
    povm = detection_povm(eta_det)
    params = _params(n=40, batch_size=3)
    got = coverage_trials(params, strategy, 4, random.Random(42), povm=povm)
    want = oracles.coverage_trials_reference(params, strategy, 4, random.Random(42), povm=povm)
    _assert_same_stats(got, want, cfg)


def _without_behavior(strategy: EveStrategy) -> EveStrategy:
    """``strategy``'s ``ops`` and ``schedule``, with a ``behavior`` that raises."""

    def behavior(prefix, rng):
        raise AssertionError(f"{strategy.label}: the round loop ran")

    return EveStrategy(strategy.label, behavior, ops=strategy.ops, schedule=strategy.schedule)


@pytest.mark.parametrize("eta_det", [1.0, 0.8])
@pytest.mark.parametrize("name", sorted(_ORACLE_STRATEGIES))
def test_replayed_coverage_trials_call_no_behavior(name, eta_det):
    # A silent fall back to the round loop would give the same numbers at
    # ten times the cost; a behavior that raises shows it.
    strategy = make_strategy(_ORACLE_STRATEGIES[name])
    povm = detection_povm(eta_det)
    for batch in (1, 7):
        params = _params(n=150, batch_size=batch)
        got = coverage_trials(params, _without_behavior(strategy), 4, random.Random(48), povm=povm)
        want = coverage_trials(params, strategy, 4, random.Random(48), povm=povm)
        _assert_same_stats(got, want, batch)


@pytest.mark.parametrize("eta_det", [1.0, 0.8])
def test_a_huge_tracker_window_costs_the_replay_no_memory(eta_det):
    # The window is user input, so what a replay keeps per window state must
    # grow with the session, not with a window that never fills.
    strategy = make_strategy(AdaptiveBasisTracker(window=10**6, bias_gain=1.5))
    povm = detection_povm(eta_det)
    params = _params(n=600, p_z=0.7)
    count = replay_counter(params, strategy, povm)
    tracemalloc.start()
    try:
        got = count(derive_stream(50, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    run = run_estimation(params, strategy, derive_stream(50, 0), povm=povm)
    assert got == estimation_counts(run)
    assert peak < 1 << 20, peak


def test_strategy_without_a_schedule_gives_the_same_numbers():
    for cfg in (Depolarizing(0.15, p_loss=0.9), AdaptiveBasisTracker(16), InterceptResend()):
        strategy = make_strategy(cfg)
        plain = EveStrategy(label=strategy.label, behavior=strategy.behavior)
        params = _params(n=120)
        assert replay_counter(params, plain) is None
        got = coverage_trials(params, strategy, 5, random.Random(43))
        want = coverage_trials(params, plain, 5, random.Random(43))
        _assert_same_stats(got, want, cfg)


def test_ops_with_different_detection_take_the_round_loop():
    # Two ops that lose different fractions: which draws decide a round then
    # depends on the op, so the strategy runs the round loop.
    lossy = make_strategy(IdentityLossy(0.5))
    clear = make_strategy(IdentityLossy(0.0))
    mixed = EveStrategy(
        "mixed", lossy.behavior, ops=lossy.ops + clear.ops, schedule=lossy.schedule
    )
    params = _params(n=60)
    assert replay_counter(params, mixed) is None
    got = coverage_trials(params, mixed, 4, random.Random(44))
    _assert_same_stats(got, coverage_trials(params, lossy, 4, random.Random(44)), "mixed")


def _raised(run):
    with pytest.raises(MaxRoundsExceeded) as info:
        run()
    return type(info.value), str(info.value)


def test_coverage_trials_replay_raises_max_rounds_as_the_round_loop():
    lost = make_strategy(IdentityLossy(1.0))
    params = _params(n=5)
    got = _raised(lambda: coverage_trials(params, lost, 3, random.Random(45)))
    want = _raised(lambda: oracles.coverage_trials_reference(params, lost, 3, random.Random(45)))
    assert got == want == (MaxRoundsExceeded, "no termination after 5000 rounds (0 detected)")

    # Trials 0-3 of seed 10 detect both rounds; trial 4 is the first to fail.
    lossy = make_strategy(IdentityLossy(0.3))
    params = _params(n=2, max_rounds=2, batch_size=3)
    oracles.coverage_trials_reference(params, lossy, 4, random.Random(10))
    got = _raised(lambda: coverage_trials(params, lossy, 12, random.Random(10)))
    want = _raised(lambda: oracles.coverage_trials_reference(params, lossy, 12, random.Random(10)))
    assert got == want


def test_azuma_coverage_smoke():
    params = _params(n=100, delta=0.15)
    rep = azuma_coverage(params, DEPOL, 150, random.Random(40))
    assert rep.trials == 150
    assert rep.delta == 0.15
    # eta_claimed = exp(-100 * 0.0225 / 2) ~ 0.32; the observed frequency
    # should be far below the bound for an honest martingale
    assert rep.violations_ph / 150 <= rep.eta_claimed + 0.1
    assert rep.violations_xerr / 150 <= rep.eta_claimed + 0.1


# -- coverage counters against their exact law -----------------------------------

# Under a constant op every detected round has the same phase-error weight t,
# and the stopping rule counts detections whatever their bases.  So over n
# detections lambda_ph ~ Binomial(n, q_z * t) and lambda_xerr ~ Binomial(n,
# q_x * t) exactly, and each sum of probabilities is n times the round's.
# Azuma's bound is far too loose to tell a simulator that miscounts errors
# from a right one; the exact law is not.
_EXACT_T = 0.075  # Depolarizing(0.15): an X readout errs with probability p / 2
_EXACT_TAIL = 1e-2


def _exact_level(n: int, p: float, mean: float, upper: bool) -> tuple[float, float]:
    """The delta at which a one-sided check of a Binomial(n, p) count fails
    with probability at most about ``_EXACT_TAIL``, and that exact probability.

    ``upper`` is the phase-error side (``count - mean >= n * delta``);
    otherwise the X-error side (``mean - count >= n * delta``), where
    ``mean`` is the trials' sum of probabilities.  The threshold is an
    integer count k, and delta puts ``n * delta`` half a count from it, so
    no trial sits on ``coverage_report``'s float comparison.
    """
    law = scipy.stats.binom(n, p)
    if upper:  # fails at count >= k
        k = int(law.isf(_EXACT_TAIL)) + 1
        return (k - 0.5 - mean) / n, float(law.sf(k - 1))
    k = int(law.ppf(_EXACT_TAIL)) - 1  # fails at count <= k
    return (mean - k - 0.5) / n, float(law.cdf(k))


@pytest.mark.parametrize(
    "engine, n, trials, seed", [("replay", 2000, 4000, 46), ("round-loop", 400, 1000, 47)]
)
def test_coverage_counters_follow_their_exact_binomial_law(engine, n, trials, seed):
    strategy = make_strategy(Depolarizing(0.15))
    if engine == "round-loop":  # no schedule, so every trial runs run_estimation
        strategy = EveStrategy(label=strategy.label, behavior=strategy.behavior)
    params = _params(n=n, p_z=0.6)  # q_z 0.36 and q_x 0.16 tell the two counters apart
    assert (replay_counter(params, strategy) is not None) == (engine == "replay")
    stats = coverage_trials(params, strategy, trials, random.Random(seed))
    sides = (
        ("ph", params.q_z, stats.sum_p_ph, True),
        ("xerr", params.q_x, stats.sum_p_xerr, False),
    )
    for side, q, sums, upper in sides:
        p = q * _EXACT_T
        assert np.all(sums == sums[0]) and sums[0] == pytest.approx(n * p, rel=1e-12), side
        delta, tail = _exact_level(n, p, float(sums[0]), upper)
        assert 2e-3 < tail <= _EXACT_TAIL, side
        report = coverage_report(stats, delta)
        violations = getattr(report, f"violations_{side}")
        test = scipy.stats.binomtest(violations, trials, tail)
        assert test.pvalue > 1e-3, (side, violations, trials, tail, report.eta_claimed)


# InterceptResend(q=0.3) intercepts in Z with probability 0.3, which sets t =
# 1/2 (the X readouts come out at random), and otherwise in X, which leaves
# them alone: t = 0.  The op is drawn anew every round, so the sums of
# probabilities vary by trial with the number of Z intercepts.  At p_z 0.6,
# q_z = 9/25 and q_x = 4/25.
_INTERCEPT_OPS = ((Fraction(3, 10), Fraction(1, 2)), (Fraction(7, 10), Fraction(0)))


def _intercept_levels(n: int) -> dict:
    """Per side, the delta at which the check of an InterceptResend(q=0.3)
    trial fails with probability at most about ``_EXACT_TAIL``, and that
    exact probability, from :func:`oracles.coverage_deviation_law`.

    The threshold is a whole number k of the law's units, and ``n * delta``
    lies half a unit below it, so no trial sits on the float comparison.
    """
    laws, scale = oracles.coverage_deviation_law(
        n, _INTERCEPT_OPS, Fraction(9, 25), Fraction(4, 25)
    )
    levels = {}
    for side, (low, pmf) in laws.items():
        tails = np.cumsum(pmf[::-1])[::-1]  # tails[i]: the sum is at least low + i units
        i = int(np.argmax(tails <= _EXACT_TAIL))
        levels[side] = ((low + i - 0.5) / scale / n, float(tails[i]))
    return levels


@pytest.mark.parametrize(
    "engine, n, trials, seed", [("replay", 1000, 4000, 48), ("round-loop", 400, 1000, 49)]
)
def test_coverage_counters_under_a_random_intercept_follow_their_exact_law(
    engine, n, trials, seed
):
    strategy = make_strategy(InterceptResend(q=0.3))
    if engine == "round-loop":  # no schedule, so every trial runs run_estimation
        strategy = EveStrategy(label=strategy.label, behavior=strategy.behavior)
    params = _params(n=n, p_z=0.6)
    assert (replay_counter(params, strategy) is not None) == (engine == "replay")
    stats = coverage_trials(params, strategy, trials, random.Random(seed))
    # Both sums count the same Z intercepts.
    assert np.allclose(stats.sum_p_ph / params.q_z, stats.sum_p_xerr / params.q_x, rtol=1e-12)
    for side, (delta, tail) in _intercept_levels(n).items():
        assert 2e-3 < tail <= _EXACT_TAIL, side
        violations = getattr(coverage_report(stats, delta), f"violations_{side}")
        test = scipy.stats.binomtest(violations, trials, tail)
        assert test.pvalue > 1e-3, (side, violations, trials, tail)


# -- exact enumeration -----------------------------------------------------------


def test_detected_count_rule_has_zero_bias():
    for n in (1, 3, 6):
        rep = enumerate_bias(CountDetected(n), (0.5, 0.5), 6)
        assert rep.tv_from_uniform == 0.0
        assert not rep.dependence_detected
        assert rep.terminating_mass == 1.0
        assert rep.test_error_rate == rep.code_error_rate


def test_detected_count_rule_zero_bias_off_uniform():
    rep = enumerate_bias(CountDetected(4), (0.8, 0.65), 4)
    assert rep.tv_from_uniform == 0.0
    assert not rep.dependence_detected


def test_per_basis_rule_frozen_bias_values():
    rep = enumerate_bias(CountPerBasis(1, 1), (0.5, 0.5), 6)
    assert rep.tv_from_uniform == pytest.approx(0.4832716506291636, abs=1e-15)
    assert rep.dependence_detected
    assert rep.test_error_rate == pytest.approx(0.11533742331288344, abs=1e-15)
    assert rep.code_error_rate == pytest.approx(0.23957055214723927, abs=1e-15)
    assert rep.terminating_mass == pytest.approx(0.65966796875, abs=1e-15)


def test_per_basis_rule_biased_at_skewed_probabilities():
    rep = enumerate_bias(CountPerBasis(2, 1), (0.7, 0.6), 8)
    assert rep.tv_from_uniform == pytest.approx(0.5025378390160533, abs=1e-14)
    assert rep.dependence_detected


def test_t_distribution_is_a_conditional_law():
    rep = enumerate_bias(CountPerBasis(1, 1), (0.5, 0.5), 5)
    assert sum(rep.t_distribution.values()) == pytest.approx(1.0, abs=1e-12)
    for seq in rep.t_distribution:
        assert set(seq) <= {"Z", "X", "M"}
        # terminating sequences contain both quotas
        assert "Z" in seq and "X" in seq


def test_enumeration_guards():
    with pytest.raises(EnumerationTooLarge):
        enumerate_bias(CountDetected(13), (0.5, 0.5), 13)
    with pytest.raises(DomainError):
        enumerate_bias(CountDetected(7), (0.5, 0.5), 6)
    with pytest.raises(DomainError):
        enumerate_bias(CountDetected(1), (0.5, 0.5), 0)
    with pytest.raises(DomainError):
        # p_z = 1 on both sides: an X round never happens, quota never fills
        enumerate_bias(CountPerBasis(1, 1), (1.0, 1.0), 6)
    with pytest.raises(DomainError, match="unsupported termination rule"):
        enumerate_bias(object(), (0.5, 0.5), 3)



@pytest.mark.parametrize(
    "p_bases", [(math.nan, 0.5), (0.5, math.inf), (-math.inf, 0.5)], ids=["nan", "inf", "-inf"]
)
def test_enumeration_rejects_non_finite_probabilities(p_bases):
    with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
        enumerate_bias(CountPerBasis(1, 1), p_bases, 4)


@pytest.mark.parametrize("max_rounds", [3.0, True, "3"], ids=["float", "bool", "str"])
def test_enumeration_rejects_a_max_rounds_that_is_not_an_int(max_rounds):
    with pytest.raises(DomainError, match="max_rounds must be an int"):
        enumerate_bias(CountDetected(1), (0.5, 0.5), max_rounds)

def _brute_force(rule, p_bases, max_rounds):
    """Flat re-derivation: loop over all letter sequences, no tree pruning."""
    p_z_a, p_z_b = (Fraction(p) for p in p_bases)
    q = {"Z": p_z_a * p_z_b, "X": (1 - p_z_a) * (1 - p_z_b)}
    q["M"] = 1 - q["Z"] - q["X"]
    if isinstance(rule, CountDetected):
        def stops(prefix):
            return len(prefix) == rule.n
    else:
        def stops(prefix):
            return (
                prefix.count("Z") >= rule.n_z_req
                and prefix.count("X") >= rule.n_x_req
            )
    leaves = {}
    for length in range(1, max_rounds + 1):
        for combo in itertools.product("ZXM", repeat=length):
            seq = "".join(combo)
            # valid leaf: stops at the end and at no proper nonempty prefix
            if not stops(seq):
                continue
            if any(stops(seq[:k]) for k in range(1, length)):
                continue
            prob = Fraction(1)
            for letter in seq:
                prob *= q[letter]
            if prob:
                leaves[seq] = prob
    total = sum(leaves.values())
    tv = Fraction(0)
    groups = {}
    for seq, prob in leaves.items():
        key = (len(seq), seq.count("Z"), seq.count("X"))
        n_term, mass = groups.get(key, (0, Fraction(0)))
        groups[key] = (n_term + 1, mass + prob)
    for (n, c_z, c_x), (n_term, mass) in groups.items():
        arrangements = math.factorial(n) // (
            math.factorial(c_z) * math.factorial(c_x) * math.factorial(n - c_z - c_x)
        )
        tv += (mass / total) * (1 - Fraction(n_term, arrangements))
    return leaves, total, tv


@pytest.mark.parametrize(
    "rule,p_bases",
    [
        (CountDetected(3), (0.5, 0.5)),
        (CountDetected(2), (0.7, 0.6)),
        (CountPerBasis(1, 1), (0.5, 0.5)),
        (CountPerBasis(2, 1), (0.6, 0.6)),
    ],
)
def test_enumeration_matches_brute_force(rule, p_bases):
    max_rounds = 4
    rep = enumerate_bias(rule, p_bases, max_rounds)
    leaves, total, tv = _brute_force(rule, p_bases, max_rounds)
    assert rep.terminating_mass == pytest.approx(float(total), abs=1e-15)
    assert rep.tv_from_uniform == pytest.approx(float(tv), abs=1e-15)
    assert set(rep.t_distribution) == set(leaves)
    for seq, prob in leaves.items():
        assert rep.t_distribution[seq] == pytest.approx(
            float(prob / total), abs=1e-15
        )


def _enumeration_cases(family):
    # Both families include k = 1; CountDetected(n) at k > n leaves nothing
    # live after level n.
    if family == "count_detected":
        for k in range(1, 9):
            for n in range(1, k + 1):
                yield CountDetected(n), ("count_detected", n), k
    else:
        for a, b in itertools.product((1, 2, 3), repeat=2):
            for k in (1, 2, 5, 8):
                yield CountPerBasis(a, b), ("count_per_basis", a, b), k


@pytest.mark.parametrize("family", ["count_detected", "count_per_basis"])
@pytest.mark.parametrize(
    "p_bases",
    [(0.5, 0.5), (0.7, 0.6), (0.8, 0.65), (1.0, 1.0), (1.0, 0.3), (0.0, 0.0)],
)
def test_enumeration_equals_the_sequence_walk_exactly(family, p_bases):
    """Every report field equals the per-sequence Fraction walk, bit for bit."""
    for rule, plain_rule, k in _enumeration_cases(family):
        try:
            want = oracles.enumerate_bias_reference(plain_rule, p_bases, k)
        except ValueError as exc:
            with pytest.raises(DomainError, match=str(exc)):
                enumerate_bias(rule, p_bases, k)
            continue
        rep = enumerate_bias(rule, p_bases, k)
        assert rep.rule == rule
        for field, value in want.items():
            got = getattr(rep, field)
            if field == "t_distribution":
                assert list(got.items()) == list(value.items()), (rule, k)
            else:
                assert got == value, (rule, k, field)


@pytest.mark.parametrize(
    "rule,p_bases,k",
    [
        (CountPerBasis(2, 2), (0.5, 0.5), 11),
        (CountDetected(10), (0.5, 0.5), 10),
        (CountPerBasis(3, 1), (0.7, 0.6), 12),
        (CountDetected(12), (0.5, 0.5), 12),
        # Two letters, M and Z or M and X, at the full code width.  A
        # per-basis rule never terminates on these: it needs both X and Z.
        (CountDetected(12), (1.0, 0.3), 12),
        (CountDetected(12), (0.0, 0.7), 12),
    ],
)
def test_enumeration_equals_the_depth_first_walk_at_benchmark_scale(rule, p_bases, k):
    """Every field and the key order of t_distribution, at k = 10 to 12."""
    want = oracles.enumerate_bias_dfs_reference(rule, p_bases, k)
    rep = enumerate_bias(rule, p_bases, k)
    assert rep == want
    assert list(rep.t_distribution.items()) == list(want.t_distribution.items())



# 0.3 and 0.65 are not dyadic: their Fractions have denominators of 2**54 and
# 2**53, so the common denominator of the letter probabilities is large.
_P_BASIS = st.one_of(st.sampled_from([0.0, 0.3, 0.5, 0.65, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=100)
@given(
    st.one_of(
        st.tuples(st.just("count_detected"), st.integers(1, 4)),
        st.tuples(st.just("count_per_basis"), st.integers(1, 4), st.integers(1, 4)),
    ),
    st.tuples(_P_BASIS, _P_BASIS),
    st.integers(1, 7),
)
def test_enumeration_equals_the_sequence_walk_for_any_probabilities(plain_rule, p_bases, k):
    """Every field and the key order of t_distribution, for drawn rules and p_bases."""
    assume(plain_rule[0] == "count_per_basis" or plain_rule[1] <= k)
    rule = (CountDetected if plain_rule[0] == "count_detected" else CountPerBasis)(*plain_rule[1:])
    try:
        want = oracles.enumerate_bias_reference(plain_rule, p_bases, k)
    except ValueError as exc:
        with pytest.raises(DomainError, match=str(exc)):
            enumerate_bias(rule, p_bases, k)
        return
    rep = enumerate_bias(rule, p_bases, k)
    assert dataclasses.asdict(rep) == {"rule": dataclasses.asdict(rule), **want}
    assert list(rep.t_distribution.items()) == list(want["t_distribution"].items())

@settings(max_examples=25)
@given(
    st.integers(1, 4),
    st.floats(0.15, 0.85),
    st.floats(0.15, 0.85),
)
def test_detected_count_rule_unbiased_for_any_probabilities(n, p_a, p_b):
    rep = enumerate_bias(CountDetected(n), (p_a, p_b), 4)
    assert rep.tv_from_uniform == 0.0
    assert not rep.dependence_detected
