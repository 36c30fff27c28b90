"""Statistical validation machinery for estimation runs.

Two families live here.  The martingale side turns estimation runs into
centered cumulative processes (count minus summed conditional probability),
checks the bounded-difference condition exactly, and measures how often the
concentration bound's deviation is actually exceeded.  The enumeration side
computes, in exact rational arithmetic, how a stopping rule skews the
positions of test rounds — the structural property the detected-count rule is
chosen to preserve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .adversary import EveStrategy
from .errors import DomainError, EnumerationTooLarge, TraceInconsistent
from .quantum_core import BobPOVM
from .protocol import (
    Basis,
    CountDetected,
    CountPerBasis,
    EstimationRun,
    ProtocolParams,
    RandomStream,
    TerminationRule,
    derive_stream,
    replay_counter,
    run_estimation,
)

_BDC_LIMIT = 1.0
_RECOUNT_ATOL = 1e-9


@dataclass(frozen=True)
class MartingaleTrace:
    """Centered processes of one estimation run, indexed j = 0..N.

    ``x_ph[j] = lambda_ph[j] - sum_{i<=j} p_ph[i]`` and likewise for the
    X-error process; ``x_*[0] = 0``.  Increments lie in [-1, 1] by
    construction and that is verified exactly, not within a tolerance.
    """

    x_ph: np.ndarray
    x_xerr: np.ndarray
    lambda_ph: np.ndarray
    lambda_xerr: np.ndarray
    p_ph: np.ndarray
    p_xerr: np.ndarray

    @property
    def n_rounds(self) -> int:
        return len(self.p_ph)


def build_trace(run: EstimationRun) -> MartingaleTrace:
    """Assemble the centered processes from an estimation run.

    Recounts the error indicators from the per-round records; disagreement
    with the run's stored counters, a violated bounded-difference condition,
    or a nonzero starting point all raise :class:`TraceInconsistent`.
    """
    n = len(run.per_round)
    ind_ph = np.zeros(n, dtype=np.float64)
    ind_xerr = np.zeros(n, dtype=np.float64)
    p_ph = np.empty(n, dtype=np.float64)
    p_xerr = np.empty(n, dtype=np.float64)
    for i, rec in enumerate(run.per_round):
        p_ph[i] = rec.p_ph
        p_xerr[i] = rec.p_xerr
        if rec.x_outcomes[0] != rec.x_outcomes[1]:
            ba, bb = rec.bases
            if ba is Basis.Z and bb is Basis.Z:
                ind_ph[i] = 1.0
            elif ba is Basis.X and bb is Basis.X:
                ind_xerr[i] = 1.0
    if int(ind_ph.sum()) != run.lambda_ph or int(ind_xerr.sum()) != run.lambda_xerr:
        raise TraceInconsistent(
            f"recounted (ph={int(ind_ph.sum())}, xerr={int(ind_xerr.sum())}) "
            f"vs stored (ph={run.lambda_ph}, xerr={run.lambda_xerr})"
        )

    def centered(ind: np.ndarray, p: np.ndarray, what: str) -> np.ndarray:
        x = np.zeros(n + 1, dtype=np.float64)
        np.cumsum(ind - p, out=x[1:])
        steps = np.abs(np.diff(x))
        if steps.size and float(steps.max()) > _BDC_LIMIT:
            raise TraceInconsistent(
                f"{what}: bounded-difference condition violated: "
                f"max |step| = {float(steps.max())!r}"
            )
        return x

    x_ph = centered(ind_ph, p_ph, "phase process")
    x_xerr = centered(ind_xerr, p_xerr, "X-error process")
    lam_ph = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ind_ph.astype(np.int64), out=lam_ph[1:])
    lam_xerr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(ind_xerr.astype(np.int64), out=lam_xerr[1:])
    return MartingaleTrace(
        x_ph=x_ph,
        x_xerr=x_xerr,
        lambda_ph=lam_ph,
        lambda_xerr=lam_xerr,
        p_ph=p_ph,
        p_xerr=p_xerr,
    )


@dataclass(frozen=True)
class DriftStats:
    """Per-round mean increments with standard errors, over many traces."""

    n_traces: int
    mean_ph: np.ndarray
    stderr_ph: np.ndarray
    mean_xerr: np.ndarray
    stderr_xerr: np.ndarray


def martingale_drift(traces: list[MartingaleTrace]) -> DriftStats:
    """Mean per-round increment across traces; zero for a true martingale."""
    if len(traces) < 100:
        raise DomainError(f"need at least 100 traces, got {len(traces)}")
    n = traces[0].n_rounds
    for t in traces:
        if t.n_rounds != n:
            raise DomainError("traces have unequal round counts")
    inc_ph = np.stack([np.diff(t.x_ph) for t in traces])
    inc_xerr = np.stack([np.diff(t.x_xerr) for t in traces])
    m = len(traces)
    return DriftStats(
        n_traces=m,
        mean_ph=inc_ph.mean(axis=0),
        stderr_ph=inc_ph.std(axis=0, ddof=1) / math.sqrt(m),
        mean_xerr=inc_xerr.mean(axis=0),
        stderr_xerr=inc_xerr.std(axis=0, ddof=1) / math.sqrt(m),
    )


def relation_check(run: EstimationRun) -> float:
    """Residual of the scaled error-probability identity.

    Per detected round both conditional probabilities are the same trace
    weighted by q_z and q_x, so sum(p_ph)/q_z - sum(p_xerr)/q_x should vanish
    to rounding.
    """
    q_z = run.transcript.params.q_z
    q_x = run.transcript.params.q_x
    return math.fsum(r.p_ph / q_z for r in run.per_round) - math.fsum(
        r.p_xerr / q_x for r in run.per_round
    )


# ---------------------------------------------------------------------------
# Concentration coverage


@dataclass(frozen=True)
class CoverageReport:
    """How often the one-sided deviation n*delta was actually exceeded."""

    trials: int
    violations_ph: int
    violations_xerr: int
    eta_claimed: float
    delta: float


@dataclass(frozen=True)
class TrialStats:
    """Per-trial summary counters of repeated estimation runs."""

    n: int  # detected rounds per trial
    lambda_ph: np.ndarray
    lambda_xerr: np.ndarray
    sum_p_ph: np.ndarray
    sum_p_xerr: np.ndarray
    n_z: np.ndarray
    n_x: np.ndarray


def coverage_trials(
    params: ProtocolParams,
    strategy: EveStrategy,
    trials: int,
    rng: RandomStream,
    workers: int = 1,
    povm: BobPOVM | None = None,
) -> TrialStats:
    """Run ``trials`` estimation sessions and collect their counters.

    Per-trial streams are derived from a base seed drawn once from ``rng``
    with the documented counter scheme, and trials run in index order on the
    calling thread.  For a strategy with a ``schedule`` whose ops share their
    delivery and detection probabilities under ``povm`` (every built-in
    strategy), each trial's session is replayed from its own MT19937 streams
    in NumPy, without a transcript or a ``behavior`` call; other strategies
    run the round loop of :func:`run_estimation`.  The numbers are the same
    either way (see :func:`~qkd_sift.protocol.replay_counter`), and a
    trial that exceeds ``max_rounds`` raises the same
    :class:`MaxRoundsExceeded`.  ``workers`` is accepted and ignored.
    """
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    base_seed = rng.getrandbits(64)
    count = replay_counter(params, strategy, povm) or functools.partial(
        _estimation_counts, params, strategy, povm
    )
    lam_ph, lam_xerr, sum_ph, sum_xerr, n_z, n_x = zip(
        *(count(derive_stream(base_seed, i)) for i in range(trials))
    )
    return TrialStats(
        n=params.n_det_ter,
        lambda_ph=np.array(lam_ph, dtype=np.int64),
        lambda_xerr=np.array(lam_xerr, dtype=np.int64),
        sum_p_ph=np.array(sum_ph, dtype=np.float64),
        sum_p_xerr=np.array(sum_xerr, dtype=np.float64),
        n_z=np.array(n_z, dtype=np.int64),
        n_x=np.array(n_x, dtype=np.int64),
    )


def _estimation_counts(
    params: ProtocolParams, strategy: EveStrategy, povm: BobPOVM | None, rng: RandomStream
) -> tuple[int, int, float, float, int, int]:
    """The counters of :func:`~qkd_sift.protocol.replay_counter`, from the round loop."""
    run = run_estimation(params, strategy, rng, povm=povm)
    return (
        run.lambda_ph,
        run.lambda_xerr,
        math.fsum(r.p_ph for r in run.per_round),
        math.fsum(r.p_xerr for r in run.per_round),
        len(run.s_az_vir),
        sum(1 for r in run.per_round if r.bases[0] is Basis.X and r.bases[1] is Basis.X),
    )


def coverage_report(stats: TrialStats, delta: float) -> CoverageReport:
    """Count deviation violations of both one-sided bounds at one delta."""
    if delta < 0.0:
        raise DomainError(f"delta must be >= 0, got {delta!r}")
    threshold = stats.n * delta
    v_ph = int(np.count_nonzero(stats.lambda_ph - stats.sum_p_ph >= threshold))
    v_xerr = int(np.count_nonzero(stats.sum_p_xerr - stats.lambda_xerr >= threshold))
    return CoverageReport(
        trials=len(stats.lambda_ph),
        violations_ph=v_ph,
        violations_xerr=v_xerr,
        eta_claimed=math.exp(-stats.n * delta * delta / 2.0),
        delta=delta,
    )


def azuma_coverage(
    params: ProtocolParams,
    strategy: EveStrategy,
    trials: int,
    rng: RandomStream,
) -> CoverageReport:
    """Violation frequency of the concentration bound at ``params.delta``."""
    return coverage_report(coverage_trials(params, strategy, trials, rng), params.delta)


# ---------------------------------------------------------------------------
# Exact stopping-rule bias enumeration

_ENUM_MAX_ROUNDS = 12


@dataclass(frozen=True)
class BiasReport:
    """Exact analysis of test-position uniformity under a stopping rule.

    ``t_distribution`` maps each terminating per-round pattern sequence
    (string over Z/X/M) to its probability conditioned on termination.
    ``tv_from_uniform`` is the terminating-mass-weighted total variation
    between the conditional law of pattern *arrangements* (given length and
    per-letter counts) and the uniform law over arrangements — zero exactly
    when which-rounds-are-tests is exchangeable.  ``dependence_detected``
    reports whether a deterministic error pattern correlated with the pattern
    prefix (an error wherever the previous round was a test) produces
    different error rates on test and code positions.
    """

    rule: TerminationRule
    n_rounds_enumerated: int
    t_distribution: dict[str, float]
    tv_from_uniform: float
    dependence_detected: bool
    terminating_mass: float
    test_error_rate: float
    code_error_rate: float


def enumerate_bias(
    rule: TerminationRule, p_bases: tuple[float, float], max_rounds: int
) -> BiasReport:
    """Exhaustively enumerate announcement sequences under a lossless channel.

    ``p_bases`` is (p_z_a, p_z_b).  Every round is detected (no loss, unit
    detector efficiency), so the announcement content per round reduces to the
    basis pattern.  Sequences that have not terminated after ``max_rounds``
    rounds are excluded and the report is conditioned on the terminating mass.

    Every arrangement of a composition (length, #Z, #X) has the same product
    probability, so the walk over sequences carries only integers: per
    composition it counts the terminating arrangements and their X->X and X->Z
    adjacencies.  Exact rational arithmetic then runs once per composition.
    """
    if max_rounds < 1:
        raise DomainError(f"max_rounds must be >= 1, got {max_rounds}")
    if max_rounds > _ENUM_MAX_ROUNDS:
        raise EnumerationTooLarge(
            f"exact enumeration supports at most {_ENUM_MAX_ROUNDS} rounds, "
            f"got {max_rounds}"
        )
    if isinstance(rule, CountDetected):
        if rule.n > max_rounds:
            raise DomainError(
                f"CountDetected({rule.n}) cannot terminate within {max_rounds} rounds"
            )
    elif not isinstance(rule, CountPerBasis):
        raise DomainError(f"unsupported termination rule {rule!r}")

    p_z_a, p_z_b = (Fraction(p) for p in p_bases)
    for p in (p_z_a, p_z_b):
        if not 0 <= p <= 1:
            raise DomainError(f"basis probability {float(p)} outside [0, 1]")
    q_z = p_z_a * p_z_b
    q_x = (1 - p_z_a) * (1 - p_z_b)
    q_m = 1 - q_z - q_x
    # Both rules read "stop once n >= n_req, c_z >= z_req and c_x >= x_req".
    if isinstance(rule, CountDetected):
        n_req, z_req, x_req = rule.n, 0, 0
    else:
        n_req, z_req, x_req = 1, rule.n_z_req, rule.n_x_req

    # Depth-first over letters with nonzero probability, popped in the order
    # M < X < Z.  No leaf is a prefix of another, so the leaves come out
    # sorted.  Stack entries: (sequence, #Z, #X, #X->X, #X->Z adjacencies).
    leaves: list[tuple[str, tuple[int, int, int]]] = []
    # Per composition: [terminating arrangements, their X->X, their X->Z].
    tally: dict[tuple[int, int, int], list[int]] = {}
    stack = [("", 0, 0, 0, 0)]
    push = stack.append
    while stack:
        seq, c_z, c_x, xx, xz = stack.pop()
        n = len(seq)
        if n >= n_req and c_z >= z_req and c_x >= x_req:
            key = (n, c_z, c_x)
            counts = tally.get(key)
            if counts is None:
                tally[key] = [1, xx, xz]
            else:
                counts[0] += 1
                counts[1] += xx
                counts[2] += xz
            leaves.append((seq, key))
            continue
        if n == max_rounds:
            continue  # truncated: non-terminating mass
        after_x = seq[-1:] == "X"
        if q_z:
            push((seq + "Z", c_z + 1, c_x, xx, xz + after_x))
        if q_x:
            push((seq + "X", c_z, c_x + 1, xx + after_x, xz))
        if q_m:
            push((seq + "M", c_z, c_x, xx, xz))

    # Deterministic prefix-correlated error pattern: an error occurs at round
    # i exactly when round i-1 was a test round, so test errors are X->X
    # adjacencies and code errors X->Z ones.  Under an exchangeable rule the
    # error rates on test and code positions coincide; a rule whose stopping
    # time reads the announcements drives them apart.  Each rate is a ratio
    # of two masses, so their common 1/total factor is left out.
    prob: dict[tuple[int, int, int], Fraction] = {}
    total = tv = err_test = err_code = mass_test = mass_code = Fraction(0)
    for key, (n_term, xx, xz) in tally.items():
        n, c_z, c_x = key
        c_m = n - c_z - c_x
        p = prob[key] = q_z**c_z * q_x**c_x * q_m**c_m
        mass = p * n_term
        total += mass
        # Within a composition the conditional law is uniform over the
        # *terminating* arrangements; TV against uniform-over-all-arrangements
        # is 1 - |S| / M.
        arrangements = math.factorial(n) // (
            math.factorial(c_z) * math.factorial(c_x) * math.factorial(c_m)
        )
        tv += mass * (1 - Fraction(n_term, arrangements))
        err_test += p * xx
        err_code += p * xz
        mass_test += mass * c_x
        mass_code += mass * c_z
    if total == 0:
        raise DomainError("no sequence terminates within max_rounds")
    rate_test = err_test / mass_test if mass_test else Fraction(0)
    rate_code = err_code / mass_code if mass_code else Fraction(0)

    value = {key: float(p / total) for key, p in prob.items()}
    return BiasReport(
        rule=rule,
        n_rounds_enumerated=max_rounds,
        t_distribution={seq: value[key] for seq, key in leaves},
        tv_from_uniform=float(tv / total),
        dependence_detected=rate_test != rate_code,
        terminating_mass=float(total),
        test_error_rate=float(rate_test),
        code_error_rate=float(rate_code),
    )
