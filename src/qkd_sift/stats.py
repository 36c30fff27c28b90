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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .adversary import EveStrategy
from .errors import DomainError, EnumerationTooLarge, TraceInconsistent, as_count, is_int
from .finite_key import azuma_tail
from .quantum_core import BobPOVM
from .protocol import (
    _XX,
    _ZZ,
    CountDetected,
    CountPerBasis,
    EstimationRun,
    ProtocolParams,
    RandomStream,
    TerminationRule,
    _dyadic,
    _repeated_sum,
    derive_stream,
    replay_counter,
    run_estimation,
)

_BDC_LIMIT = 1.0


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

    Recounts the error indicators from the run's columns; disagreement
    with the run's stored counters, a violated bounded-difference condition,
    or a nonzero starting point all raise :class:`TraceInconsistent`.
    """
    params = run.transcript.params
    pair = np.frombuffer(run.pairs, dtype=np.uint8)
    error = np.frombuffer(run.readouts, dtype=np.uint8) % 3 > 0  # x_a != x_b
    ind_ph = error & (pair == _ZZ)
    ind_xerr = error & (pair == _XX)
    t = np.array(run.t_phase, dtype=np.float64)[run.laws]
    p_ph = params.q_z * t
    p_xerr = params.q_x * t
    lam_ph = np.concatenate(([0], np.cumsum(ind_ph, dtype=np.int64)))
    lam_xerr = np.concatenate(([0], np.cumsum(ind_xerr, dtype=np.int64)))
    if lam_ph[-1] != run.lambda_ph or lam_xerr[-1] != run.lambda_xerr:
        raise TraceInconsistent(
            f"recounted (ph={lam_ph[-1]}, xerr={lam_xerr[-1]}) "
            f"vs stored (ph={run.lambda_ph}, xerr={run.lambda_xerr})"
        )

    def centered(ind: np.ndarray, p: np.ndarray, what: str) -> np.ndarray:
        x = np.concatenate(([0.0], np.cumsum(ind - p)))
        steps = np.abs(np.diff(x))
        if steps.size and float(steps.max()) > _BDC_LIMIT:
            raise TraceInconsistent(
                f"{what}: bounded-difference condition violated: "
                f"max |step| = {float(steps.max())!r}"
            )
        return x

    return MartingaleTrace(
        x_ph=centered(ind_ph, p_ph, "phase process"),
        x_xerr=centered(ind_xerr, p_xerr, "X-error process"),
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
    if q_z == 0.0 or q_x == 0.0:
        raise DomainError(f"the relation needs q_z and q_x > 0, got q_z={q_z!r}, q_x={q_x!r}")
    return _law_sum(run, [q_z * t / q_z for t in run.t_phase]) - _law_sum(
        run, [q_x * t / q_x for t in run.t_phase]
    )


def _law_sum(run: EstimationRun, weights: list[float]) -> float:
    """``math.fsum`` over the run's detected rounds of ``weights[law]``."""
    counts = np.bincount(run.laws, minlength=len(weights))
    return _repeated_sum(_dyadic(weights), counts.tolist())


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
    strategy that detects at all), each trial's session is replayed from its
    own MT19937 streams in NumPy, without a transcript or a ``behavior``
    call; other strategies run the round loop of :func:`run_estimation`.
    The numbers are the same either way (see
    :func:`~qkd_sift.protocol.replay_counter`), and a trial that exceeds
    ``max_rounds`` raises the same :class:`MaxRoundsExceeded`.  ``workers``
    is accepted and ignored.
    """
    trials = as_count(trials, "trials", 1)
    base_seed = rng.getrandbits(64)
    count = replay_counter(params, strategy, povm) or (
        lambda stream: estimation_counts(
            run_estimation(params, strategy, stream, povm=povm)
        )
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


def estimation_counts(run: EstimationRun) -> tuple[int, int, float, float, int, int]:
    """One run's ``(lambda_ph, lambda_xerr, sum_p_ph, sum_p_xerr, n_z, n_x)``.

    These are the counters of :func:`~qkd_sift.protocol.replay_counter`, read
    off the run's columns.
    """
    params = run.transcript.params
    return (
        run.lambda_ph,
        run.lambda_xerr,
        _law_sum(run, [params.q_z * t for t in run.t_phase]),
        _law_sum(run, [params.q_x * t for t in run.t_phase]),
        len(run.s_az_vir),
        run.pairs.count(_XX),
    )


def coverage_report(stats: TrialStats, delta: float) -> CoverageReport:
    """Count deviation violations of both one-sided bounds at one delta."""
    tail = azuma_tail(stats.n, delta)  # refuses a negative or NaN delta
    threshold = stats.n * delta
    v_ph = int(np.count_nonzero(stats.lambda_ph - stats.sum_p_ph >= threshold))
    v_xerr = int(np.count_nonzero(stats.sum_p_xerr - stats.lambda_xerr >= threshold))
    return CoverageReport(
        trials=len(stats.lambda_ph),
        violations_ph=v_ph,
        violations_xerr=v_xerr,
        eta_claimed=tail.eta_single,
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

# A live prefix of the listing walk is one uint32: #Z and #X in the top two
# nibbles, then one two-bit digit per round (M=1, X=2, Z=3), the first round
# in the top digit and 0 past the prefix's end.  Word b of this table holds
# the four letters of code byte b as ASCII in memory order, a space per 0.
_LETTER_WORDS = np.frombuffer(
    bytes(b" MXZ"[b >> shift & 3] for b in range(256) for shift in (6, 4, 2, 0)),
    dtype=np.uint32,
)


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

    A level-by-level walk in NumPy, keeping each live prefix as one uint32
    of its #Z, #X and two-bit letters, lists the terminating sequences.
    Every arrangement of a composition (length, #Z, #X) has the same product
    probability, so the report needs, per terminating composition, only the
    number of its terminating arrangements and their X->X and X->Z
    adjacencies, which are counted over the listed sequences.  Each letter's
    probability is an integer over one common denominator d, so every mass
    is an integer over ``d**max_rounds`` and each probability in the report
    is an exact ratio, rounded once.  ``t_distribution`` lists the sequences
    in lexicographic order with M < X < Z.
    """
    if not is_int(max_rounds):
        raise DomainError(f"max_rounds must be an int, got {max_rounds!r}")
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

    for p in p_bases:
        if not 0 <= p <= 1:  # false for NaN too
            raise DomainError(f"basis probability {float(p)} outside [0, 1]")
    p_z_a, p_z_b = (Fraction(p) for p in p_bases)
    q_z = p_z_a * p_z_b
    q_x = (1 - p_z_a) * (1 - p_z_b)
    q_m = 1 - q_z - q_x
    # Each letter's probability is a / d for one common denominator d.
    d = math.lcm(q_m.denominator, q_x.denominator, q_z.denominator)
    a_m, a_x, a_z = (q.numerator * (d // q.denominator) for q in (q_m, q_x, q_z))
    # Both rules read "stop once n >= n_req, c_z >= z_req and c_x >= x_req".
    if isinstance(rule, CountDetected):
        n_req, z_req, x_req = rule.n, 0, 0
    else:
        n_req, z_req, x_req = 1, rule.n_z_req, rule.n_x_req
    # The letters of nonzero probability, coded M=0, X=1, Z=2.
    digits = [digit for digit, a in enumerate((a_m, a_x, a_z)) if a]

    # Level by level: each level extends every live prefix by every letter
    # and splits off as leaves the prefixes that meet the stopping condition.
    # A prefix is one uint32 (see _LETTER_WORDS), so a letter adds one
    # constant: its digit at this level's place and 1 to its count, if any.
    # Leaf compositions (n, #Z, #X) are packed as (n*16 + #Z)*16 + #X.
    letter = np.array(digits, dtype=np.uint32) + 1
    count = np.array([0, 1 << 24, 1 << 28], dtype=np.uint32)[digits]
    # Some leaf has at least z_req Zs and x_req Xs, so both bounds fit their
    # nibbles.
    z_min, x_min = np.uint32(z_req << 28), np.uint32(x_req << 24)
    prefix = np.zeros(1, dtype=np.uint32)
    leaves, comps = [], []
    for n in range(1, max_rounds + 1):
        prefix = (prefix[:, None] + (letter << 2 * (_ENUM_MAX_ROUNDS - n) | count)).ravel()
        if n < n_req:
            continue
        stop = (prefix >= z_min) & (prefix & 0x0F000000 >= x_min)
        leaves.append(prefix[stop])
        comps.append(leaves[-1] >> 24 | n << 8)
        prefix = prefix[~stop]
        if not len(prefix):
            break
    # Each stage frees its arrays before the next: at k = 12 that keeps about
    # 19 MiB off the peak.
    del prefix, stop
    leaf, comp = np.concatenate(leaves), np.concatenate(comps)
    del leaves, comps

    # Per composition: its terminating arrangements and their X->X and X->Z
    # adjacencies.  A letter's high bit is set for X and Z and its low bit
    # for M and Z; the next letter sits two bits lower.  The 0 digits past a
    # sequence's end have a clear low bit too, so each flag needs the high bit.
    x = leaf & ~(leaf << 1) & 0xAAAAAA
    z = leaf & (leaf << 1) & 0xAAAAAA
    weights = (None, np.bitwise_count(x >> 2 & x), np.bitwise_count(x >> 2 & z))
    sums = [np.bincount(comp, w) for w in weights]
    del x, z, weights
    keys = np.flatnonzero(sums[0]).tolist()
    tally = {key: [int(column[key]) for column in sums] for key in keys}  # exact big-int sums
    del sums
    if not tally:
        raise DomainError("no sequence terminates within max_rounds")

    # Deterministic prefix-correlated error pattern: an error occurs at round
    # i exactly when round i-1 was a test round, so test errors are X->X
    # adjacencies and code errors X->Z ones.  Under an exchangeable rule the
    # error rates on test and code positions coincide; a rule whose stopping
    # time reads the announcements drives them apart.  Each rate is a ratio
    # of two masses, so their common 1/total factor is left out.  Every mass
    # is an integer over d**max_rounds.
    mass: dict[int, int] = {}
    total = err_test = err_code = mass_test = mass_code = 0
    tv = Fraction(0)
    for key, (n_term, xx, xz) in tally.items():
        n, c_z, c_x = key >> 8, key >> 4 & 15, key & 15
        c_m = n - c_z - c_x
        m = mass[key] = a_z**c_z * a_x**c_x * a_m**c_m * d ** (max_rounds - n)
        total += m * n_term
        # Within a composition the conditional law is uniform over the
        # *terminating* arrangements; TV against uniform-over-all-arrangements
        # is 1 - |S| / M.
        arrangements = math.factorial(n) // (
            math.factorial(c_z) * math.factorial(c_x) * math.factorial(c_m)
        )
        tv += Fraction(m * n_term * (arrangements - n_term), arrangements)
        err_test += m * xx
        err_code += m * xz
        mass_test += m * n_term * c_x
        mass_code += m * n_term * c_z
    # A rate over zero mass is 0, and its error sum is then 0 too, so the
    # rates differ exactly when the cross products do.
    mass_test, mass_code = mass_test or 1, mass_code or 1

    # No leaf is a prefix of another, so ordering the codes orders the
    # sequences lexicographically, M < X < Z.
    order = np.argsort(leaf & 0xFFFFFF)
    leaf, comp = leaf[order], comp[order]
    del order

    # Each leaf's letters, four to a word from each of its code's three
    # bytes, then a word of spaces, in one buffer.
    text = np.empty((len(leaf), 4), dtype=np.uint32)
    text[:, 3] = _LETTER_WORDS[0]
    for j, shift in enumerate((16, 8, 0)):
        np.take(_LETTER_WORDS, leaf >> shift & 255, out=text[:, j])
    seqs = text.tobytes().decode("ascii").split()
    del leaf, text
    # One float per composition, shared by its leaves through an object
    # array indexed by the packed composition.
    value = np.empty((max_rounds + 1) << 8, dtype=object)
    for key, m in mass.items():
        value[key] = m / total
    return BiasReport(
        rule=rule,
        n_rounds_enumerated=max_rounds,
        t_distribution=dict(zip(seqs, value[comp].tolist())),
        tv_from_uniform=float(tv / total),
        dependence_detected=err_test * mass_code != err_code * mass_test,
        terminating_mass=total / d**max_rounds,
        test_error_rate=err_test / mass_test,
        code_error_rate=err_code / mass_code,
    )
