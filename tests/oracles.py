"""Independent reference implementations the tests freeze values against.

Everything here is written directly from the defining formulas, using
arbitrary precision (mpmath), exact rationals, or naive brute force.  None of
it imports the package under test, so agreement is meaningful.  The
exceptions are former bodies of package functions that their NumPy
replacements must match number for number:
:func:`coverage_trials_reference`, the trial loop over the package's own
round loop; :func:`estimation_counts_reference`,
:func:`relation_check_reference` and :func:`build_trace_reference`, which
read an estimation run's per-round records; and
:func:`enumerate_bias_dfs_reference`, the depth-first walk behind the exact
stopping-rule bias.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import mpmath
import numpy as np

mpmath.mp.dps = 60


def h2(x) -> mpmath.mpf:
    x = mpmath.mpf(x)
    if x == 0 or x == 1:
        return mpmath.mpf(0)
    return -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)


def key_length(n_z, e_ph_bar, eps_s, eta, lambda_ec, eps_c):
    """(l, pre-floor value) at 60 decimal digits."""
    e = min(mpmath.mpf(e_ph_bar), mpmath.mpf("0.5"))
    margin = mpmath.mpf(eps_s) ** 2 - mpmath.mpf(eta)
    if margin <= 0:
        raise ValueError("eps_s**2 <= eta")
    pre = (
        mpmath.mpf(n_z) * (1 - h2(e))
        - mpmath.log(2 / margin, 2)
        - lambda_ec
        - mpmath.log(2 / mpmath.mpf(eps_c), 2)
    )
    return max(0, int(mpmath.floor(pre))), pre


def azuma_single(n, delta) -> mpmath.mpf:
    return mpmath.exp(-mpmath.mpf(n) * mpmath.mpf(delta) ** 2 / 2)


def phase_error_bound(wt, q_z, q_x, n, delta) -> mpmath.mpf:
    ratio = mpmath.mpf(q_z) / mpmath.mpf(q_x)
    return ratio * mpmath.mpf(wt) + (ratio + 1) * mpmath.mpf(n) * mpmath.mpf(delta)


def toeplitz_matrix(seed_bits: np.ndarray, n: int, out_len: int) -> np.ndarray:
    """The Toeplitz matrix written out entry by entry: T[i][j] = seed[n-1+i-j]."""
    t = np.zeros((out_len, n), dtype=np.uint8)
    for i in range(out_len):
        for j in range(n):
            t[i, j] = seed_bits[n - 1 + i - j]
    return t


def poly_eval(bits, modulus: int, point: int) -> int:
    """Polynomial-at-a-point via plain integer arithmetic, coefficients MSB first."""
    value = 0
    power = 1
    for b in reversed(list(bits)):
        value += int(b) * power
        power *= point
    return value % modulus


# ---------------------------------------------------------------------------
# Small dense quantum arithmetic, written longhand.

_K0 = np.array([1.0, 0.0], dtype=complex)
_K1 = np.array([0.0, 1.0], dtype=complex)
_KP = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_KM = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)

SOURCE_KETS = {("Z", 0): _K0, ("Z", 1): _K1, ("X", 0): _KP, ("X", 1): _KM}


def psd_root(m: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix, by its eigendecomposition."""
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """A Haar-random 2x2 unitary, from the QR decomposition of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _proj(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def bob_elements(eta_det: float = 1.0) -> dict:
    """Bob's five effects with a basis-independent failure element."""
    return {
        ("Z", 0): eta_det * _proj(_K0),
        ("Z", 1): eta_det * _proj(_K1),
        ("X", 0): eta_det * _proj(_KP),
        ("X", 1): eta_det * _proj(_KM),
        "fail": (1.0 - eta_det) * np.eye(2, dtype=complex),
    }


def qubit_round_law(
    kraus_deliver: list[np.ndarray],
    p_z_a: float,
    p_z_b: float,
    eta_det: float = 1.0,
) -> dict:
    """Joint law of one prepared-and-measured round, by direct summation.

    Returns {(basis_a, bit_a, basis_b, outcome): probability} where outcome is
    0, 1, or "fail"; the deliver branch probability is folded in, and the loss
    branch appears as (basis_a, bit_a, None, None) mass.
    """
    elements = bob_elements(eta_det)
    law: dict = {}
    for basis_a, p_a in (("Z", p_z_a), ("X", 1.0 - p_z_a)):
        for bit_a in (0, 1):
            rho = _proj(SOURCE_KETS[(basis_a, bit_a)])
            prep = p_a * 0.5
            delivered = np.zeros((2, 2), dtype=complex)
            for k in kraus_deliver:
                delivered += k @ rho @ k.conj().T
            p_deliver = float(np.trace(delivered).real)
            law[(basis_a, bit_a, None, None)] = prep * (1.0 - p_deliver)
            for basis_b, p_b in (("Z", p_z_b), ("X", 1.0 - p_z_b)):
                for outcome in (0, 1):
                    p = float(
                        np.trace(elements[(basis_b, outcome)] @ delivered).real
                    )
                    law[(basis_a, bit_a, basis_b, outcome)] = prep * p_b * p
                p_fail = float(np.trace(elements["fail"] @ delivered).real)
                law[(basis_a, bit_a, basis_b, "fail")] = prep * p_b * p_fail
    return law


def entangled_round_law(
    kraus_deliver: list[np.ndarray],
    p_z_a: float,
    p_z_b: float,
    eta_det: float = 1.0,
) -> dict:
    """Same announcement-content law, derived from the two-qubit picture.

    The source keeps half of a maximally entangled pair, the channel acts on
    the flying half, detection filters with sqrt(I - fail), and both sides
    measure.  Collapses to {(basis_a, bit_a, basis_b, outcome): p} plus
    (basis_a=None, ...) loss and (..., "fail") rows marginalized over A so it
    can be compared against :func:`qubit_round_law` after the same grouping.
    """
    elements = bob_elements(eta_det)
    phi = (np.kron(_K0, _K0) + np.kron(_K1, _K1)) / np.sqrt(2.0)
    rho = np.outer(phi, phi.conj())
    delivered = np.zeros((4, 4), dtype=complex)
    for k in kraus_deliver:
        k4 = np.kron(np.eye(2, dtype=complex), k)
        delivered += k4 @ rho @ k4.conj().T
    p_deliver = float(np.trace(delivered).real)

    fail = elements["fail"]
    eigvals, eigvecs = np.linalg.eigh(fail)
    sqrt_det = eigvecs @ np.diag(np.sqrt(np.clip(1.0 - eigvals, 0.0, None))) @ eigvecs.conj().T
    k_det = np.kron(np.eye(2, dtype=complex), sqrt_det)
    detected = k_det @ delivered @ k_det.conj().T
    p_detect_given_deliver = (
        float(np.trace(detected).real) / p_deliver if p_deliver > 0 else 0.0
    )

    law: dict = {"lost": 1.0 - p_deliver, "fail": p_deliver * (1.0 - p_detect_given_deliver)}
    inv_sqrt = eigvecs @ np.diag(
        [1.0 / np.sqrt(1.0 - v) if 1.0 - v > 1e-12 else 0.0 for v in eigvals]
    ) @ eigvecs.conj().T
    for basis_a, p_a in (("Z", p_z_a), ("X", 1.0 - p_z_a)):
        for bit_a in (0, 1):
            proj_a = _proj(SOURCE_KETS[(basis_a, bit_a)]).conj()  # A holds the mirror
            for basis_b, p_b in (("Z", p_z_b), ("X", 1.0 - p_z_b)):
                for outcome in (0, 1):
                    eff = inv_sqrt @ elements[(basis_b, outcome)] @ inv_sqrt
                    joint = np.kron(proj_a, eff)
                    p = float(np.trace(joint @ detected).real)
                    law[(basis_a, bit_a, basis_b, outcome)] = p_a * p_b * p
    return law


# ---------------------------------------------------------------------------
# Exact stopping-rule bias, one Fraction product per tree node and per letter.


def enumerate_bias_reference(rule: tuple, p_bases: tuple, max_rounds: int) -> dict:
    """Sequence-by-sequence exact enumeration of a stopping rule's bias.

    ``rule`` is ``("count_detected", n)`` or ``("count_per_basis", n_z, n_x)``.
    Returns the fields of the package's bias report (all but ``rule``) as a
    dict, and raises ``ValueError`` when no sequence terminates.  Every
    probability is carried as a Fraction along each branch, and the error
    statistic is re-read letter by letter from every terminating sequence.
    """
    p_z_a, p_z_b = (Fraction(p) for p in p_bases)
    q = {
        "Z": p_z_a * p_z_b,
        "X": (1 - p_z_a) * (1 - p_z_b),
    }
    q["M"] = 1 - q["Z"] - q["X"]

    if rule[0] == "count_detected":
        target = rule[1]

        def terminated(n: int, c_z: int, c_x: int) -> bool:
            return n == target

    else:
        nz_req, nx_req = rule[1], rule[2]

        def terminated(n: int, c_z: int, c_x: int) -> bool:
            return c_z >= nz_req and c_x >= nx_req

    leaves: list[tuple[str, Fraction]] = []
    stack: list[tuple[str, Fraction, int, int]] = [("", Fraction(1), 0, 0)]
    while stack:
        seq, prob, c_z, c_x = stack.pop()
        n = len(seq)
        if n > 0 and terminated(n, c_z, c_x):
            leaves.append((seq, prob))
            continue
        if n == max_rounds:
            continue  # truncated: non-terminating mass
        for letter in ("Z", "X", "M"):
            p = q[letter]
            if p == 0:
                continue
            stack.append(
                (seq + letter, prob * p, c_z + (letter == "Z"), c_x + (letter == "X"))
            )

    total = sum(prob for _, prob in leaves)
    if total == 0:
        raise ValueError("no sequence terminates within max_rounds")

    groups: dict[tuple[int, int, int], int] = {}
    group_mass: dict[tuple[int, int, int], Fraction] = {}
    for seq, prob in leaves:
        key = (len(seq), seq.count("Z"), seq.count("X"))
        groups[key] = groups.get(key, 0) + 1
        group_mass[key] = group_mass.get(key, Fraction(0)) + prob
    tv = Fraction(0)
    for key, n_term in groups.items():
        n, c_z, c_x = key
        c_m = n - c_z - c_x
        arrangements = (
            math.factorial(n)
            // (math.factorial(c_z) * math.factorial(c_x) * math.factorial(c_m))
        )
        tv += (group_mass[key] / total) * (1 - Fraction(n_term, arrangements))

    # An error at round i exactly when round i-1 was a test round.
    err_test = Fraction(0)
    mass_test = Fraction(0)
    err_code = Fraction(0)
    mass_code = Fraction(0)
    for seq, prob in leaves:
        w = prob / total
        prev = ""
        for letter in seq:
            y = 1 if prev == "X" else 0
            if letter == "X":
                mass_test += w
                if y:
                    err_test += w
            elif letter == "Z":
                mass_code += w
                if y:
                    err_code += w
            prev = letter
    rate_test = err_test / mass_test if mass_test else Fraction(0)
    rate_code = err_code / mass_code if mass_code else Fraction(0)

    return {
        "n_rounds_enumerated": max_rounds,
        "t_distribution": {seq: float(prob / total) for seq, prob in sorted(leaves)},
        "tv_from_uniform": float(tv),
        "dependence_detected": rate_test != rate_code,
        "terminating_mass": float(total),
        "test_error_rate": float(rate_test),
        "code_error_rate": float(rate_code),
    }


# ---------------------------------------------------------------------------
# The adaptive basis tracker as a rescan of the prefix's round records.


def adaptive_tracker_reference(window, gain, identity, dephase, z_basis, x_basis):
    """The tracker's ``behavior`` walking ``reversed(prefix.rounds)``.

    ``identity`` and ``dephase`` (keyed by basis) are the ops the strategy
    returns; ``z_basis``/``x_basis`` are the basis labels the records carry.
    """

    def behavior(prefix, rng):
        # Recomputed from the prefix every round: the strategy interface
        # is stateless so concurrent sessions can share this closure.
        seen = 0
        n_z = 0
        for rec in reversed(prefix.rounds):
            if not rec.detected:
                continue
            seen += 1
            if rec.basis_b is z_basis:
                n_z += 1
            if seen == window:
                break
        if seen == 0:
            return identity
        f_z = n_z / seen
        p_attack = gain * abs(2.0 * f_z - 1.0)
        if p_attack <= 0.0 or rng.random() >= min(p_attack, 1.0):
            return identity
        return dephase[z_basis if f_z > 0.5 else x_basis]

    return behavior


def render_report_reference(envelope, header, rows, fmt, default=None):
    """A report's text as the generic encoders write it.

    JSON goes through ``json.dumps(envelope, indent=2)`` whole, the pure-Python
    encoder that the CLI used for every artifact before transcripts were
    written from their columns; ``default`` converts the objects it cannot
    encode (pass the package's ``transcript_to_json``).  CSV is one header
    line and one line per row.
    """
    if fmt == "json":
        return json.dumps(envelope, indent=2, default=default) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Coverage trials, one round loop per trial


def coverage_trials_reference(params, strategy, trials, rng, workers=1, povm=None):
    """``stats.coverage_trials`` as it was before trials were replayed in NumPy.

    Every trial runs ``run_estimation`` and its counters are read off the
    per-round records.
    """
    from qkd_sift.errors import DomainError
    from qkd_sift.protocol import Basis, derive_stream, run_estimation
    from qkd_sift.stats import TrialStats

    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    base_seed = rng.getrandbits(64)
    lam_ph = np.zeros(trials, dtype=np.int64)
    lam_xerr = np.zeros(trials, dtype=np.int64)
    sum_ph = np.zeros(trials, dtype=np.float64)
    sum_xerr = np.zeros(trials, dtype=np.float64)
    n_z = np.zeros(trials, dtype=np.int64)
    n_x = np.zeros(trials, dtype=np.int64)

    # One trial per call, so each run is freed before the next one starts.
    def one(i: int) -> None:
        run = run_estimation(params, strategy, derive_stream(base_seed, i), povm=povm)
        lam_ph[i] = run.lambda_ph
        lam_xerr[i] = run.lambda_xerr
        sum_ph[i] = math.fsum(r.p_ph for r in run.per_round)
        sum_xerr[i] = math.fsum(r.p_xerr for r in run.per_round)
        n_z[i] = len(run.s_az_vir)
        n_x[i] = sum(
            1 for r in run.per_round if r.bases[0] is Basis.X and r.bases[1] is Basis.X
        )

    for i in range(trials):
        one(i)
    return TrialStats(
        n=params.n_det_ter,
        lambda_ph=lam_ph,
        lambda_xerr=lam_xerr,
        sum_p_ph=sum_ph,
        sum_p_xerr=sum_xerr,
        n_z=n_z,
        n_x=n_x,
    )


# ---------------------------------------------------------------------------
# The exact law of the coverage deviations, one DP step per detected round


def coverage_deviation_law(n: int, ops, q_z, q_x) -> tuple[dict, int]:
    """The exact laws of a coverage trial's two deviations after n detected rounds.

    The adversary picks op j in each round with probability ``w_j``,
    independently of everything else, as ``InterceptResend("random")`` does;
    ``ops`` lists the pairs ``(w_j, t_j)``, where ``t_j`` is the probability
    that a detected round under op j has disagreeing X readouts.  A detected
    round is Z-Z with probability ``q_z`` and X-X with ``q_x``, whatever its
    op.  Each round's (op, Z-Z error, X-X error) adds to the deviations

        ph:   [Z-Z and error] - q_z * t_j
        xerr: q_x * t_j - [X-X and error]

    so that they sum to ``lambda_ph - sum_p_ph`` and ``sum_p_xerr -
    lambda_xerr``.  The inputs are Fractions, so every increment is a whole
    number of units of 1 / ``scale``, and a dynamic programme over the n
    rounds carries the law of each sum in those units.

    Returns ``(laws, scale)``, where ``laws[side] = (low, pmf)``: the side's
    sum is ``(low + i) / scale`` with probability ``pmf[i]``.
    """
    steps: dict = {"ph": {}, "xerr": {}}
    for w, t in ops:
        for pair, p_pair in (("zz", q_z), ("xx", q_x), ("other", 1 - q_z - q_x)):
            for error, p_error in ((1, t), (0, 1 - t)):
                p = w * p_pair * p_error
                if not p:
                    continue
                for side, value in (
                    ("ph", (pair == "zz") * error - q_z * t),
                    ("xerr", q_x * t - (pair == "xx") * error),
                ):
                    steps[side][value] = steps[side].get(value, 0) + p
    scale = math.lcm(*(value.denominator for step in steps.values() for value in step))
    laws = {}
    for side, step in steps.items():
        units = {int(value * scale): float(p) for value, p in step.items()}
        low, high = min(units), max(units)
        pmf = np.ones(1)
        for _ in range(n):
            grown = np.zeros(len(pmf) + high - low)
            for unit, p in units.items():
                grown[unit - low : unit - low + len(pmf)] += p * pmf
            pmf = grown
        laws[side] = (n * low, pmf)
    return laws, scale


# ---------------------------------------------------------------------------
# Estimation-run reductions, one pass over the per-round records


def estimation_counts_reference(run):
    """``stats.estimation_counts`` as it was before the run kept columns."""
    from qkd_sift.protocol import Basis

    return (
        run.lambda_ph,
        run.lambda_xerr,
        math.fsum(r.p_ph for r in run.per_round),
        math.fsum(r.p_xerr for r in run.per_round),
        len(run.s_az_vir),
        sum(1 for r in run.per_round if r.bases[0] is Basis.X and r.bases[1] is Basis.X),
    )


def relation_check_reference(run):
    """``stats.relation_check`` as it was before the run kept columns."""
    q_z = run.transcript.params.q_z
    q_x = run.transcript.params.q_x
    return math.fsum(r.p_ph / q_z for r in run.per_round) - math.fsum(
        r.p_xerr / q_x for r in run.per_round
    )


def build_trace_reference(run):
    """``stats.build_trace``'s arrays, filled record by record, without its checks."""
    from qkd_sift.protocol import Basis
    from qkd_sift.stats import MartingaleTrace

    n = len(run.per_round)
    ind_ph = np.zeros(n, dtype=np.float64)
    ind_xerr = np.zeros(n, dtype=np.float64)
    p_ph = np.empty(n, dtype=np.float64)
    p_xerr = np.empty(n, dtype=np.float64)
    for i, rec in enumerate(run.per_round):
        p_ph[i] = rec.p_ph
        p_xerr[i] = rec.p_xerr
        if rec.x_outcomes[0] != rec.x_outcomes[1]:
            if rec.bases == (Basis.Z, Basis.Z):
                ind_ph[i] = 1.0
            elif rec.bases == (Basis.X, Basis.X):
                ind_xerr[i] = 1.0

    def cumulative(steps, dtype):
        out = np.zeros(n + 1, dtype=dtype)
        np.cumsum(steps, out=out[1:])
        return out

    return MartingaleTrace(
        x_ph=cumulative(ind_ph - p_ph, np.float64),
        x_xerr=cumulative(ind_xerr - p_xerr, np.float64),
        lambda_ph=cumulative(ind_ph.astype(np.int64), np.int64),
        lambda_xerr=cumulative(ind_xerr.astype(np.int64), np.int64),
        p_ph=p_ph,
        p_xerr=p_xerr,
    )


# ---------------------------------------------------------------------------
# Exact stopping-rule bias, one depth-first walk over the sequences


def enumerate_bias_dfs_reference(rule, p_bases, max_rounds):
    """``stats.enumerate_bias`` as it was before the walk ran level by level.

    A depth-first walk over the letter sequences, popped in the order
    M < X < Z, tallies each composition's terminating arrangements and their
    adjacencies; the same Fraction loop then runs once per composition.  It is
    fast enough to check the package at the benchmark's k = 10 to 12, where
    :func:`enumerate_bias_reference` is not.
    """
    from qkd_sift.errors import DomainError, EnumerationTooLarge
    from qkd_sift.protocol import CountDetected, CountPerBasis
    from qkd_sift.stats import _ENUM_MAX_ROUNDS, BiasReport

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
