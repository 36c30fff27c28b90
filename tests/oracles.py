"""Independent reference implementations the tests freeze values against.

Everything here is written directly from the defining formulas, using
arbitrary precision (mpmath), exact rationals, or naive brute force.  None of
it imports the package under test, so agreement is meaningful.
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
