"""Finite-size key length bound and its ingredients.

The chain is: bound the phase-error count of the Z-sifted key from the
observed X-basis error weight plus a concentration allowance, convert to a
rate, and charge the entropy, secrecy, error-correction and correctness costs
against the sifted length:

    l = floor( n_z * (1 - h(e_ph_bar))
               - log2(2 / (eps_s**2 - eta))
               - lambda_ec
               - log2(2 / eps_c) )          (clamped at 0)

with eta = 2 * exp(-n * delta**2 / 2) the probability that either one-sided
concentration bound fails over the n detected rounds.  ``eps_s**2`` must
exceed eta or no key length is defined at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import AbortNoTestData, DomainError, SecurityParameterError, as_count

if TYPE_CHECKING:  # pragma: no cover
    from .protocol import ProtocolParams, SiftedData


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x, in bits.  Domain [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary_entropy domain is [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


@dataclass(frozen=True)
class AzumaBound:
    """Failure probabilities of the two one-sided concentration bounds."""

    n: int
    delta: float
    eta_single: float
    eta: float


def azuma_tail(n: int, delta: float) -> AzumaBound:
    """Tail bound for a martingale with increments in [-1, 1] over n rounds.

    A deviation of n * delta has probability at most exp(-n * delta**2 / 2)
    per side; ``eta`` is the union over both sides.
    """
    n = as_count(n, "round count", 1)
    # Each check is written so that a NaN fails it.
    if not delta >= 0.0:
        raise DomainError(f"delta must be >= 0, got {delta!r}")
    eta_single = math.exp(-n * delta * delta / 2.0)
    return AzumaBound(n=n, delta=delta, eta_single=eta_single, eta=2.0 * eta_single)


def phase_error_bound(
    wt_x: float, q_z: float, q_x: float, n: int, delta: float
) -> float:
    """Upper bound on the phase-error count of the Z-sifted key.

    Scales the observed X-basis error weight by q_z / q_x and adds the
    concentration allowance of both martingale directions:

        (q_z / q_x) * wt_x + (q_z / q_x + 1) * n * delta
    """
    n = as_count(n, "round count", 1)
    # Each check is written so that a NaN fails it.
    if not q_x > 0.0:
        raise DomainError("q_x must be positive to scale the observed errors")
    if not (q_z >= 0.0 and wt_x >= 0.0):
        raise DomainError("q_z and wt_x must be >= 0")
    if not delta >= 0.0:
        raise DomainError(f"delta must be >= 0, got {delta!r}")
    ratio = q_z / q_x
    return ratio * wt_x + (ratio + 1.0) * n * delta


@dataclass(frozen=True)
class KeyLengthResult:
    """Key length with its term-by-term breakdown.

    ``l = max(0, floor(l_pre_floor))`` where l_pre_floor = entropy_term -
    secrecy_term - ec_term - corr_term; the terms are also exposed in the
    ``terms`` mapping for reporting.
    """

    n_z: int
    e_ph_bar: float
    eta: float
    lambda_ec: int
    l: int
    l_pre_floor: float
    terms: dict[str, float]


def key_length(
    n_z: int,
    e_ph_bar: float,
    eps_s: float,
    eta: float,
    lambda_ec: int,
    eps_c: float,
) -> KeyLengthResult:
    """Evaluate the extractable key length.

    Raises :class:`SecurityParameterError` when ``eps_s**2 <= eta`` — the
    concentration failure probability exhausts the smoothing budget.  An
    ``e_ph_bar`` of 1/2 or more zeroes the entropy term (the bound is
    vacuous beyond that point).
    """
    n_z = as_count(n_z, "n_z", 0)
    # Each check is written so that a NaN fails it.
    if not e_ph_bar >= 0.0:
        raise DomainError(f"e_ph_bar must be >= 0, got {e_ph_bar!r}")
    if not 0.0 < eps_s < 1.0:
        raise DomainError(f"eps_s must be in (0, 1), got {eps_s!r}")
    if not 0.0 < eps_c < 1.0:
        raise DomainError(f"eps_c must be in (0, 1), got {eps_c!r}")
    if not eta >= 0.0:
        raise DomainError(f"eta must be >= 0, got {eta!r}")
    if not 0 <= lambda_ec < math.inf:
        raise DomainError(f"lambda_ec must be finite and >= 0, got {lambda_ec!r}")
    if eps_s * eps_s <= eta:
        raise SecurityParameterError(
            f"eps_s**2 = {eps_s * eps_s:.3e} must exceed eta = {eta:.3e}"
        )
    e_clamped = min(e_ph_bar, 0.5)
    entropy_term = n_z * (1.0 - binary_entropy(e_clamped))
    secrecy_term = math.log2(2.0 / (eps_s * eps_s - eta))
    corr_term = math.log2(2.0 / eps_c)
    pre = entropy_term - secrecy_term - lambda_ec - corr_term
    l = max(0, math.floor(pre))
    return KeyLengthResult(
        n_z=n_z,
        e_ph_bar=e_clamped,
        eta=eta,
        lambda_ec=lambda_ec,
        l=l,
        l_pre_floor=pre,
        terms={
            "entropy_term": entropy_term,
            "secrecy_term": secrecy_term,
            "ec_term": float(lambda_ec),
            "corr_term": corr_term,
        },
    )


def ec_syndrome_cost(n_z: int, error_rate: float, f_ec: float) -> int:
    """Bits disclosed by error correction: ceil(f_ec * n_z * h(error_rate)).

    Raises :class:`DomainError` when that product is not finite: it
    overflows for a large enough ``f_ec * n_z``, and is then NaN when
    ``h(error_rate)`` is 0.
    """
    n_z = as_count(n_z, "n_z", 0)
    # Each check is written so that a NaN fails it.
    if not 1.0 <= f_ec < math.inf:
        raise DomainError(f"f_ec must be finite and >= 1, got {f_ec!r}")
    bits = f_ec * n_z * binary_entropy(error_rate)
    if not math.isfinite(bits):
        raise DomainError(f"f_ec * n_z * h(error_rate) is not finite: f_ec {f_ec!r}, n_z {n_z}")
    return math.ceil(bits)


def pipeline(sifted: "SiftedData", params: "ProtocolParams") -> KeyLengthResult:
    """Full bound evaluation from one session's sifted data.

    Uses the observed X-basis error weight for both the phase-error bound and
    the error-correction cost estimate.  Raises :class:`AbortNoTestData` when
    no X-agreed rounds exist, so no error rate is observable.  With an empty
    Z string the phase-error rate clamps to 1/2 and the result is l = 0.
    """
    if sifted.n_x == 0:
        raise AbortNoTestData("no X-agreed rounds; error rate unobservable")
    wt = float(sifted.x_error_weight())
    bound = phase_error_bound(
        wt, params.q_z, params.q_x, params.n_det_ter, params.delta
    )
    e_ph_bar = bound / sifted.n_z if sifted.n_z > 0 else 1.0
    eta = azuma_tail(params.n_det_ter, params.delta).eta
    lambda_ec = ec_syndrome_cost(sifted.n_z, wt / sifted.n_x, params.f_ec)
    return key_length(
        n_z=sifted.n_z,
        e_ph_bar=e_ph_bar,
        eps_s=params.eps_s,
        eta=eta,
        lambda_ec=lambda_ec,
        eps_c=params.eps_c,
    )
