"""Key-length arithmetic against a high-precision reference implementation.

The frozen numbers below were produced by tests/oracles.py (mpmath at 60
digits) and written in by hand, so a regression in either side shows up as a
mismatch rather than both drifting together.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from qkd_sift.errors import (
    AbortNoTestData,
    DomainError,
    SecurityParameterError,
)
from qkd_sift.finite_key import (
    azuma_tail,
    binary_entropy,
    ec_syndrome_cost,
    key_length,
    phase_error_bound,
    pipeline,
)
from qkd_sift.protocol import ProtocolParams, SiftedData
from qkd_sift.stats import TrialStats, coverage_report


# -- binary entropy ----------------------------------------------------------


def test_entropy_endpoints_are_exact_zero():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_entropy_peak_and_frozen_point():
    assert binary_entropy(0.5) == 1.0
    # h(0.11), mpmath 60-digit reference
    assert binary_entropy(0.11) == pytest.approx(0.4999159582, abs=1e-9)


def test_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


@given(st.floats(0.0, 1.0))
def test_entropy_symmetry(x):
    assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


@given(st.floats(1e-9, 1.0 - 1e-9))
def test_entropy_matches_mpmath(x):
    assert binary_entropy(x) == pytest.approx(float(oracles.h2(x)), rel=1e-12)


# -- concentration tail ------------------------------------------------------


def test_azuma_frozen_values():
    # exp(-1000 * 0.1^2 / 2) = e^-5 per side
    b = azuma_tail(1000, 0.1)
    assert b.eta_single == pytest.approx(math.exp(-5.0), rel=1e-12)
    assert b.eta == pytest.approx(2.0 * math.exp(-5.0), rel=1e-12)
    b = azuma_tail(10_000, 0.05)
    assert b.eta_single == pytest.approx(math.exp(-12.5), rel=1e-12)


def test_azuma_zero_delta_is_vacuous():
    assert azuma_tail(100, 0.0).eta_single == 1.0


def test_azuma_rejects_bad_args():
    with pytest.raises(DomainError):
        azuma_tail(0, 0.1)
    with pytest.raises(DomainError):
        azuma_tail(100, -0.1)


# -- phase error bound -------------------------------------------------------


def test_phase_error_bound_frozen_value():
    # 30 * 81 + 82 * 100 = 2430 + 8200 = 10630
    assert phase_error_bound(30, 0.81, 0.01, 10_000, 0.01) == pytest.approx(
        10630.0, rel=1e-12
    )


def test_phase_error_bound_zero_noise_zero_delta():
    assert phase_error_bound(0, 0.25, 0.25, 1000, 0.0) == 0.0


def test_phase_error_bound_guards():
    with pytest.raises(DomainError):
        phase_error_bound(1, 0.5, 0.0, 100, 0.1)
    with pytest.raises(DomainError):
        phase_error_bound(-1, 0.5, 0.5, 100, 0.1)
    with pytest.raises(DomainError):
        phase_error_bound(1, 0.5, 0.5, 0, 0.1)


_NAN = float("nan")
_TWO_TRIALS = TrialStats(
    n=10,
    lambda_ph=np.array([5, 0]),
    lambda_xerr=np.array([0, 0]),
    sum_p_ph=np.array([1.0, 0.0]),
    sum_p_xerr=np.array([0.0, 2.0]),
    n_z=np.zeros(2, dtype=np.int64),
    n_x=np.zeros(2, dtype=np.int64),
)


# Each call once passed a NaN, an infinity or a negative count through: no
# violations, eta = nan, a nan bound, a negative syndrome cost, or a bare
# ValueError or OverflowError from math.floor or math.ceil.
@pytest.mark.parametrize(
    "call",
    [
        lambda: coverage_report(_TWO_TRIALS, _NAN),
        lambda: azuma_tail(10, _NAN),
        lambda: phase_error_bound(1, 0.5, 0.5, 100, _NAN),
        lambda: phase_error_bound(1, _NAN, 0.5, 100, 0.1),
        lambda: phase_error_bound(1, 0.5, _NAN, 100, 0.1),
        lambda: phase_error_bound(_NAN, 0.5, 0.5, 100, 0.1),
        lambda: key_length(1000, 0.0, 1e-10, _NAN, 0, 1e-10),
        lambda: key_length(1000, _NAN, 1e-10, 1e-21, 0, 1e-10),
        lambda: key_length(1000, 0.0, 1e-10, 1e-21, _NAN, 1e-10),
        lambda: key_length(1000, 0.0, 1e-10, 1e-21, math.inf, 1e-10),
        lambda: azuma_tail(_NAN, 0.1),
        lambda: phase_error_bound(1, 0.5, 0.5, _NAN, 0.1),
        lambda: ec_syndrome_cost(100, 0.1, _NAN),
        lambda: ec_syndrome_cost(100, 0.1, math.inf),
        lambda: ec_syndrome_cost(-5, 0.1, 1.2),
        lambda: ec_syndrome_cost(100, 0.1, 1e308),
        lambda: ec_syndrome_cost(100, 1.0, 1e308),
        lambda: pipeline(
            _sifted(100, 100, 100),
            ProtocolParams(
                p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
                n_det_ter=400, eps_s=1e-3, eps_c=1e-6, delta=0.1, f_ec=1e308,
            ),
        ),
    ],
    ids=[
        "coverage_report-delta",
        "azuma_tail-delta",
        "phase_error_bound-delta",
        "phase_error_bound-q_z",
        "phase_error_bound-q_x",
        "phase_error_bound-wt_x",
        "key_length-eta",
        "key_length-e_ph_bar",
        "key_length-lambda_ec",
        "key_length-lambda_ec-inf",
        "azuma_tail-n",
        "phase_error_bound-n",
        "ec_syndrome_cost-f_ec",
        "ec_syndrome_cost-f_ec-inf",
        "ec_syndrome_cost-negative-n_z",
        "ec_syndrome_cost-overflow",
        "ec_syndrome_cost-overflow-times-h-0",
        "pipeline-x-error-rate-1-f_ec-1e308",
    ],
)
def test_domain_checks_refuse_nan(call):
    with pytest.raises(DomainError):
        call()


# Round counts are integers.  An infinite count once gave eta = 0, a claim
# that the bound never fails, and a fractional or boolean one was computed on.
_COUNT_CALLS = {
    "azuma_tail": lambda n: azuma_tail(n, 0.1),
    "phase_error_bound": lambda n: phase_error_bound(1, 0.5, 0.5, n, 0.1),
    "key_length": lambda n: key_length(n, 0.0, 1e-10, 1e-21, 0, 1e-10),
    "ec_syndrome_cost": lambda n: ec_syndrome_cost(n, 0.1, 1.2),
}


@pytest.mark.parametrize("count", [math.inf, 10.5, 1000.0, True, np.True_, "1000", None], ids=repr)
@pytest.mark.parametrize("name", sorted(_COUNT_CALLS))
def test_round_counts_refuse_what_is_no_integer(name, count):
    with pytest.raises(DomainError):
        _COUNT_CALLS[name](count)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16], ids=lambda k: k.__name__)
@pytest.mark.parametrize("name", sorted(_COUNT_CALLS))
def test_round_counts_take_numpy_integers(name, kind):
    got, want = _COUNT_CALLS[name](kind(1000)), _COUNT_CALLS[name](1000)
    assert got == want
    if name in ("azuma_tail", "key_length"):
        count = got.n if name == "azuma_tail" else got.n_z
        assert type(count) is int


@pytest.mark.parametrize("name", sorted(_COUNT_CALLS))
def test_round_counts_refuse_what_a_float_cannot_hold(name):
    # 10**400 rounds raised a bare OverflowError in the float arithmetic.
    with pytest.raises(DomainError, match="must fit a float"):
        _COUNT_CALLS[name](10**400)


def test_round_counts_take_the_largest_integer_a_float_holds():
    # float() rounds 2**1024 - 2**970 past the float range, one less into it.
    largest = 2**1024 - 2**970 - 1
    assert azuma_tail(largest, 0.1).n == largest
    with pytest.raises(DomainError, match="must fit a float"):
        azuma_tail(largest + 1, 0.1)


# -- key length --------------------------------------------------------------


def test_key_length_worked_example():
    res = key_length(1000, 0.0, 1e-10, 1e-21, 0, 1e-10)
    assert res.l == 898


def test_key_length_matches_oracle_formula():
    cases = [
        (1000, 0.0, 1e-10, 1e-21, 0, 1e-10),
        (75_000, 0.05, 1e-4, 1e-9, 9000, 1e-6),
        (500, 0.11, 1e-6, 1e-14, 120, 1e-8),
        (10, 0.49, 1e-3, 1e-7, 0, 1e-3),
    ]
    for n_z, e_ph, eps_s, eta, lam, eps_c in cases:
        got = key_length(n_z, e_ph, eps_s, eta, lam, eps_c)
        want_l, want_pre = oracles.key_length(n_z, e_ph, eps_s, eta, lam, eps_c)
        assert got.l == want_l
        assert got.l_pre_floor == pytest.approx(float(want_pre), rel=1e-9)


def test_key_length_clamps_error_rate_at_half():
    a = key_length(100, 0.5, 1e-4, 0.0, 0, 1e-4)
    b = key_length(100, 0.9, 1e-4, 0.0, 0, 1e-4)
    assert a.e_ph_bar == b.e_ph_bar == 0.5
    assert a.l == b.l == 0
    assert a.terms["entropy_term"] == 0.0


def test_key_length_floors_at_zero():
    res = key_length(10, 0.3, 1e-6, 0.0, 100, 1e-6)
    assert res.l == 0
    assert res.l_pre_floor < 0


def test_key_length_security_budget_boundary():
    eps_s = 1e-5
    # eta exactly at eps_s^2 exhausts the budget
    with pytest.raises(SecurityParameterError):
        key_length(1000, 0.01, eps_s, eps_s**2, 0, 1e-10)
    # just below is fine but the secrecy term blows up
    res = key_length(1000, 0.01, eps_s, eps_s**2 * (1 - 1e-9), 0, 1e-10)
    assert res.terms["secrecy_term"] > 30


def test_key_length_input_guards():
    with pytest.raises(DomainError):
        key_length(-1, 0.1, 1e-4, 0.0, 0, 1e-4)
    with pytest.raises(DomainError):
        key_length(10, -0.1, 1e-4, 0.0, 0, 1e-4)
    with pytest.raises(DomainError):
        key_length(10, 0.1, 1.5, 0.0, 0, 1e-4)
    with pytest.raises(DomainError):
        key_length(10, 0.1, 1e-4, -1e-9, 0, 1e-4)
    with pytest.raises(DomainError):
        key_length(10, 0.1, 1e-4, 0.0, -1, 1e-4)
    with pytest.raises(DomainError, match="eps_c"):
        key_length(10, 0.1, 1e-4, 0.0, 0, 1.5)


@given(
    st.integers(0, 10**6),
    st.floats(0.0, 1.0),
    st.integers(0, 10**5),
)
def test_key_length_never_negative_and_floor_consistent(n_z, e_ph, lam):
    res = key_length(n_z, e_ph, 1e-6, 1e-20, lam, 1e-6)
    assert res.l >= 0
    assert res.l == max(0, math.floor(res.l_pre_floor))
    assert res.l <= n_z  # can't distill more than the sifted length


def test_mpmath_grid_agreement():
    """Dense-ish comparison across all six arguments at 1e-9 relative."""
    rng = np.random.default_rng(20260815)
    for _ in range(200):
        n_z = int(rng.integers(1, 10**6))
        e_ph = float(rng.uniform(0.0, 0.6))
        eps_s = float(10.0 ** rng.uniform(-12, -1))
        eta = float(eps_s**2 * rng.uniform(0.0, 0.99))
        lam = int(rng.integers(0, n_z + 1))
        eps_c = float(10.0 ** rng.uniform(-12, -1))
        got = key_length(n_z, e_ph, eps_s, eta, lam, eps_c)
        want_l, want_pre = oracles.key_length(n_z, e_ph, eps_s, eta, lam, eps_c)
        assert got.l_pre_floor == pytest.approx(
            float(want_pre), rel=1e-9, abs=1e-6
        ), (n_z, e_ph, eps_s, eta, lam, eps_c)
        # floor can legitimately differ when pre sits within float error of an
        # integer; allow a one-off in that case only
        if abs(want_pre - mpmath.floor(want_pre)) > 1e-6:
            assert got.l == want_l


# -- EC cost and pipeline ----------------------------------------------------


def test_ec_syndrome_cost():
    assert ec_syndrome_cost(1000, 0.0, 1.16) == 0
    assert ec_syndrome_cost(1000, 0.05, 1.0) == math.ceil(
        1000 * binary_entropy(0.05)
    )
    with pytest.raises(DomainError):
        ec_syndrome_cost(1000, 0.05, 0.9)


def _sifted(n_z, n_x, wt):
    s_ax = np.zeros(n_x, dtype=np.uint8)
    s_bx = np.zeros(n_x, dtype=np.uint8)
    s_bx[:wt] = 1
    return SiftedData(
        s_az=np.zeros(n_z, dtype=np.uint8),
        s_bz=np.zeros(n_z, dtype=np.uint8),
        s_ax=s_ax,
        s_bx=s_bx,
        n_z=n_z,
        n_x=n_x,
    )


def test_pipeline_aborts_without_test_rounds():
    params = ProtocolParams(
        p_z_a=0.9, p_x_a=0.1, p_z_b=0.9, p_x_b=0.1,
        n_det_ter=100, eps_s=1e-4, eps_c=1e-6, delta=0.0,
    )
    with pytest.raises(AbortNoTestData):
        pipeline(_sifted(80, 0, 0), params)


def test_pipeline_composes_the_parts():
    params = ProtocolParams(
        p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
        n_det_ter=4000, eps_s=1e-3, eps_c=1e-6, delta=0.1,
    )
    sifted = _sifted(1000, 1000, 30)
    res = pipeline(sifted, params)
    bound = phase_error_bound(30.0, 0.25, 0.25, 4000, 0.1)
    expect = key_length(
        1000,
        bound / 1000,
        1e-3,
        azuma_tail(4000, 0.1).eta,
        ec_syndrome_cost(1000, 0.03, 1.16),
        1e-6,
    )
    assert res == expect


def test_pipeline_yields_positive_key_at_scale():
    params = ProtocolParams(
        p_z_a=0.5, p_x_a=0.5, p_z_b=0.5, p_x_b=0.5,
        n_det_ter=300_000, eps_s=1e-4, eps_c=1e-6, delta=0.012,
    )
    res = pipeline(_sifted(75_000, 75_000, 30), params)
    assert res.l > 30_000
    assert res.e_ph_bar < 0.1
