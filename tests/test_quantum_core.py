"""States, channels, and measurement arithmetic against longhand oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qkd_sift import quantum_core
from qkd_sift.adversary import Depolarizing, depolarizing_channel, make_strategy
from qkd_sift.errors import DomainError, NormalizationError
from qkd_sift.protocol import _virtual_law
from qkd_sift.quantum_core import (
    Basis,
    BobPOVM,
    ChannelOp,
    Density2,
    Density4,
    bell_pair,
    channel_branches,
    detection_povm,
    filter_branches,
    ideal_povm,
    pair_outcome_probs,
    prob_phase_error,
    source_state,
)


def _op(deliver, lose=()):
    return ChannelOp(
        deliver_kraus=tuple(np.asarray(k, dtype=complex) for k in deliver),
        lose_kraus=tuple(np.asarray(k, dtype=complex) for k in lose),
    )


I2 = np.eye(2, dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
IDENTITY = _op([I2])
PHASE_FLIP = _op([PAULI_Z])


# ---------------------------------------------------------------------------
# States


def test_source_state_z0_is_diag():
    assert np.array_equal(source_state(0, Basis.Z).mat, np.diag([1.0, 0.0]))


def test_source_state_x_entries_are_exact_halves():
    assert np.array_equal(
        source_state(0, Basis.X).mat, np.array([[0.5, 0.5], [0.5, 0.5]])
    )
    assert np.array_equal(
        source_state(1, Basis.X).mat, np.array([[0.5, -0.5], [-0.5, 0.5]])
    )


def test_bell_pair_matrix():
    expect = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            expect[i, j] = 0.5
    assert np.array_equal(bell_pair().mat, expect)
    assert bell_pair().trace == 1.0


def _reduced(rho, keep):
    """A's (keep="a") or B's (keep="b") reduced state of a two-qubit state."""
    return np.einsum("ibjb->ij" if keep == "a" else "aiaj->ij", rho.mat.reshape(2, 2, 2, 2))


def test_bell_pair_partial_traces_are_maximally_mixed():
    rho = bell_pair()
    assert np.allclose(_reduced(rho, "a"), I2 / 2, atol=1e-15)
    assert np.allclose(_reduced(rho, "b"), I2 / 2, atol=1e-15)


def test_from_matrix_rejects_bad_inputs():
    with pytest.raises(DomainError):
        Density2.from_matrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not hermitian
    with pytest.raises(DomainError):
        Density2.from_matrix(np.array([[1.5, 0.0], [0.0, -0.5]]))  # negative eig
    with pytest.raises(DomainError):
        Density4.from_matrix(np.eye(4) * 0.5)  # trace 2


@given(st.integers(0, 1), st.sampled_from([Basis.Z, Basis.X]))
def test_source_states_are_rank_one_projectors(bit, basis):
    m = source_state(bit, basis).mat
    assert np.allclose(m @ m, m, atol=1e-15)
    assert abs(np.trace(m) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# Channels


def _random_kraus_pair(rng: np.random.Generator) -> ChannelOp:
    """A random genuinely two-branch trace-preserving op.

    K = U sqrt(A) keeps K†K = A exact, so the pair {U1 sqrt(A), U2 sqrt(I-A)}
    is trace preserving by construction.
    """
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    a = g @ g.conj().T
    a *= 0.9 / max(np.linalg.eigvalsh(a).max(), 1e-9)
    k_del = oracles.random_unitary(rng) @ oracles.psd_root(a)
    k_lose = oracles.random_unitary(rng) @ oracles.psd_root(np.eye(2) - a)
    return ChannelOp(deliver_kraus=(k_del,), lose_kraus=(k_lose,))


def test_channel_op_rejects_non_trace_preserving():
    with pytest.raises(DomainError):
        _op([I2 * 0.9])


_NON_FINITE = [np.nan, np.inf, -np.inf]
# Arithmetic on a non-finite entry warns before the check rejects it.
_quiet_nan = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")


def _with_entry(m, row, col, value):
    m = np.array(m, dtype=complex)
    m[row, col] = value
    return m


@_quiet_nan
@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("row, col", [(0, 0), (0, 1), (1, 1)])
def test_channel_op_rejects_non_finite_kraus(value, row, col):
    # An all-NaN op used to construct, and channel_branches then gave p_first nan.
    with pytest.raises(DomainError):
        _op([np.full((2, 2), value)])
    with pytest.raises(DomainError):
        _op([_with_entry(I2, row, col, value)])
    with pytest.raises(DomainError):
        _op([I2 * 0.6], [_with_entry(I2 * 0.8, row, col, value)])


@_quiet_nan
@pytest.mark.parametrize("value", _NON_FINITE)
@pytest.mark.parametrize("name", ["m0z", "m1z", "m0x", "m1x", "m_fail"])
def test_bob_povm_rejects_non_finite_elements(value, name):
    elements = {n: getattr(ideal_povm(), n) for n in ("m0z", "m1z", "m0x", "m1x", "m_fail")}
    for bad in (np.full((2, 2), value), _with_entry(elements[name], 0, 0, value)):
        with pytest.raises(DomainError):
            BobPOVM(**{**elements, name: bad})


@_quiet_nan
@pytest.mark.parametrize("value", _NON_FINITE)
def test_density_rejects_non_finite_entries(value):
    with pytest.raises(DomainError):
        Density2.from_matrix(_with_entry(I2 / 2, 0, 0, value))
    with pytest.raises(DomainError):
        Density4.from_matrix(_with_entry(np.eye(4) / 4, 1, 2, value))


def test_channel_op_rejects_empty():
    with pytest.raises(DomainError):
        ChannelOp(deliver_kraus=(), lose_kraus=())


def test_identity_channel_is_exact_noop():
    split = channel_branches(bell_pair(), IDENTITY)
    assert split.p_first == 1.0
    assert np.array_equal(split.rho_first.mat, bell_pair().mat)
    assert split.p_second == 0.0
    assert split.rho_second is None


def test_all_lose_channel_never_delivers():
    lossy = _op([], [I2])
    split = channel_branches(bell_pair(), lossy)
    assert split.p_first == 0.0
    assert split.rho_first is None
    assert split.p_second == pytest.approx(1.0, abs=1e-12)
    # A side survives, B side is the parked junk state
    assert np.allclose(_reduced(split.rho_second, "a"), I2 / 2, atol=1e-12)


def test_depolarizing_deliver_branch_is_convex_mix():
    from qkd_sift.adversary import depolarizing_channel

    split = channel_branches(bell_pair(), depolarizing_channel(0.2))
    assert split.p_first == pytest.approx(1.0, abs=1e-12)
    expect = 0.8 * bell_pair().mat + 0.2 * np.eye(4) / 4.0
    assert np.allclose(split.rho_first.mat, expect, atol=1e-12)


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_random_channel_branches_partition_unit_mass(seed):
    op = _random_kraus_pair(np.random.default_rng(seed))
    split = channel_branches(bell_pair(), op)
    assert split.p_first + split.p_second == pytest.approx(1.0, abs=1e-10)
    for p, rho in ((split.p_first, split.rho_first), (split.p_second, split.rho_second)):
        if rho is not None:
            rho.validate()
            assert abs(rho.trace - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# POVM and filtering


def test_povm_completeness_is_exact_for_ideal():
    povm = ideal_povm()
    z_sum = povm.m0z + povm.m1z + povm.m_fail
    x_sum = povm.m0x + povm.m1x + povm.m_fail
    assert np.array_equal(z_sum, I2)
    assert np.array_equal(x_sum, I2)


def test_detection_failure_element_is_basis_independent():
    # shared m_fail means both per-basis pairs sum to the same detect total
    povm = detection_povm(0.7)
    assert np.array_equal(povm.m0z + povm.m1z, povm.m0x + povm.m1x)
    assert np.allclose(povm.m_fail, 0.3 * I2, atol=1e-15)


def test_detection_povm_rejects_bad_efficiency():
    with pytest.raises(DomainError):
        detection_povm(1.5)
    with pytest.raises(DomainError):
        detection_povm(0.0)


def test_ops_and_povms_compare_by_value():
    cfg = Depolarizing(p=0.1, p_loss=0.2)
    (op1,), (op2,) = make_strategy(cfg).ops, make_strategy(cfg).ops
    assert op1 is not op2
    assert op1 == op2 and hash(op1) == hash(op2)
    assert detection_povm(0.8) == detection_povm(0.8)
    assert hash(detection_povm(0.8)) == hash(detection_povm(0.8))
    assert detection_povm(1.0) == ideal_povm()
    assert IDENTITY != PHASE_FLIP
    assert _op([I2]) != _op([], [I2])  # same matrix, other branch
    assert detection_povm(0.8) != detection_povm(0.9)
    assert op1 != "op" and detection_povm(0.8) != op1


def test_filter_with_no_failure_is_identity():
    split = filter_branches(bell_pair(), ideal_povm())
    assert split.p_first == 1.0
    assert np.array_equal(split.rho_first.mat, bell_pair().mat)
    assert split.rho_second is None


def test_filter_half_efficiency_leaves_state_invariant():
    # m_fail = I/2: sqrt(I/2) is proportional to I, so the conditional state
    # is untouched while detection probability halves
    povm = detection_povm(0.5)
    split = filter_branches(bell_pair(), povm)
    assert split.p_first == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(split.rho_first.mat, bell_pair().mat, atol=1e-12)
    assert split.p_second == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(split.rho_second.mat, bell_pair().mat, atol=1e-12)


@settings(max_examples=30)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 1.0))
def test_filter_branch_probabilities_sum_to_one(seed, eta):
    op = _random_kraus_pair(np.random.default_rng(seed))
    split = channel_branches(bell_pair(), op)
    if split.rho_first is None:
        return
    fsplit = filter_branches(split.rho_first, detection_povm(eta))
    assert fsplit.p_first + fsplit.p_second == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Measurement


def test_bell_pair_readout_is_perfectly_correlated_in_both_bases():
    for basis in (Basis.Z, Basis.X):
        probs = pair_outcome_probs(bell_pair(), basis, basis, ideal_povm())
        assert probs[0, 1] == probs[1, 0] == 0.0
        assert probs[0, 0] == probs[1, 1] == 0.5


def test_pair_outcome_probs_match_born_rule_oracle():
    """Joint (bit_a, bit_b) law equals a longhand Tr[rho (P_a ⊗ P_b)]."""
    op = _op(
        [np.sqrt(0.8) * I2, np.sqrt(0.05) * PAULI_Z, np.sqrt(0.15) * np.diag([1, 1j])]
    )
    split = channel_branches(bell_pair(), op)
    rho = split.rho_first
    for ba_name, ba in (("Z", Basis.Z), ("X", Basis.X)):
        for bb_name, bb in (("Z", Basis.Z), ("X", Basis.X)):
            probs = pair_outcome_probs(rho, ba, bb, ideal_povm())
            assert probs.sum() == pytest.approx(1.0, abs=1e-10)
            for i in (0, 1):
                for j in (0, 1):
                    pa = oracles._proj(oracles.SOURCE_KETS[(ba_name, i)])
                    pb = oracles._proj(oracles.SOURCE_KETS[(bb_name, j)])
                    expect = float(np.trace(rho.mat @ np.kron(pa, pb)).real)
                    assert probs[i, j] == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# Phase-error functional


def test_phase_error_of_bell_pair_is_exactly_zero():
    assert prob_phase_error(bell_pair(), ideal_povm()) == 0.0


def test_phase_error_of_maximally_mixed_is_half():
    rho = Density4.from_matrix(np.eye(4) / 4.0)
    assert prob_phase_error(rho, ideal_povm()) == pytest.approx(0.5, abs=1e-12)


def test_phase_error_of_phi_minus_is_one():
    v = np.zeros(4)
    v[0], v[3] = 1.0, -1.0
    v /= np.sqrt(2.0)
    rho = Density4.from_matrix(np.outer(v, v))
    assert prob_phase_error(rho, ideal_povm()) == pytest.approx(1.0, abs=1e-12)


def test_phase_error_of_depolarized_pair():
    from qkd_sift.adversary import depolarizing_channel

    split = channel_branches(bell_pair(), depolarizing_channel(0.2))
    assert prob_phase_error(split.rho_first, ideal_povm()) == pytest.approx(
        0.1, abs=1e-12
    )


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_phase_error_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    rho = Density4.from_matrix(m / np.trace(m).real)
    p = prob_phase_error(rho, ideal_povm())
    assert 0.0 <= p <= 1.0


def test_phase_error_clips_rounding_dust_below_zero_and_refuses_more(monkeypatch):
    monkeypatch.setattr(quantum_core, "_tr_product", lambda a, b: -1e-12)
    assert prob_phase_error(bell_pair(), ideal_povm()) == 0.0
    monkeypatch.setattr(quantum_core, "_tr_product", lambda a, b: -1e-6)
    with pytest.raises(NormalizationError, match="below 0"):
        prob_phase_error(bell_pair(), ideal_povm())


def test_phase_error_agrees_with_conditional_projector_oracle():
    """Longhand Π_err construction from the POVM definition."""
    povm = detection_povm(0.6)
    w = np.linalg.inv(
        np.array([[np.sqrt(0.6), 0], [0, np.sqrt(0.6)]])
    )  # (I - m_fail)^{-1/2} for m_fail = 0.4 I
    m_x1 = w @ povm.m1x @ w
    m_x0 = w @ povm.m0x @ w
    p0x = oracles._proj(oracles._KP)
    p1x = oracles._proj(oracles._KM)
    pi_err = np.kron(p0x, m_x1) + np.kron(p1x, m_x0)

    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    rho = Density4.from_matrix(m / np.trace(m).real)
    expect = float(np.trace(rho.mat @ pi_err).real)
    assert prob_phase_error(rho, povm) == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# A detector whose failure element is not diagonal

# m_fail = U diag(0.1, 0.35) U^dag, so the filter's square roots and the
# conditional elements take the eigendecomposition branch.  The bit elements
# are S P S with S = (I - m_fail)^(1/2), written from U, so the conditional
# elements W (S P S) W with W = S^-1 are the projectors P themselves.
_FAIL_EIGS = np.array([0.1, 0.35])
_U = oracles.random_unitary(np.random.default_rng(11))
_S = (_U * np.sqrt(1.0 - _FAIL_EIGS)) @ _U.conj().T


def _alice(basis, bit):
    return oracles._proj(oracles.SOURCE_KETS[(basis.name, bit)])


def _bob(basis, bit):
    return _S @ _alice(basis, bit) @ _S


_SKEWED = BobPOVM(
    m0z=_bob(Basis.Z, 0),
    m1z=_bob(Basis.Z, 1),
    m0x=_bob(Basis.X, 0),
    m1x=_bob(Basis.X, 1),
    m_fail=(_U * _FAIL_EIGS) @ _U.conj().T,
)


_SKEWED_OPS = {
    "identity": IDENTITY,
    "depolarizing": depolarizing_channel(0.2, 0.3),
    "random-kraus-0": _random_kraus_pair(np.random.default_rng(0)),
    "random-kraus-1": _random_kraus_pair(np.random.default_rng(1)),
}


def _delivered(name):
    return channel_branches(bell_pair(), _SKEWED_OPS[name]).rho_first.mat


def test_skewed_failure_element_is_not_diagonal():
    assert abs(_SKEWED.m_fail[0, 1]) > 0.01
    assert np.allclose(np.linalg.eigvalsh(_SKEWED.m_fail), _FAIL_EIGS, atol=1e-15)


@pytest.mark.parametrize("name", _SKEWED_OPS)
def test_filter_with_skewed_failure_matches_longhand(name):
    rho = _delivered(name)
    kd = np.kron(I2, _S)
    kf = np.kron(I2, (_U * np.sqrt(_FAIL_EIGS)) @ _U.conj().T)
    det, fail = kd @ rho @ kd.conj().T, kf @ rho @ kf.conj().T
    split = filter_branches(Density4.from_matrix(rho), _SKEWED)
    # Pr[detect] = Tr((I - m_fail) rho) on B, whatever the basis.
    p_det = float(np.trace(np.kron(I2, I2 - _SKEWED.m_fail) @ rho).real)
    assert split.p_first == pytest.approx(p_det, abs=1e-12)
    assert split.p_second == pytest.approx(np.trace(fail).real, abs=1e-12)
    assert np.allclose(split.rho_first.mat, det / p_det, atol=1e-12)
    assert np.allclose(split.rho_second.mat, fail / np.trace(fail).real, atol=1e-12)


@pytest.mark.parametrize("name", _SKEWED_OPS)
def test_readout_with_skewed_failure_matches_longhand(name):
    """On the detected pair, Bob's readout is Tr((P_a ⊗ M_b) rho) / Pr[detect]."""
    rho = _delivered(name)
    split = filter_branches(Density4.from_matrix(rho), _SKEWED)
    for ba in Basis:
        for bb in Basis:
            probs = pair_outcome_probs(split.rho_first, ba, bb, _SKEWED)
            for a in (0, 1):
                for b in (0, 1):
                    effect = np.kron(_alice(ba, a), _bob(bb, b))
                    expect = np.trace(effect @ rho).real / split.p_first
                    assert probs[a, b] == pytest.approx(expect, abs=1e-12)
    anti = np.kron(_alice(Basis.X, 0), _bob(Basis.X, 1)) + np.kron(
        _alice(Basis.X, 1), _bob(Basis.X, 0)
    )
    expect = np.trace(anti @ rho).real / split.p_first
    assert prob_phase_error(split.rho_first, _SKEWED) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("name", _SKEWED_OPS)
def test_virtual_law_with_skewed_failure_matches_longhand(name):
    op = _SKEWED_OPS[name]
    rho = _delivered(name)
    law = _virtual_law(_SKEWED, op)
    p_det = float(np.trace(np.kron(I2, I2 - _SKEWED.m_fail) @ rho).real)
    assert law.p_deliver == pytest.approx(channel_branches(bell_pair(), op).p_first, abs=1e-12)
    assert law.p_detect == pytest.approx(p_det, abs=1e-12)
    for basis, cum in ((Basis.Z, law.zz_cum), (Basis.X, law.xx_cum)):
        joint = [
            np.trace(np.kron(_alice(basis, a), _bob(basis, b)) @ rho).real / p_det
            for a in (0, 1)
            for b in (0, 1)
        ]
        assert cum == pytest.approx(tuple(np.cumsum(joint)[:3]), abs=1e-12)
    assert law.t_phase == pytest.approx(joint[1] + joint[2], abs=1e-12)
