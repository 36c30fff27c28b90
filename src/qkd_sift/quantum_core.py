"""Qubit-pair states, channels and detection-aware measurements.

This module owns the linear algebra of the simulator: density matrices for a
single qubit and for an entangled pair (tensor order A ⊗ B throughout), Kraus
channels acting on Bob's side, and Bob's three-outcome measurement built from
a two-valued POVM plus a *shared* failure element ``m_fail``.  Sharing one
``m_fail`` between the Z and X decompositions is what makes the detection
event basis-independent, which the protocol layer relies on for its
termination rule.

All matrices are dense complex128 ndarrays.  Basis projectors are written out
with exact dyadic entries (0.5 instead of squared 1/sqrt(2) components), so
quantities that vanish analytically — e.g. the phase-error weight of a clean
pair state — vanish *exactly* in floating point as well.  The statistics
layer depends on that exactness.

A round that the channel loses or the detector misses is announced as
undetected and never measured, so the branch functions compute only the
branch a round law reads: the delivered state, then the detected one, each as
``(probability, normalized state or None)``.

The module keeps no caches.  Each derived operator (the Kraus operators
lifted to the pair, the detection filter, Bob's conditional elements and the
phase-error effect) is built inside the one function that reads it; both PSD
roots are one eigenvalue helper, and one helper normalizes every branch state.
The protocol layer calls these functions only while building a round law, and
it caches each law per (POVM, op) value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, TypeVar

import numpy as np
import numpy.typing as npt

from .errors import DomainError, NormalizationError

Matrix = npt.NDArray[np.complex128]

#: Streams of randomness are plain ``random.Random`` instances: scalar draws
#: are cheap, state is picklable, and independent instances never interact.
RandomStream = random.Random

# Tolerances.  Construction-time structural checks use 1e-10; conditional
# states must be normalized within 1e-8; a branch whose probability falls
# below 1e-12 is treated as impossible.  Checks are written ``not x <= atol``
# so that a NaN defect (from a non-finite entry) fails them too.
HERMITIAN_ATOL = 1e-10
PSD_EIG_ATOL = 1e-10
TRACE_MAX_ATOL = 1e-10
COMPLETENESS_ATOL = 1e-10
NORMALIZATION_ATOL = 1e-8
BRANCH_EPS = 1e-12
_SUPPORT_EIG_CUTOFF = 1e-12


class Basis(Enum):
    """Measurement basis label; ``value`` doubles as an array index."""

    Z = 0
    X = 1


_I2 = np.eye(2, dtype=np.complex128)

# Exact basis projectors, written with literal 0.5 entries: np.outer of
# (1/sqrt(2))-kets would leave ~1e-17 dust on the diagonal and break exact
# cancellations downstream.
PROJECTOR = {
    (0, Basis.Z): np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128),
    (1, Basis.Z): np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128),
    (0, Basis.X): np.array([[0.5, 0.5], [0.5, 0.5]], dtype=np.complex128),
    (1, Basis.X): np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=np.complex128),
}


def _freeze(m: np.ndarray) -> Matrix:
    out = np.asarray(m, dtype=np.complex128)
    out.setflags(write=False)
    return out


class _ValueKeyed:
    """Equality and hash by ``_key``, the bytes of an operator's frozen matrices."""

    _key: tuple

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


def _tr_product(a: Matrix, b: Matrix) -> float:
    """Re Tr(a @ b) without forming the product matrix."""
    return float(np.einsum("ij,ji->", a, b).real)


_D = TypeVar("_D", bound="_Density")


@dataclass(frozen=True)
class _Density:
    """Density matrix of dimension ``dim``; may be sub-normalized after a Kraus branch."""

    mat: Matrix
    dim: ClassVar[int]

    @classmethod
    def from_matrix(cls: type[_D], m: np.ndarray) -> _D:
        m = np.asarray(m, dtype=np.complex128)
        cls._check(m)
        return cls(_freeze(m))

    @classmethod
    def _wrap(cls: type[_D], m: np.ndarray) -> _D:
        """Wrap without validation; for outputs of operations that preserve it."""
        return cls(_freeze(m))

    @property
    def trace(self) -> float:
        return float(self.mat.trace().real)

    def validate(self) -> None:
        self._check(self.mat)

    @classmethod
    def _check(cls, m: Matrix) -> None:
        dim, what = cls.dim, cls.__name__
        if m.shape != (dim, dim):
            raise DomainError(f"{what}: expected {dim}x{dim} matrix, got {m.shape}")
        if not np.abs(m - m.conj().T).max() <= HERMITIAN_ATOL:
            raise DomainError(f"{what}: not Hermitian within {HERMITIAN_ATOL}")
        eigs = np.linalg.eigvalsh(m)
        if not eigs.min() >= -PSD_EIG_ATOL:
            raise DomainError(f"{what}: negative eigenvalue {eigs.min():.3e}")
        tr = float(m.trace().real)
        if not -PSD_EIG_ATOL <= tr <= 1.0 + TRACE_MAX_ATOL:
            raise DomainError(f"{what}: trace {tr!r} outside [0, 1]")


class Density2(_Density):
    """Single-qubit density matrix."""

    dim = 2


class Density4(_Density):
    """Density matrix of the pair A ⊗ B (A = Alice's qubit, B = Bob's)."""

    dim = 4


@dataclass(frozen=True, eq=False)
class ChannelOp(_ValueKeyed):
    """One round of adversarial channel action on system B.

    ``deliver_kraus`` are the Kraus operators of the branch that hands a qubit
    to Bob; ``lose_kraus`` of the branch where the round is lost before his
    detector.  Jointly they must be trace preserving.  Either list may be
    empty (always-deliver / always-lose channels) but not both.

    Ops compare and hash by the bytes of their Kraus operators, so two ops
    built alike share one memoized round law.
    """

    deliver_kraus: tuple[Matrix, ...]
    lose_kraus: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        deliver = tuple(_freeze(k) for k in self.deliver_kraus)
        lose = tuple(_freeze(k) for k in self.lose_kraus)
        object.__setattr__(self, "deliver_kraus", deliver)
        object.__setattr__(self, "lose_kraus", lose)
        if not deliver and not lose:
            raise DomainError("ChannelOp: both Kraus lists are empty")
        acc = np.zeros((2, 2), dtype=np.complex128)
        for k in deliver + lose:
            if k.shape != (2, 2):
                raise DomainError(f"ChannelOp: Kraus operator of shape {k.shape}")
            acc += k.conj().T @ k
        defect = np.abs(acc - _I2).max()
        if not defect <= COMPLETENESS_ATOL:
            raise DomainError(
                f"ChannelOp: sum K^dag K deviates from identity by {defect:.3e}"
            )
        key = (tuple(k.tobytes() for k in deliver), tuple(k.tobytes() for k in lose))
        object.__setattr__(self, "_key", key)


def _psd_function(m: Matrix, f: Callable[[np.ndarray], np.ndarray]) -> Matrix:
    """``f`` applied to the eigenvalues of the Hermitian matrix ``m``.

    Exactly diagonal input takes an element-wise path so that e.g. the ideal
    filter (m_fail = 0) yields the identity with zero rounding dust.
    """
    off = m - np.diag(np.diag(m))
    if not off.any():
        return np.diag(f(np.diag(m).real)).astype(np.complex128)
    w, u = np.linalg.eigh(m)
    return (u * f(w)) @ u.conj().T


def _sqrt(w: np.ndarray) -> np.ndarray:
    """Principal square root of PSD eigenvalues, clipped of negative dust."""
    return np.sqrt(np.clip(w, 0.0, None))


def _pinv_sqrt(w: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root: eigenvalues off the support stay zero."""
    return np.where(w > _SUPPORT_EIG_CUTOFF, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)


@dataclass(frozen=True, eq=False)
class BobPOVM(_ValueKeyed):
    """Bob's detector: per-basis bit elements plus one shared failure element.

    Completeness must hold through the *same* ``m_fail`` in both bases::

        m0z + m1z + m_fail = I = m0x + m1x + m_fail

    so Pr[detection] = Tr((I - m_fail) rho) regardless of the basis Bob will
    announce — the announcements cannot leak the basis through detection
    statistics.  POVMs compare and hash by the bytes of their elements.
    """

    m0z: Matrix
    m1z: Matrix
    m0x: Matrix
    m1x: Matrix
    m_fail: Matrix

    def __post_init__(self) -> None:
        for name in ("m0z", "m1z", "m0x", "m1x", "m_fail"):
            m = np.asarray(getattr(self, name), dtype=np.complex128)
            if m.shape != (2, 2):
                raise DomainError(f"BobPOVM.{name}: expected 2x2, got {m.shape}")
            if not np.abs(m - m.conj().T).max() <= HERMITIAN_ATOL:
                raise DomainError(f"BobPOVM.{name}: not Hermitian")
            if not np.linalg.eigvalsh(m).min() >= -PSD_EIG_ATOL:
                raise DomainError(f"BobPOVM.{name}: not positive semidefinite")
            object.__setattr__(self, name, _freeze(m))
        for basis, lo, hi in ((Basis.Z, self.m0z, self.m1z), (Basis.X, self.m0x, self.m1x)):
            defect = np.abs(lo + hi + self.m_fail - _I2).max()
            if not defect <= COMPLETENESS_ATOL:
                raise DomainError(
                    f"BobPOVM: {basis.name}-basis completeness violated by {defect:.3e}"
                )
        key = tuple(m.tobytes() for m in (self.m0z, self.m1z, self.m0x, self.m1x, self.m_fail))
        object.__setattr__(self, "_key", key)

    def element(self, bit: int, basis: Basis) -> Matrix:
        if basis is Basis.Z:
            return self.m0z if bit == 0 else self.m1z
        return self.m0x if bit == 0 else self.m1x


def _conditional_elements(povm: BobPOVM, basis: Basis) -> tuple[Matrix, Matrix]:
    """Bob's two bit elements of ``basis`` conditioned on detection.

    W M_{b,basis} W with W = (I - m_fail)^{-1/2} (pseudo-inverse on the
    detected support); the two elements sum to the identity on that support,
    so applying them to a post-filter state reproduces
    Tr(M_{b,basis} rho) / Tr((I - m_fail) rho).
    """
    w = _psd_function(_I2 - povm.m_fail, _pinv_sqrt)
    return w @ povm.element(0, basis) @ w, w @ povm.element(1, basis) @ w


def detection_povm(eta_det: float = 1.0) -> BobPOVM:
    """POVM of a detector with efficiency ``eta_det``.

    m_fail = (1 - eta_det) * I and each bit element is eta_det times the basis
    projector; the failure element is proportional to the identity, hence
    detection is basis-independent by construction.
    """
    if not 0.0 < eta_det <= 1.0:
        raise DomainError(f"detection efficiency must be in (0, 1], got {eta_det}")
    return BobPOVM(
        m0z=eta_det * PROJECTOR[(0, Basis.Z)],
        m1z=eta_det * PROJECTOR[(1, Basis.Z)],
        m0x=eta_det * PROJECTOR[(0, Basis.X)],
        m1x=eta_det * PROJECTOR[(1, Basis.X)],
        m_fail=(1.0 - eta_det) * _I2,
    )


_IDEAL_POVM = detection_povm(1.0)


def ideal_povm() -> BobPOVM:
    """Unit-efficiency POVM (m_fail = 0); shared module-level instance."""
    return _IDEAL_POVM


_SOURCE_STATES = {
    (bit, basis): Density2._wrap(PROJECTOR[(bit, basis)])
    for bit in (0, 1)
    for basis in Basis
}

_BELL = np.zeros((4, 4), dtype=np.complex128)
_BELL[0, 0] = _BELL[0, 3] = _BELL[3, 0] = _BELL[3, 3] = 0.5
_BELL_PAIR = Density4._wrap(_BELL)


def source_state(bit: int, basis: Basis) -> Density2:
    """State of the encoded single photon for a given bit and basis."""
    if bit not in (0, 1):
        raise DomainError(f"bit must be 0 or 1, got {bit!r}")
    return _SOURCE_STATES[(bit, basis)]


def bell_pair() -> Density4:
    """Maximally entangled pair (|00> + |11>)/sqrt(2) as a density matrix."""
    return _BELL_PAIR


def channel_branches(rho: Density4, ch: ChannelOp) -> tuple[float, Density4 | None]:
    """(p_deliver, normalized delivered state) of ``rho`` through the channel.

    A lost round is announced as undetected and never measured, so only the
    deliver branch is computed.
    """
    return _branch(Density4._wrap, rho.mat, tuple(np.kron(_I2, k) for k in ch.deliver_kraus))


def _branch(
    wrap: Callable[[Matrix], _D], m: Matrix, kraus: tuple[Matrix, ...]
) -> tuple[float, _D | None]:
    """(p, ``wrap`` of the normalized state) of the branch sum_k K m K^dag;
    the state is None when ``p`` is below :data:`BRANCH_EPS`."""
    if not kraus:
        return 0.0, None
    acc = kraus[0] @ m @ kraus[0].conj().T
    for k in kraus[1:]:
        acc += k @ m @ k.conj().T
    p = float(acc.trace().real)
    return p, wrap(acc / p) if p >= BRANCH_EPS else None


def filter_branches(rho: Density4, povm: BobPOVM) -> tuple[float, Density4 | None]:
    """(p_detect, normalized detected state) under the detection filter
    sqrt(I - m_fail) on side B; a failed round is never measured either."""
    root = np.kron(_I2, _psd_function(_I2 - povm.m_fail, _sqrt))
    return _branch(Density4._wrap, rho.mat, (root,))


def pair_outcome_probs(
    rho: Density4, basis_a: Basis, basis_b: Basis, povm: BobPOVM
) -> np.ndarray:
    """Joint Born probabilities of (bit_a, bit_b) on a detected pair.

    Alice measures with projectors of ``basis_a``; Bob with the POVM's
    conditional (post-detection) elements of ``basis_b``.  Shape (2, 2).
    """
    cond = _conditional_elements(povm, basis_b)
    effects = np.array([[np.kron(PROJECTOR[(a, basis_a)], c) for c in cond] for a in (0, 1)])
    return np.einsum("abij,ji->ab", effects, rho.mat).real


def prob_phase_error(rho: Density4, povm: BobPOVM) -> float:
    """Probability that X measurements on the detected pair anticorrelate.

    The input must be a normalized conditional (post-detection) state.  The
    value is Tr(rho @ pi_err_x), clipped of rounding dust into [0, 1], where
    pi_err_x = kron(P0x, M'_{x,1}) + kron(P1x, M'_{x,0}) flags anticorrelated
    X outcomes with Bob's conditional elements M'.
    """
    tr = rho.trace
    if not abs(tr - 1.0) <= NORMALIZATION_ATOL:
        raise NormalizationError(f"state trace {tr!r}, expected 1")
    m_x0, m_x1 = _conditional_elements(povm, Basis.X)
    pi_err_x = np.kron(PROJECTOR[(0, Basis.X)], m_x1) + np.kron(PROJECTOR[(1, Basis.X)], m_x0)
    val = _tr_product(rho.mat, pi_err_x)
    if val < 0.0:
        if val < -NORMALIZATION_ATOL:
            raise NormalizationError(f"phase-error weight {val!r} below 0")
        return 0.0
    return min(val, 1.0)


# ---------------------------------------------------------------------------
# Single-qubit helpers used by the prepare-and-measure protocol path.  The
# entanglement-based path above runs on 4x4 pair states; the directly
# simulated protocol sends a 2x2 source state through the same ChannelOp.


def qubit_channel_branches(rho: Density2, ch: ChannelOp) -> tuple[float, Density2 | None]:
    """(p_deliver, normalized delivered state) for a qubit input."""
    return _branch(Density2._wrap, rho.mat, ch.deliver_kraus)


def qubit_outcome_probs(
    rho: Density2, basis: Basis, povm: BobPOVM
) -> tuple[float, float, float]:
    """(p_bit0, p_bit1, p_fail) of Bob's three-outcome measurement."""
    m = rho.mat
    return (
        _tr_product(povm.element(0, basis), m),
        _tr_product(povm.element(1, basis), m),
        _tr_product(povm.m_fail, m),
    )
