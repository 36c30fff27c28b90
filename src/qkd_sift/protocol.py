"""Protocol sessions: iterative sifting until enough rounds are detected.

Three executable pictures run on one round loop, :func:`_session`:

* :func:`run_actual`   — prepare-and-measure.  Alice sends a random source
  state; Bob applies his three-outcome measurement; both announce.  Runs on
  2x2 states.
* :func:`run_virtual`  — entanglement picture.  A fresh pair per round, the
  detection filter on Bob's side, and *deferred* sifted-key measurements after
  the loop.  Announcements carry exactly the same content per round as the
  prepare-and-measure variant, so the two are indistinguishable from the
  channel.
* :func:`run_estimation` — the bookkeeping variant: every detected pair is
  measured in X immediately, while the per-round phase/X-error probabilities
  of the conditional state are recorded for the martingale analysis.

Termination counts *detected* rounds, matched or mismatched bases alike, and
detection probability is basis-independent by POVM construction, so the
stopping rule leaks nothing about basis choices.  When ``batch_size > 1``,
rounds already in flight when the threshold fills are still announced but
their detections are discarded, keeping the detected count exact.

Adaptive adversaries see, for round i, the transcript of rounds 1..i-1 only.

Per-round determinism: every sample comes from the session stream in a fixed
order (channel branch, bases, outcome), and the adversary draws from its own
sub-stream, so a (seed, trial index) pair fully determines a session.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

import numpy as np

from . import finite_key, hashing
from .adversary import EveStrategy, Schedule
from .errors import (
    AbortKeyTooShort,
    AbortVerificationFailed,
    MaxRoundsExceeded,
    NormalizationError,
    ValidationError,
)
from .quantum_core import (
    Basis,
    BobPOVM,
    ChannelOp,
    Density4,
    RandomStream,
    bell_pair,
    channel_branches,
    filter_branches,
    ideal_povm,
    pair_outcome_probs,
    prob_phase_error,
    qubit_channel_branches,
    qubit_outcome_probs,
    source_state,
)

_PROB_SUM_ATOL = 1e-8


@dataclass(frozen=True)
class ProtocolParams:
    """Session parameters.

    ``n_det_ter`` is the detected-round count at which the loop stops;
    ``delta`` the concentration deviation per detected round; ``f_ec`` the
    error-correction inefficiency; ``batch_size`` how many rounds are in
    flight before announcements are awaited (1 = strictly sequential).
    ``max_rounds`` defaults to 1000 * n_det_ter.
    """

    p_z_a: float
    p_x_a: float
    p_z_b: float
    p_x_b: float
    n_det_ter: int
    eps_s: float
    eps_c: float
    delta: float
    f_ec: float = 1.16
    max_rounds: int | None = None
    batch_size: int = 1

    def __post_init__(self) -> None:
        for name in ("p_z_a", "p_x_a", "p_z_b", "p_x_b"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must be in [0, 1], got {v!r}")
        if abs(self.p_z_a + self.p_x_a - 1.0) > 1e-12:
            raise ValidationError("basis probabilities of A must sum to 1 within 1e-12")
        if abs(self.p_z_b + self.p_x_b - 1.0) > 1e-12:
            raise ValidationError("basis probabilities of B must sum to 1 within 1e-12")
        if not isinstance(self.n_det_ter, int) or self.n_det_ter < 1:
            raise ValidationError(f"n_det_ter must be a positive integer, got {self.n_det_ter!r}")
        for name in ("eps_s", "eps_c"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValidationError(f"{name} must be in (0, 1), got {v!r}")
        if self.delta < 0.0:
            raise ValidationError(f"delta must be >= 0, got {self.delta!r}")
        if self.f_ec < 1.0:
            raise ValidationError(f"f_ec must be >= 1, got {self.f_ec!r}")
        if self.max_rounds is None:
            object.__setattr__(self, "max_rounds", 1000 * self.n_det_ter)
        if not isinstance(self.max_rounds, int) or self.max_rounds < self.n_det_ter:
            raise ValidationError(
                f"max_rounds must be an integer >= n_det_ter, got {self.max_rounds!r}"
            )
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ValidationError(f"batch_size must be a positive integer, got {self.batch_size!r}")

    @property
    def q_z(self) -> float:
        """Probability that both sides pick Z in a round."""
        return self.p_z_a * self.p_z_b

    @property
    def q_x(self) -> float:
        return self.p_x_a * self.p_x_b


@dataclass(frozen=True)
class CountDetected:
    """Stop once n detected rounds are counted (the secure rule)."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"detection target must be >= 1, got {self.n}")


@dataclass(frozen=True)
class CountPerBasis:
    """Stop once both per-basis quotas fill.

    Demonstration rule only: its stopping time depends on announced bases,
    which skews which positions end up as test rounds.  The secure entry
    points refuse it.
    """

    n_z_req: int
    n_x_req: int

    def __post_init__(self) -> None:
        if self.n_z_req < 1 or self.n_x_req < 1:
            raise ValidationError(
                f"per-basis quotas must be >= 1, got ({self.n_z_req}, {self.n_x_req})"
            )


TerminationRule = Union[CountDetected, CountPerBasis]


class RoundRecord(NamedTuple):
    """One announced round.  ``basis_a`` is present exactly when detected."""

    index: int
    detected: bool
    basis_b: Basis
    basis_a: Basis | None


_BASES = tuple(Basis)  # indexed by ``Basis.value``


class Transcript:
    """Everything public: parameters and the per-round announcements.

    The announcements are stored as ``bytearray`` columns with one entry per
    emitted round; the round index is the position + 1.

    * ``detected``: 1 if the round was announced as detected, else 0;
    * ``basis_b``: Bob's announced basis as ``Basis.value``;
    * ``basis_a``: Alice's announced basis as ``Basis.value``, 0 when the
      round is undetected;
    * ``detected_basis_b``: Bob's basis of each detected round, in order.

    ``rounds`` is a read-only, lazy view that yields :class:`RoundRecord`s.
    ``Transcript(params, rounds=records)`` fills the columns from records
    numbered 1, 2, 3, ...
    """

    def __init__(self, params: ProtocolParams, rounds: Iterable[RoundRecord] = ()) -> None:
        self.params = params
        self.detected = bytearray()
        self.basis_b = bytearray()
        self.basis_a = bytearray()
        self.detected_basis_b = bytearray()
        for position, rec in enumerate(rounds, 1):
            if rec.index != position:
                raise ValidationError(
                    f"round records must be numbered 1, 2, ...; got {rec.index} at {position}"
                )
            self.detected.append(1 if rec.detected else 0)
            self.basis_b.append(rec.basis_b.value)
            if rec.detected:
                self.basis_a.append(rec.basis_a.value)
                self.detected_basis_b.append(rec.basis_b.value)
            else:
                self.basis_a.append(0)

    @property
    def rounds(self) -> _RoundsView:
        return _RoundsView(self)

    @property
    def n_detected(self) -> int:
        return len(self.detected_basis_b)


class _RoundsView(Sequence):
    """The rounds of a transcript as :class:`RoundRecord`s, built on access.

    Supports ``len``, indexing (negative too) and slices (as lists); the
    ``Sequence`` mixins add iteration and ``reversed``.  It reads the columns
    live, so a view taken during a session sees the rounds emitted since.
    """

    def __init__(self, transcript: Transcript) -> None:
        self._transcript = transcript

    def __len__(self) -> int:
        return len(self._transcript.detected)

    def _record(self, i: int) -> RoundRecord:
        t = self._transcript
        if t.detected[i]:
            return RoundRecord(i + 1, True, _BASES[t.basis_b[i]], _BASES[t.basis_a[i]])
        return RoundRecord(i + 1, False, _BASES[t.basis_b[i]], None)

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            return [self._record(j) for j in range(*i.indices(n))]
        i = operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("round index out of range")
        return self._record(i)


@dataclass(frozen=True)
class SiftedData:
    """Bit strings kept after basis reconciliation (uint8 arrays of 0/1)."""

    s_az: np.ndarray
    s_bz: np.ndarray
    s_ax: np.ndarray
    s_bx: np.ndarray
    n_z: int
    n_x: int

    def __post_init__(self) -> None:
        if not (len(self.s_az) == len(self.s_bz) == self.n_z):
            raise ValidationError("Z-string lengths disagree with n_z")
        if not (len(self.s_ax) == len(self.s_bx) == self.n_x):
            raise ValidationError("X-string lengths disagree with n_x")

    def x_error_weight(self) -> int:
        """Hamming weight of s_ax XOR s_bx."""
        return int(np.count_nonzero(self.s_ax != self.s_bx))


class PerRound(NamedTuple):
    """Estimation-run record of one detected round."""

    bases: tuple[Basis, Basis]
    x_outcomes: tuple[int, int]
    p_ph: float
    p_xerr: float


@dataclass(frozen=True)
class EstimationRun:
    """Output of :func:`run_estimation`.

    ``lambda_ph`` counts detected rounds where both sides announced Z and the
    immediate X measurements disagreed; ``lambda_xerr`` the same for X-basis
    announcements.  ``s_az_vir``/``s_bz_vir`` are the X outcomes on Z-agreed
    rounds — the basis-flipped counterpart of the sifted key.
    """

    transcript: Transcript
    per_round: list[PerRound]
    lambda_ph: int
    lambda_xerr: int
    s_az_vir: np.ndarray
    s_bz_vir: np.ndarray


@dataclass(frozen=True)
class FinalKeys:
    """Distilled keys plus the public randomness needed to audit them."""

    f_az: np.ndarray
    f_bz: np.ndarray
    aborted: bool
    lambda_ec: int
    meta: dict

    def __post_init__(self) -> None:
        if not self.aborted and len(self.f_az) != len(self.f_bz):
            raise ValidationError("final key lengths disagree")


def derive_stream(master_seed: int, index: int) -> RandomStream:
    """Stream for trial ``index`` of a run seeded with ``master_seed``.

    Counter construction: the child seed is ``(master_seed << 64) + index``,
    injective over (u64 seed, index), so a trial's stream depends on its
    index alone, not on which trials ran before it.
    """
    if not 0 <= master_seed < 2**64:
        raise ValidationError(f"master seed must be a u64, got {master_seed!r}")
    if index < 0:
        raise ValidationError(f"trial index must be >= 0, got {index}")
    return random.Random((master_seed << 64) + index)


def _eve_stream(rng: RandomStream) -> RandomStream:
    """The adversary's private sub-stream, derived once per session."""
    return random.Random(rng.getrandbits(64))


# ---------------------------------------------------------------------------
# Round kernel: per-ChannelOp algebra, computed once and then sampled from.


class _ActualLaw(NamedTuple):
    # p_deliver[bit][basis_index]
    p_deliver: tuple[tuple[float, float], tuple[float, float]]
    # outcome_cum[bit][basis_a_index][basis_b_index] = (P(bob=0), P(bob in {0,1}))
    outcome_cum: tuple


class _VirtualLaw(NamedTuple):
    p_deliver: float
    p_detect: float  # conditional on delivery
    rho_detected: Density4 | None
    t_phase: float
    zz_cum: tuple[float, float, float]  # cumulative over (0,0),(0,1),(1,0); rest (1,1)
    xx_cum: tuple[float, float, float]


def _cum_pair(probs: np.ndarray, what: str) -> tuple[float, float, float]:
    total = float(probs.sum())
    if abs(total - 1.0) > _PROB_SUM_ATOL:
        raise NormalizationError(f"{what}: outcome probabilities sum to {total!r}")
    p00, p01, p10 = float(probs[0, 0]), float(probs[0, 1]), float(probs[1, 0])
    return (p00, p00 + p01, p00 + p01 + p10)


_KERNEL_CACHE_MAX = 512


class _RoundKernel:
    """Memo of the Born/Kraus arithmetic per (POVM, channel op) pair.

    Strategies reuse ChannelOp instances, so each distinct op is reduced once
    to plain floats and every subsequent round costs only scalar samples.
    Keyed by object identity; the op is referenced to keep ids stable.
    """

    def __init__(self, povm: BobPOVM) -> None:
        self.povm = povm
        self._actual: dict[int, _ActualLaw] = {}
        self._virtual: dict[int, _VirtualLaw] = {}
        self._refs: list[ChannelOp] = []

    def _remember(self, op: ChannelOp) -> None:
        self._refs.append(op)
        if len(self._refs) > _KERNEL_CACHE_MAX:
            # A strategy that mints a fresh op every round would grow the memo
            # without bound; fall back to recomputing.
            self._actual.clear()
            self._virtual.clear()
            self._refs.clear()

    def actual(self, op: ChannelOp) -> _ActualLaw:
        law = self._actual.get(id(op))
        if law is None:
            law = self._build_actual(op)
            self._actual[id(op)] = law
            self._remember(op)
        return law

    def virtual(self, op: ChannelOp) -> _VirtualLaw:
        law = self._virtual.get(id(op))
        if law is None:
            law = self._build_virtual(op)
            self._virtual[id(op)] = law
            self._remember(op)
        return law

    def _build_actual(self, op: ChannelOp) -> _ActualLaw:
        povm = self.povm
        p_deliver = []
        outcome_cum = []
        for bit in (0, 1):
            p_row = []
            cum_row = []
            for basis in (Basis.Z, Basis.X):
                p_del, rho_del, _ = qubit_channel_branches(source_state(bit, basis), op)
                p_row.append(p_del)
                if rho_del is None:
                    cum_row.append(((0.0, 0.0), (0.0, 0.0)))
                    continue
                per_bob = []
                for bob_basis in (Basis.Z, Basis.X):
                    p0, p1, p_fail = qubit_outcome_probs(rho_del, bob_basis, povm)
                    total = p0 + p1 + p_fail
                    if abs(total - 1.0) > _PROB_SUM_ATOL:
                        raise NormalizationError(
                            f"three-outcome probabilities sum to {total!r}"
                        )
                    per_bob.append((p0, p0 + p1))
                cum_row.append(tuple(per_bob))
            p_deliver.append(tuple(p_row))
            outcome_cum.append(tuple(cum_row))
        return _ActualLaw(tuple(p_deliver), tuple(outcome_cum))

    def _build_virtual(self, op: ChannelOp) -> _VirtualLaw:
        povm = self.povm
        split = channel_branches(bell_pair(), op)
        p_deliver = split.p_first
        if split.rho_first is None:
            return _VirtualLaw(p_deliver, 0.0, None, 0.0, (0.0,) * 3, (0.0,) * 3)
        rho_delivered = split.rho_first
        rho_delivered.validate()
        fsplit = filter_branches(rho_delivered, povm)
        p_detect = fsplit.p_first
        if fsplit.rho_first is None:
            return _VirtualLaw(p_deliver, p_detect, None, 0.0, (0.0,) * 3, (0.0,) * 3)
        rho_detected = fsplit.rho_first
        rho_detected.validate()
        t = prob_phase_error(rho_detected, povm)
        zz = pair_outcome_probs(rho_detected, Basis.Z, Basis.Z, povm)
        xx = pair_outcome_probs(rho_detected, Basis.X, Basis.X, povm)
        return _VirtualLaw(
            p_deliver,
            p_detect,
            rho_detected,
            t,
            _cum_pair(zz, "ZZ readout"),
            _cum_pair(xx, "XX readout"),
        )


# One kernel per POVM instance, shared across sessions so that short runs do
# not pay the law construction over and over.  Dict ops are atomic under the
# GIL; a rare duplicate build on a race is idempotent.
_KERNELS: dict[int, _RoundKernel] = {}
_KERNEL_POVMS: list[BobPOVM] = []


def _kernel_for(povm: BobPOVM) -> _RoundKernel:
    kernel = _KERNELS.get(id(povm))
    if kernel is None:
        kernel = _RoundKernel(povm)
        if len(_KERNEL_POVMS) >= _KERNEL_CACHE_MAX:
            _KERNELS.clear()
            _KERNEL_POVMS.clear()
        _KERNELS[id(povm)] = kernel
        _KERNEL_POVMS.append(povm)
    return kernel


# ---------------------------------------------------------------------------
# Session engine

# The three pictures of one session.  They share every announcement and the
# termination rule; :func:`_session` branches on them only where the pictures
# really differ.
_ACTUAL = "actual"
_VIRTUAL = "virtual"
_ESTIMATION = "estimation"


def run_actual(
    params: ProtocolParams,
    eve: EveStrategy,
    rng: RandomStream,
    povm: BobPOVM | None = None,
) -> tuple[Transcript, SiftedData]:
    """Prepare-and-measure session; stops at exactly n_det_ter detections."""
    povm = povm if povm is not None else ideal_povm()
    return _session(params, eve, rng, povm, CountDetected(params.n_det_ter), _ACTUAL)


def run_insecure_termination(
    params: ProtocolParams,
    rule: CountPerBasis,
    eve: EveStrategy,
    rng: RandomStream,
    povm: BobPOVM | None = None,
) -> tuple[Transcript, SiftedData]:
    """Prepare-and-measure session under a per-basis quota stopping rule.

    Exists solely to feed the bias analyzer; the stopping time of this rule
    depends on announced bases, which is exactly the defect being measured.
    """
    if not isinstance(rule, CountPerBasis):
        raise ValidationError("run_insecure_termination requires a CountPerBasis rule")
    povm = povm if povm is not None else ideal_povm()
    return _session(params, eve, rng, povm, rule, _ACTUAL)


def run_virtual(
    params: ProtocolParams,
    eve: EveStrategy,
    rng: RandomStream,
    povm: BobPOVM | None = None,
) -> tuple[Transcript, SiftedData, list[Density4]]:
    """Entanglement-picture session with deferred sifted-key measurements.

    Returns the transcript, the sifted data obtained by measuring the kept
    pairs *after* the loop, and the retained conditional states of the
    Z-agreed rounds in detection order.
    """
    povm = povm if povm is not None else ideal_povm()
    return _session(params, eve, rng, povm, CountDetected(params.n_det_ter), _VIRTUAL)


def run_estimation(
    params: ProtocolParams,
    eve: EveStrategy,
    rng: RandomStream,
    povm: BobPOVM | None = None,
) -> EstimationRun:
    """Session in which every detected pair is measured in X immediately.

    Each detected round records the announced bases, the X outcomes, and the
    conditional probabilities p_ph = q_z * t and p_xerr = q_x * t, where t is
    the phase-error weight of that round's post-detection state.  Both
    probabilities come from the single trace evaluation t, so their ratio is
    q_z : q_x by construction.
    """
    povm = povm if povm is not None else ideal_povm()
    return _session(params, eve, rng, povm, CountDetected(params.n_det_ter), _ESTIMATION)


def _session(
    params: ProtocolParams,
    eve: EveStrategy,
    rng: RandomStream,
    povm: BobPOVM,
    rule: TerminationRule,
    picture: str,
) -> EstimationRun | tuple:
    """The one round loop behind every session picture.

    Draw order per round, from the session stream:

    * actual: Alice's basis, her bit, delivery, Bob's basis, and Bob's
      readout if delivered;
    * virtual and estimation: delivery, detection if delivered, Bob's basis,
      and on a counted detection Alice's basis; estimation then reads X at
      once, while the virtual picture reads the kept pairs after the loop.
    """
    # The picture is tested once; the loop branches on plain local flags.
    actual = picture is _ACTUAL
    virtual = picture is _VIRTUAL
    kernel = _kernel_for(povm)
    law_of = kernel.actual if actual else kernel.virtual
    eve_rng = _eve_stream(rng)
    behavior = eve.behavior
    rand = rng.random
    getrandbits = rng.getrandbits

    p_z_a = params.p_z_a
    p_z_b = params.p_z_b
    q_z = params.q_z
    q_x = params.q_x
    batch = params.batch_size
    max_rounds = params.max_rounds
    Z, X = Basis.Z, Basis.X
    Z_VALUE, X_VALUE = Z.value, X.value

    # Stop once n_det >= det_target and both quotas fill; exactly one of the
    # two conditions is live for a given rule.
    counting_detected = isinstance(rule, CountDetected)
    if counting_detected:
        det_target, nz_req, nx_req = rule.n, 0, 0
    else:
        det_target, nz_req, nx_req = 0, rule.n_z_req, rule.n_x_req

    transcript = Transcript(params)
    announce_detected = transcript.detected.append
    announce_basis_b = transcript.basis_b.append
    announce_basis_a = transcript.basis_a.append
    note_detected_basis_b = transcript.detected_basis_b.append
    # Z- and X-agreed bits.  Actual: the sifted strings.  Estimation: az/bz
    # hold the X readouts of the Z-agreed pairs.  Virtual: filled by the
    # deferred readout of ``kept`` after the loop.
    az: list[int] = []
    bz: list[int] = []
    ax: list[int] = []
    bx: list[int] = []
    # Virtual: (is_z_pair, cum3) per kept round, and the Z-agreed states.
    kept: list[tuple[bool, tuple[float, float, float]]] = []
    retained: list[Density4] = []
    per_round: list[PerRound] = []
    lambda_ph = 0
    lambda_xerr = 0
    n_det = 0
    idx = 0
    # The last op and its law: most strategies return one op all session, so
    # the kernel is asked only when the op changes.  Holding the op keeps its
    # id from being reused.
    last_op = law = None

    while n_det < det_target or len(az) < nz_req or len(ax) < nx_req:
        if idx >= max_rounds:
            raise MaxRoundsExceeded(
                f"no termination after {idx} rounds ({n_det} detected)"
            )
        for _ in range(batch):
            if idx >= max_rounds:
                break
            idx += 1
            op = behavior(transcript, eve_rng)
            if op is not last_op:
                law = law_of(op)
                last_op = op
            if actual:
                a_is_z = rand() < p_z_a
                a_bit = getrandbits(1)
                delivered = rand() < law.p_deliver[a_bit][0 if a_is_z else 1]
                b_is_z = rand() < p_z_b
                detected = False
                b_bit = 0
                if delivered:
                    c0, c1 = law.outcome_cum[a_bit][0 if a_is_z else 1][0 if b_is_z else 1]
                    u = rand()
                    if u < c0:
                        detected = True
                    elif u < c1:
                        detected = True
                        b_bit = 1
            else:
                detected = rand() < law.p_deliver and rand() < law.p_detect
                b_is_z = rand() < p_z_b
            if detected and counting_detected and n_det >= det_target:
                # Threshold filled while this round was in flight: announce it
                # as non-detected so the detected count stays exact.
                detected = False
            b_value = Z_VALUE if b_is_z else X_VALUE
            announce_basis_b(b_value)
            if not detected:
                announce_detected(0)
                announce_basis_a(0)
                continue
            n_det += 1
            if not actual:
                a_is_z = rand() < p_z_a
            announce_detected(1)
            announce_basis_a(Z_VALUE if a_is_z else X_VALUE)
            note_detected_basis_b(b_value)
            if actual:
                if a_is_z:
                    if b_is_z:
                        az.append(a_bit)
                        bz.append(b_bit)
                elif not b_is_z:
                    ax.append(a_bit)
                    bx.append(b_bit)
            elif virtual:
                if a_is_z and b_is_z:
                    kept.append((True, law.zz_cum))
                    retained.append(law.rho_detected)
                elif not a_is_z and not b_is_z:
                    kept.append((False, law.xx_cum))
            else:
                p_ph = q_z * law.t_phase
                p_xerr = q_x * law.t_phase
                cum = law.xx_cum
                u = rand()
                if u < cum[0]:
                    xa, xb = 0, 0
                elif u < cum[1]:
                    xa, xb = 0, 1
                elif u < cum[2]:
                    xa, xb = 1, 0
                else:
                    xa, xb = 1, 1
                if a_is_z:
                    if b_is_z:
                        if xa != xb:
                            lambda_ph += 1
                        az.append(xa)
                        bz.append(xb)
                        per_round.append(PerRound((Z, Z), (xa, xb), p_ph, p_xerr))
                    else:
                        per_round.append(PerRound((Z, X), (xa, xb), p_ph, p_xerr))
                elif not b_is_z:
                    if xa != xb:
                        lambda_xerr += 1
                    per_round.append(PerRound((X, X), (xa, xb), p_ph, p_xerr))
                else:
                    per_round.append(PerRound((X, Z), (xa, xb), p_ph, p_xerr))

    if picture is _ESTIMATION:
        return EstimationRun(
            transcript=transcript,
            per_round=per_round,
            lambda_ph=lambda_ph,
            lambda_xerr=lambda_xerr,
            s_az_vir=np.array(az, dtype=np.uint8),
            s_bz_vir=np.array(bz, dtype=np.uint8),
        )

    for is_z, cum in kept:  # the virtual picture's deferred readout
        u = rand()
        if u < cum[0]:
            a_bit, b_bit = 0, 0
        elif u < cum[1]:
            a_bit, b_bit = 0, 1
        elif u < cum[2]:
            a_bit, b_bit = 1, 0
        else:
            a_bit, b_bit = 1, 1
        if is_z:
            az.append(a_bit)
            bz.append(b_bit)
        else:
            ax.append(a_bit)
            bx.append(b_bit)

    sifted = SiftedData(
        s_az=np.array(az, dtype=np.uint8),
        s_bz=np.array(bz, dtype=np.uint8),
        s_ax=np.array(ax, dtype=np.uint8),
        s_bx=np.array(bx, dtype=np.uint8),
        n_z=len(az),
        n_x=len(ax),
    )
    if counting_detected and sifted.n_z + sifted.n_x > params.n_det_ter:
        raise ValidationError("sifted counts exceed the detection threshold")
    if virtual:
        return transcript, sifted, retained
    return transcript, sifted


# ---------------------------------------------------------------------------
# Estimation counters: the round loop, or its draws replayed in NumPy

# Draws per buffer refill of the replay, at most.
_REPLAY_CHUNK = 1 << 18


def replay_counter(
    params: ProtocolParams, eve: EveStrategy, povm: BobPOVM | None = None
) -> Callable[[RandomStream], tuple[int, int, float, float, int, int]] | None:
    """A function from a session stream to the counters of its estimation run.

    The counters are ``(lambda_ph, lambda_xerr, sum_p_ph, sum_p_xerr, n_z,
    n_x)``: the two error counts, the ``math.fsum`` of the per-round p_ph and
    p_xerr, and the numbers of Z-Z and X-X detected rounds of
    ``run_estimation(params, eve, stream, povm)``.  The function replays the
    session's draws in NumPy (:func:`_replay_counts`) and gives the same
    numbers.  It exists only when ``eve`` has a ``schedule`` and every op of
    ``eve.ops`` has the same delivery and detection probabilities under
    ``povm``; otherwise this returns None.
    """
    povm = povm if povm is not None else ideal_povm()
    laws = [_kernel_for(povm).virtual(op) for op in eve.ops] if eve.schedule else []
    if not laws or len({(law.p_deliver, law.p_detect) for law in laws}) > 1:
        return None
    return functools.partial(_replay_counts, params, eve.schedule, laws)


def _uniforms(stream: RandomStream, k: int) -> np.ndarray:
    """The next k ``stream.random()`` values, drawn at once.

    ``random()`` takes two 32-bit MT19937 words and returns
    ``((w1 >> 5) * 2**26 + (w2 >> 6)) * 2**-53``; ``getrandbits(64 * k)``
    takes the same 2k words and puts the first in the lowest bits.
    """
    words = np.frombuffer(stream.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


def _replay_counts(
    params: ProtocolParams,
    schedule: Schedule,
    laws: list[_VirtualLaw],
    rng: RandomStream,
) -> tuple[int, int, float, float, int, int]:
    """The counters of :func:`replay_counter`, from ``rng``'s draws in NumPy.

    The estimation picture draws, per emitted round: delivery; detection if
    delivered; Bob's basis; then, if detected, Alice's basis and the X
    readout.  The laws share their delivery and detection probabilities, so
    which draws are which does not depend on the op; :func:`_detections`
    finds them, and the schedule then gives the op of each detected round.
    Rounds after the n-th detection, in-flight or not, change no counter.
    """
    eve_rng = _eve_stream(rng)
    index, draws = _detections(
        functools.partial(_uniforms, rng),
        params.n_det_ter,
        params.max_rounds,
        laws[0].p_deliver,
        laws[0].p_detect,
    )
    b_z = draws[:, 0] < params.p_z_b
    a_z = draws[:, 1] < params.p_z_a
    detected = np.zeros(index[-1] + 1, dtype=bool)
    detected[index] = True
    basis_b = np.where(b_z, Basis.Z.value, Basis.X.value).astype(np.uint8)
    op = schedule(detected, basis_b, functools.partial(_uniforms, eve_rng))[index]
    # xa != xb exactly when the readout falls between xx_cum[0] and xx_cum[2].
    readout = draws[:, 2]
    error = (readout >= np.array([law.xx_cum[0] for law in laws])[op]) & (
        readout < np.array([law.xx_cum[2] for law in laws])[op]
    )
    zz = a_z & b_z
    xx = ~(a_z | b_z)
    # fsum is correctly rounded, so it equals the exact sum rounded once:
    # per op, the count of its rounds times its probability.
    per_op = np.bincount(op, minlength=len(laws)).tolist()

    def fsum_of(q: float) -> float:
        return float(sum(c * Fraction(q * law.t_phase) for c, law in zip(per_op, laws)))

    return (
        int(np.count_nonzero(zz & error)),
        int(np.count_nonzero(xx & error)),
        fsum_of(params.q_z),
        fsum_of(params.q_x),
        int(np.count_nonzero(zz)),
        int(np.count_nonzero(xx)),
    )


def _detections(
    random_k: Callable[[int], np.ndarray],
    n: int,
    max_rounds: int,
    p_deliver: float,
    p_detect: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Walk the estimation draw order to the n-th detection.

    ``random_k(k)`` gives the session's next k ``random()`` values.  Returns
    the emitted-round index of each of the n detected rounds and their last
    three draws (Bob's basis, Alice's basis, X readout) as an (n, 3) array.
    A round takes 2 draws if not delivered, 3 if delivered but not detected
    and 5 if detected.  Raises :class:`MaxRoundsExceeded` as :func:`_session`
    does.  Draws come in buffers of at most :data:`_REPLAY_CHUNK`, sized from
    the expected draws per detection; a round cut by the end of a buffer is
    carried into the next.
    """
    if p_deliver == 1.0 and p_detect == 1.0:  # random() < 1.0 always: 5 draws a round
        rows = []
        for start in range(0, n, _REPLAY_CHUNK // 5):
            m = min(n - start, _REPLAY_CHUNK // 5)
            rows.append(random_k(5 * m).reshape(m, 5)[:, 2:])
        return np.arange(n), np.concatenate(rows)
    p_both = p_deliver * p_detect
    per_detection = (2.0 + p_deliver + 2.0 * p_both) / p_both if p_both > 0.0 else math.inf
    index, rows = [], []
    tail = np.empty(0)
    count = r = 0  # detections so far; index of the round at the head of the buffer
    while count < n:
        guess = 1.1 * (n - count) * per_detection + 64
        u = np.concatenate((tail, random_k(_REPLAY_CHUNK if guess >= _REPLAY_CHUNK else int(guess))))
        limit = len(u) - 4  # a round that starts before limit fits in the buffer
        delivered = np.flatnonzero(u[:limit] < p_deliver)
        m = len(delivered)
        # upcoming[a]: index in ``delivered`` of the first q >= a with
        # q = a (mod 2), or m + a % 2 where there is none.  Undelivered rounds
        # take two draws, so a walk over them keeps its parity.
        upcoming = np.full(len(u) + 1, m, dtype=np.int64)
        upcoming[1::2] += 1
        upcoming[delivered] = np.arange(m)
        for parity in (0, 1):
            upcoming[parity::2] = np.minimum.accumulate(upcoming[parity::2][::-1])[::-1]
        hit = u[delivered + 1] < p_detect
        successor = upcoming[delivered + np.where(hit, 5, 3)].tolist()
        path = []  # the delivered rounds of the walk, as indices into ``delivered``
        j = int(upcoming[0])
        while j < m:
            path.append(j)
            j = successor[j]
        at = delivered[path]
        hits = hit[path]
        last = np.flatnonzero(hits)[n - count - 1 : n - count]  # the n-th detection
        if len(last):
            at, hits = at[: last[0] + 1], hits[: last[0] + 1]
        else:  # end with the first round that may not fit; the next buffer starts there
            p = int(at[-1]) + (5 if hits[-1] else 3) if len(at) else 0
            at = np.append(at, max(p, limit + ((limit - p) & 1)))
            hits = np.append(hits, False)
        # Before each round of ``at``: the previous one, then undelivered rounds.
        after = np.concatenate(([0], at[:-1] + np.where(hits[:-1], 5, 3)))
        rounds = r + np.cumsum((at - after) >> 1) + np.arange(len(at))
        late = np.flatnonzero(rounds >= max_rounds)[:1]
        if len(late):
            detected = count + np.count_nonzero(hits[: late[0]])
            raise MaxRoundsExceeded(
                f"no termination after {max_rounds} rounds ({detected} detected)"
            )
        index.append(rounds[hits])
        rows.append(u[at[hits][:, None] + np.arange(2, 5)])
        count += int(np.count_nonzero(hits))
        r = int(rounds[-1])
        tail = u[at[-1] :]
    return np.concatenate(index), np.concatenate(rows)


# ---------------------------------------------------------------------------
# Post-processing


def postprocess(
    sifted: SiftedData, params: ProtocolParams, rng: RandomStream
) -> FinalKeys:
    """Distill final keys: bound the phase errors, correct, compress, verify.

    Error correction is idealized — Bob's string is replaced by Alice's and
    the syndrome cost lambda_ec is charged against the key length.  Privacy
    amplification is the seeded Toeplitz hash.  Verification tags come from
    the polynomial hash of the l-bit keys over a prime p >= 2(l-1)/eps_c, so
    two different keys collide with probability at most (l-1)/p <= eps_c/2;
    ``consumed_preshared_bits`` counts the pre-shared bits that drawing p and
    the evaluation point took.  Raises the ProtocolAbort subclasses on a
    non-positive key length or tag mismatch, propagates the aborts of the
    bound pipeline, and raises DomainError when p would exceed the range in
    which primality is decided exactly.
    """
    result = finite_key.pipeline(sifted, params)
    if result.l <= 0:
        raise AbortKeyTooShort(
            f"extractable key length {result.l} (pre-floor {result.l_pre_floor:.3f})"
        )
    l = result.l
    corrected_b = sifted.s_az.copy()  # idealized reconciliation

    seed_bits = hashing.random_bits(rng, sifted.n_z + l - 1)
    f_az = hashing.toeplitz_hash(sifted.s_az, l, seed_bits)
    f_bz = hashing.toeplitz_hash(corrected_b, l, seed_bits)

    # The least tag_bits with 2**tag_bits >= 2(l-1)/eps_c, in exact
    # arithmetic; random_prime draws p >= 2**tag_bits.
    p_min = Fraction(2 * max(l - 1, 1)) / Fraction(params.eps_c)
    tag_bits = (math.ceil(p_min) - 1).bit_length()
    modulus = hashing.random_prime(rng, tag_bits)
    point, point_bits = hashing.random_below(rng, modulus)
    tag_a = hashing.poly_hash(f_az, modulus, point)
    tag_b = hashing.poly_hash(f_bz, modulus, point)
    meta = {
        "toeplitz_seed_hex": np.packbits(seed_bits).tobytes().hex(),
        "poly_modulus": modulus,
        "poly_point": point,
        "tag_a": tag_a,
        "tag_b": tag_b,
        "consumed_preshared_bits": tag_bits + point_bits,
        "lambda_ec": result.lambda_ec,
        "key_length": l,
    }
    if tag_a != tag_b:
        raise AbortVerificationFailed(f"verification tags differ: {tag_a} != {tag_b}")
    return FinalKeys(
        f_az=f_az, f_bz=f_bz, aborted=False, lambda_ec=result.lambda_ec, meta=meta
    )


# ---------------------------------------------------------------------------
# Serialization helpers (documented JSON shapes; see docs/output-formats.md)


def bits_to_hex(bits: np.ndarray) -> str:
    """Pack a 0/1 array MSB-first into hex; pair with the stored bit length."""
    if len(bits) == 0:
        return ""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


def hex_to_bits(hex_str: str, n_bits: int) -> np.ndarray:
    if n_bits == 0:
        return np.zeros(0, dtype=np.uint8)
    raw = np.frombuffer(bytes.fromhex(hex_str), dtype=np.uint8)
    return np.unpackbits(raw)[:n_bits].astype(np.uint8)


def transcript_counts(transcript: Transcript) -> dict:
    """The fields of :func:`transcript_to_json` that precede ``rounds``."""
    return {"n_rounds": len(transcript.detected), "n_detected": transcript.n_detected}


def transcript_to_json(transcript: Transcript) -> dict:
    names = [basis.name for basis in _BASES]
    columns = zip(transcript.detected, transcript.basis_b, transcript.basis_a)
    return {
        **transcript_counts(transcript),
        "rounds": [
            [i, d, names[b], names[a] if d else None]
            for i, (d, b, a) in enumerate(columns, 1)
        ],
    }


def transcript_rounds_to_json(transcript: Transcript, depth: int) -> str:
    """The ``rounds`` array of :func:`transcript_to_json` as JSON text.

    The text is what ``json.dumps(..., indent=2)`` writes for that array when
    it sits at nesting depth ``depth`` (the value of a key whose line is
    indented by ``2 * depth`` spaces), but it is built from the columns without
    the per-round lists.
    """
    return "".join(transcript_rounds_parts(transcript, depth))


def transcript_rounds_parts(transcript: Transcript, depth: int) -> list[str]:
    """The text of :func:`transcript_rounds_to_json` as a list of pieces.

    A caller that splices the array into a larger text joins these pieces
    with the rest in one ``str.join``, so the array is never copied whole.
    A round's row depends only on its index and on the 3-bit code
    (detected, basis_b, basis_a), so each code has one template and the
    pieces alternate between index and template.
    """
    n = len(transcript.detected)
    if n == 0:
        return ["[]"]
    outer = "\n" + "  " * depth
    row = outer + "  "
    item = row + "  "
    tails = []
    for code in range(8):
        detected, basis_b, basis_a = code >> 2, (code >> 1) & 1, code & 1
        announced_a = f'"{_BASES[basis_a].name}"' if detected else "null"
        tails.append(
            f',{item}{detected},{item}"{_BASES[basis_b].name}",{item}{announced_a}{row}]'
        )
    # Each index is followed by its row's tail and the opening of the next row.
    between = [f"{tail},{row}[{item}" for tail in tails]
    codes = (
        (np.frombuffer(transcript.detected, dtype=np.uint8) << 2)
        | (np.frombuffer(transcript.basis_b, dtype=np.uint8) << 1)
        | np.frombuffer(transcript.basis_a, dtype=np.uint8)
    ).tolist()
    parts: list[str] = [""] * (2 * n + 1)
    parts[0] = f"[{row}[{item}"
    parts[1::2] = map(str, range(1, n + 1))
    parts[2::2] = map(between.__getitem__, codes)
    parts[-1] = tails[codes[-1]] + outer + "]"
    return parts


def sifted_to_json(sifted: SiftedData) -> dict:
    return {
        "n_z": sifted.n_z,
        "n_x": sifted.n_x,
        "x_error_weight": sifted.x_error_weight(),
        "s_az_hex": bits_to_hex(sifted.s_az),
        "s_bz_hex": bits_to_hex(sifted.s_bz),
        "s_ax_hex": bits_to_hex(sifted.s_ax),
        "s_bx_hex": bits_to_hex(sifted.s_bx),
    }


def final_keys_to_json(keys: FinalKeys) -> dict:
    return {
        "aborted": keys.aborted,
        "key_length": int(len(keys.f_az)),
        "lambda_ec": keys.lambda_ec,
        "f_az_hex": bits_to_hex(keys.f_az),
        "f_bz_hex": bits_to_hex(keys.f_bz),
        "meta": dict(keys.meta),
    }
